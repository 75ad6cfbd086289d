"""Schedules: assignments of jobs to machines, their cost and feasibility.

A *schedule* is simply a partition of the job set into machines; machine
``M_i`` becomes busy at the earliest start of any job assigned to it and
stays busy until the latest completion (Section 1.1's w.l.o.g. contiguity
argument).  The cost of a machine is the span of its job set and the cost of
the schedule is the sum over machines — exactly the quantity the paper
minimises.

Feasibility of a machine means that at no instant more than ``g`` of its jobs
overlap (the parallelism constraint), i.e. the clique number of the induced
interval graph of the machine's jobs is at most ``g``.

The :class:`ScheduleBuilder` is the mutable companion used by the algorithms
while they assign jobs; :meth:`ScheduleBuilder.freeze` yields the immutable
:class:`Schedule` handed back to callers.

Hot-path queries — ``fits``, ``can_accommodate``, ``busy_time``,
``peak_parallelism``, ``machines_active_at`` — are answered from an
incrementally maintained :class:`~busytime.core.events.SweepProfile` per
machine rather than by re-deriving the load profile from the job list on
every call.  :func:`verify_schedule` deliberately does *not* use the
profiles: it recomputes feasibility and busy time from the raw job lists
with the slow-path primitives of :mod:`busytime.core.intervals` and asserts
the profile-backed answers agree, so every validated schedule cross-checks
the fast path against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .events import SweepProfile
from .instance import Instance
from .intervals import (
    Interval,
    Job,
    max_point_demand,
    max_point_load,
    span,
    union_intervals,
)

__all__ = [
    "Machine",
    "Schedule",
    "ScheduleBuilder",
    "InfeasibleScheduleError",
    "ProfileOracleMismatchError",
    "verify_schedule",
]


class InfeasibleScheduleError(ValueError):
    """Raised when a schedule violates the parallelism or coverage rules."""


class ProfileOracleMismatchError(RuntimeError):
    """Raised when a sweep-profile answer disagrees with the slow-path oracle.

    This signals an *internal* inconsistency of the fast-path machine state,
    not an infeasible schedule — deliberately a :class:`RuntimeError` so it
    is never swallowed by callers that branch on
    :meth:`Schedule.is_feasible`.
    """


@dataclass(frozen=True)
class Machine:
    """One machine of a schedule: an index and the jobs assigned to it."""

    index: int
    jobs: Tuple[Job, ...]

    @property
    def busy_intervals(self) -> Tuple[Interval, ...]:
        """The (possibly non-contiguous) union of the assigned job intervals.

        The paper's w.l.o.g. step splits a machine with idle gaps into one
        machine per contiguous piece; the busy-time cost is identical either
        way, so we keep the jobs together and account the union measure.
        """
        return tuple(union_intervals(self.jobs))

    @property
    def busy_interval(self) -> Optional[Interval]:
        """The hull ``[min start, max completion]`` of the machine, or None."""
        if not self.jobs:
            return None
        return Interval(min(j.start for j in self.jobs), max(j.end for j in self.jobs))

    @property
    def profile(self):
        """The machine's sweep-line load profile, built once and cached.

        ``Machine`` is immutable, so the profile is derived lazily from the
        job tuple on first access and reused by every subsequent query
        (``busy_time``, ``peak_parallelism``, ``can_accommodate``, ...).
        """
        prof = self.__dict__.get("_profile")
        if prof is None:
            prof = SweepProfile.from_intervals(self.jobs)
            object.__setattr__(self, "_profile", prof)
        return prof

    @property
    def busy_time(self) -> float:
        """``busy_i``: the total busy time of this machine (span of its jobs)."""
        return self.profile.measure

    @property
    def load(self) -> int:
        """Number of jobs assigned to this machine."""
        return len(self.jobs)

    @property
    def peak_parallelism(self) -> int:
        """Maximum number of this machine's jobs active at any instant."""
        return self.profile.max_load()

    @property
    def peak_demand(self) -> int:
        """Peak total capacity demand of this machine's jobs at any instant.

        Equals :attr:`peak_parallelism` on unit-demand machines; the
        demand-aware feasibility constraint of [15] is
        ``peak_demand <= g``.
        """
        return self.profile.max_demand()

    def active_job_count(self, t: float) -> int:
        return self.profile.load_at(t)

    def is_feasible(self, g: int) -> bool:
        """True when the machine's total demand never exceeds ``g``.

        With unit demands this is the paper's "never more than ``g`` jobs
        at once" cardinality constraint.
        """
        return self.peak_demand <= g

    def can_accommodate(self, job: Job, g: int) -> bool:
        """True when adding ``job`` keeps the machine feasible for ``g``.

        Only instants inside ``job``'s interval can become overloaded, so the
        check asks the maintained profile for the peak demand inside
        ``job``'s window and requires ``job``'s own demand to still fit
        under ``g`` (the cardinality check of the rigid model when all
        demands are 1).
        """
        return self.profile.fits(job.start, job.end, g, demand=job.demand)

    def without_job(self, job_id: int) -> "Machine":
        """A copy of this machine with one job removed.

        The removal is routed through
        :meth:`~busytime.core.events.SweepProfile.remove` on a snapshot of
        the cached profile (when one exists), so the derived machine keeps
        answering its hot-path queries from incrementally maintained state
        rather than a rebuild — the same first-class ``unassign`` path the
        mutable :class:`ScheduleBuilder` uses.
        """
        remaining = tuple(j for j in self.jobs if j.id != job_id)
        if len(remaining) == len(self.jobs):
            raise KeyError(f"machine {self.index} does not process job {job_id}")
        removed = next(j for j in self.jobs if j.id == job_id)
        machine = Machine(index=self.index, jobs=remaining)
        cached = self.__dict__.get("_profile")
        if cached is not None:
            profile = cached.copy()
            profile.remove(removed.start, removed.end, demand=removed.demand)
            object.__setattr__(machine, "_profile", profile)
        return machine

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"M{self.index}({len(self.jobs)} jobs, busy={self.busy_time:g})"


@dataclass(frozen=True)
class Schedule:
    """An immutable solution: the instance plus the machine partition.

    Attributes
    ----------
    instance:
        The instance the schedule solves.
    machines:
        The machines, in the order they were opened by the algorithm.
    algorithm:
        Name of the producing algorithm (for reports).
    meta:
        Free-form metadata (e.g. parameters, certificates) attached by the
        producing algorithm.
    """

    instance: Instance
    machines: Tuple[Machine, ...]
    algorithm: str = ""
    meta: Mapping[str, object] = field(default_factory=dict)

    # -- cost ----------------------------------------------------------------

    @property
    def total_busy_time(self) -> float:
        """The paper's objective value: sum of machine busy times."""
        return sum(m.busy_time for m in self.machines)

    @property
    def cost(self) -> float:
        """The seed objective (total busy time); see :meth:`cost_under` for
        the general cost-model axis."""
        return self.total_busy_time

    def cost_under(self, model) -> float:
        """The schedule's cost under a :class:`~busytime.core.objectives.CostModel`.

        ``cost_under(get_cost_model("busy_time"))`` equals
        :attr:`total_busy_time` exactly (same summands, same order); other
        models add activation / rate / weight terms per machine.
        """
        return model.schedule_cost(self)

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def num_contiguous_machines(self) -> int:
        """Number of machines after splitting idle gaps (the paper's w.l.o.g.
        contiguous-machine normal form); the cost is unchanged by the split."""
        return sum(len(m.busy_intervals) for m in self.machines)

    def machine_of(self, job_id: int) -> int:
        """Index of the machine processing the given job."""
        for m in self.machines:
            for j in m.jobs:
                if j.id == job_id:
                    return m.index
        raise KeyError(f"job {job_id} is not scheduled")

    def assignment(self) -> Dict[int, int]:
        """Mapping job id -> machine index."""
        out: Dict[int, int] = {}
        for m in self.machines:
            for j in m.jobs:
                out[j.id] = m.index
        return out

    def machines_active_at(self, t: float) -> int:
        """``M_t``: number of machines with at least one active job at ``t``."""
        return sum(1 for m in self.machines if m.active_job_count(t) > 0)

    @property
    def peak_parallelism(self) -> int:
        """Largest per-machine parallelism anywhere in the schedule.

        Feasibility (Theorem 2.1's capacity constraint) is exactly
        ``peak_parallelism <= g``; answered from the per-machine profiles.
        """
        return max((m.peak_parallelism for m in self.machines), default=0)

    # -- feasibility ---------------------------------------------------------

    def is_feasible(self) -> bool:
        try:
            self.validate()
        except InfeasibleScheduleError:
            return False
        return True

    def validate(self) -> None:
        """Raise :class:`InfeasibleScheduleError` if the schedule is invalid.

        Checks: every job of the instance is scheduled exactly once, no
        foreign jobs appear, and every machine respects the parallelism
        parameter ``g``.
        """
        verify_schedule(self)

    # -- misc ----------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm or "unknown",
            "instance": self.instance.name,
            "n": self.instance.n,
            "g": self.instance.g,
            "machines": self.num_machines,
            "total_busy_time": self.total_busy_time,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule({self.algorithm or 'unknown'}: "
            f"{self.num_machines} machines, busy={self.total_busy_time:g})"
        )


def verify_schedule(schedule: Schedule, mode: str = "full") -> None:
    """Validate a schedule against its instance (module-level helper).

    This is the deliberate *slow path*: it recomputes feasibility with
    :func:`~busytime.core.intervals.max_point_load` and busy time with
    :func:`~busytime.core.intervals.span` directly from the raw job lists,
    independently of the :class:`~busytime.core.events.SweepProfile` fast
    path — and then asserts the profile-backed answers agree, so every
    validated schedule cross-checks the sweep-line machine state against
    the brute-force oracle.

    ``mode="batch"`` keeps exactly the same checks but computes the
    per-machine oracle quantities with one vectorized lexsort + cumsum
    sweep per machine (:func:`~busytime.core.bulk.machine_peaks`) instead
    of the pure-python event sweeps — the same numbers from the same raw
    job arrays, never from a profile, so independence from the profile is
    preserved.  It is what makes validating the n = 10^6
    trajectory point tractable.
    """
    if mode not in ("full", "batch"):
        raise ValueError(f"verify mode must be 'full' or 'batch', got {mode!r}")
    instance = schedule.instance
    expected_ids = set(instance.job_ids)
    by_id = {j.id: j for j in instance.jobs}
    tol = 1e-9
    seen: Dict[int, int] = {}
    for m in schedule.machines:
        for j in m.jobs:
            if j.id not in expected_ids:
                raise InfeasibleScheduleError(
                    f"machine {m.index} schedules unknown job id {j.id}"
                )
            if j.id in seen:
                raise InfeasibleScheduleError(
                    f"job {j.id} scheduled on machines {seen[j.id]} and {m.index}"
                )
            seen[j.id] = m.index
            # Window check: the assigned interval must be a valid *placement*
            # of the instance job — same length, inside [release, deadline].
            # Fixed jobs (the degenerate window) must sit exactly at their
            # nominal interval.  Checked from the raw intervals, independent
            # of any profile.
            ref = by_id[j.id]
            if j.interval != ref.interval:
                if not ref.has_window:
                    raise InfeasibleScheduleError(
                        f"job {j.id} is fixed at {ref.interval} but scheduled "
                        f"at {j.interval}"
                    )
                scale = max(1.0, abs(ref.length))
                if abs(j.length - ref.length) > tol * scale:
                    raise InfeasibleScheduleError(
                        f"job {j.id} has length {ref.length} but is scheduled "
                        f"with length {j.length}"
                    )
                lo, hi = ref.window_release, ref.window_deadline
                if j.start < lo - tol * scale or j.end > hi + tol * scale:
                    raise InfeasibleScheduleError(
                        f"job {j.id} placed at {j.interval}, outside its "
                        f"window [{lo}, {hi}]"
                    )
    missing = expected_ids - set(seen)
    if missing:
        raise InfeasibleScheduleError(f"jobs never scheduled: {sorted(missing)}")
    if instance.site_capacity is not None:
        # Site-wide capacity oracle ([15]'s demand sweep over *all* machines
        # plus the inflexible background bands): total running demand must
        # never exceed the cap.  Demands and levels are integers, so the
        # comparison is exact.
        items: List[Job] = [j for m in schedule.machines for j in m.jobs]
        if instance.background is not None:
            fake = -1
            for lo, hi, level in instance.background.bands():
                items.append(
                    Job(id=fake, interval=Interval(lo, hi), demand=level)
                )
                fake -= 1
        site_peak = max_point_demand(items)
        if site_peak > instance.site_capacity:
            raise InfeasibleScheduleError(
                f"site demand peaks at {site_peak} but the site capacity "
                f"cap is {instance.site_capacity}"
            )
    for m in schedule.machines:
        if mode == "batch":
            from .bulk import job_arrays, machine_peaks

            b_starts, b_ends, b_demands = job_arrays(m.jobs)
            demanding = b_demands is not None
            peak, demand_peak, oracle_busy = machine_peaks(
                b_starts, b_ends, b_demands
            )
            if not demanding:
                demand_peak = peak
        else:
            peak = max_point_load(m.jobs)
            demanding = any(j.demand != 1 for j in m.jobs)
            # Demand-aware capacity constraint ([15]): total demand <= g at
            # every instant.  On unit-demand machines the demand peak *is*
            # the cardinality peak, so the oracle sweep below is skipped and
            # the error message keeps the paper's wording.
            demand_peak = max_point_demand(m.jobs) if demanding else peak
            oracle_busy = None
        if demand_peak > instance.g + (1e-9 if mode == "batch" and demanding else 0):
            if demanding:
                raise InfeasibleScheduleError(
                    f"machine {m.index} reaches total demand {demand_peak} "
                    f"but g = {instance.g}"
                )
            raise InfeasibleScheduleError(
                f"machine {m.index} runs {peak} jobs simultaneously "
                f"but g = {instance.g}"
            )
        # Cross-check the sweep-profile fast path against the oracle.
        if m.peak_parallelism != peak:
            raise ProfileOracleMismatchError(
                f"machine {m.index}: profile peak {m.peak_parallelism} "
                f"disagrees with oracle peak {peak}"
            )
        demand_tol = 1e-9 if (mode == "batch" and demanding) else 0
        if abs(m.peak_demand - demand_peak) > demand_tol:
            raise ProfileOracleMismatchError(
                f"machine {m.index}: profile demand peak {m.peak_demand} "
                f"disagrees with oracle demand peak {demand_peak}"
            )
        if oracle_busy is None:
            oracle_busy = span(m.jobs)
        if abs(m.busy_time - oracle_busy) > 1e-9 * max(1.0, abs(oracle_busy)):
            raise ProfileOracleMismatchError(
                f"machine {m.index}: profile busy time {m.busy_time!r} "
                f"disagrees with oracle span {oracle_busy!r}"
            )


class ScheduleBuilder:
    """Mutable helper the algorithms use to build schedules incrementally.

    The builder maintains, per machine, the list of assigned jobs *and* an
    incrementally updated :class:`~busytime.core.events.SweepProfile`, so the
    feasibility query the greedy algorithms need (``fits``) is answered from
    the maintained machine state in ``O(log k + w)`` instead of re-clipping
    the machine's whole job list per query.  Machines are indexed from 0 in
    order of opening, matching the paper's ``M_1, M_2, ...`` numbering
    shifted by one.
    """

    def __init__(self, instance: Instance, algorithm: str = "") -> None:
        self.instance = instance
        self.algorithm = algorithm
        self._machines: List[List[Job]] = []
        self._profiles: List[SweepProfile] = []
        self._assigned: Dict[int, int] = {}
        self.meta: Dict[str, object] = {}
        # Site-wide capacity state: one extra profile over *all* machines,
        # pre-seeded with the inflexible background bands, consulted by
        # ``fits`` alongside the per-machine check.
        self._site = None
        if instance.site_capacity is not None:
            self._site = SweepProfile()
            if instance.background is not None:
                for lo, hi, level in instance.background.bands():
                    self._site.add(lo, hi, demand=level)

    # -- queries --------------------------------------------------------------

    @property
    def num_machines(self) -> int:
        return len(self._machines)

    def jobs_on(self, machine_index: int) -> Sequence[Job]:
        return tuple(self._machines[machine_index])

    def profile_of(self, machine_index: int):
        """The maintained sweep profile of one machine (read-only use)."""
        return self._profiles[machine_index]

    def machine_busy_time(self, machine_index: int) -> float:
        """Current busy time (span) of one machine, from its profile."""
        return self._profiles[machine_index].measure

    @property
    def total_busy_time(self) -> float:
        """Objective value of the partial schedule built so far."""
        return sum(p.measure for p in self._profiles)

    def marginal_busy_increase(self, machine_index: int, job: Job) -> float:
        """Busy-time growth if ``job`` were assigned to the machine.

        The part of the job's window the machine is not already busy in,
        read off the maintained profile — the query behind BestFit-style
        placement policies.
        """
        return job.length - self._profiles[machine_index].covered_measure_in(
            job.start, job.end
        )

    def marginal_busy_release(self, job: Job) -> float:
        """Busy-time the current machine would shed if ``job`` left it.

        The part of ``job``'s window covered by no other job on its machine,
        measured by a remove/re-add round trip on the maintained profile
        (both operations are exact counter updates, so the round trip leaves
        the profile bit-identical).  This is the query behind
        migration-ranking policies in the dynamic simulator.
        """
        machine_index = self.machine_of(job.id)
        profile = self._profiles[machine_index]
        before = profile.measure
        profile.remove(job.start, job.end, demand=job.demand)
        released = before - profile.measure
        profile.add(job.start, job.end, demand=job.demand)
        return released

    def machine_of(self, job_id: int) -> int:
        """Index of the machine currently processing ``job_id``."""
        try:
            return self._assigned[job_id]
        except KeyError:
            raise KeyError(f"job {job_id} is not assigned") from None

    @property
    def assigned_job_ids(self) -> Tuple[int, ...]:
        """Ids of all currently assigned jobs (arbitrary but stable order)."""
        return tuple(self._assigned)

    def site_fits(self, job: Job) -> bool:
        """True when the site-wide capacity cap leaves room for ``job``.

        Trivially true without a cap.  Checked against the maintained
        site profile (all machines' jobs plus the background bands), so it
        also gates *opening a new machine* for the job.
        """
        if self._site is None:
            return True
        return self._site.fits(
            job.start, job.end, self.instance.site_capacity, demand=job.demand
        )

    def fits(self, machine_index: int, job: Job) -> bool:
        """True when adding ``job`` to the machine keeps it feasible.

        Demand-aware: the machine's total demand inside ``job``'s window
        must leave room for ``job.demand`` under ``g`` (the cardinality
        check of the rigid model when all demands are 1).  Under a
        site-wide capacity cap the site profile must admit the job too.
        """
        if not self._profiles[machine_index].fits(
            job.start, job.end, self.instance.g, demand=job.demand
        ):
            return False
        return self.site_fits(job)

    def first_fitting_machine(self, job: Job) -> Optional[int]:
        """Lowest-index machine that can accommodate ``job``, or None."""
        for idx in range(len(self._machines)):
            if self.fits(idx, job):
                return idx
        return None

    # -- mutation --------------------------------------------------------------

    def open_machine(self) -> int:
        """Open a new, empty machine; returns its index."""
        self._machines.append([])
        self._profiles.append(SweepProfile())
        return len(self._machines) - 1

    def assign(self, machine_index: int, job: Job) -> None:
        """Assign ``job`` to an existing machine (no feasibility re-check)."""
        if job.id in self._assigned:
            raise InfeasibleScheduleError(
                f"job {job.id} already assigned to machine {self._assigned[job.id]}"
            )
        if not 0 <= machine_index < len(self._machines):
            raise IndexError(f"no machine with index {machine_index}")
        self._machines[machine_index].append(job)
        self._profiles[machine_index].add(job.start, job.end, demand=job.demand)
        if self._site is not None:
            self._site.add(job.start, job.end, demand=job.demand)
        self._assigned[job.id] = machine_index

    def assign_first_fit(self, job: Job) -> int:
        """Assign ``job`` to the first machine that fits, opening one if needed."""
        idx = self.first_fitting_machine(job)
        if idx is None:
            idx = self.open_machine()
        self.assign(idx, job)
        return idx

    def assign_new_machine(self, jobs: Iterable[Job]) -> int:
        """Open a machine and assign all given jobs to it."""
        idx = self.open_machine()
        for job in jobs:
            self.assign(idx, job)
        return idx

    def unassign(self, job: Job) -> int:
        """Remove ``job`` from its machine; returns the machine index.

        The exact inverse of :meth:`assign`: the job leaves the machine's
        job list and its interval is removed from the machine's maintained
        :class:`~busytime.core.events.SweepProfile` (stale breakpoints are
        kept at zero coverage, which is harmless — see
        :meth:`SweepProfile.remove`).  This is the mutation path behind job
        departures and migrations in the dynamic-workload simulator
        (:mod:`busytime.extensions.dynamic`); ``verify_schedule`` on a
        subsequent :meth:`freeze_partial` stays the slow-path oracle for it.
        """
        machine_index = self.machine_of(job.id)
        jobs = self._machines[machine_index]
        for pos, stored in enumerate(jobs):
            if stored.id == job.id:
                removed = jobs.pop(pos)
                break
        self._profiles[machine_index].remove(
            removed.start, removed.end, demand=removed.demand
        )
        if self._site is not None:
            self._site.remove(removed.start, removed.end, demand=removed.demand)
        del self._assigned[job.id]
        return machine_index

    # -- output ----------------------------------------------------------------

    def freeze(self, validate: bool = True) -> Schedule:
        """Produce the immutable :class:`Schedule` (optionally validating it).

        The incrementally maintained profiles are handed to the frozen
        machines (re-indexed densely in case empty machines were opened and
        never used), so the validation cross-check exercises the *same*
        machine state that answered the ``fits`` queries during
        construction, not a freshly rebuilt one.
        """
        return self._freeze_against(self.instance, validate)

    def freeze_partial(self, validate: bool = True, name: str = "") -> Schedule:
        """Freeze the schedule of the *currently assigned* jobs only.

        After departures (:meth:`unassign`) the builder's live job set is a
        subset of the instance; this freezes against the induced
        sub-instance so ``verify_schedule`` — which insists every instance
        job is scheduled exactly once — can keep playing oracle after every
        mutation.  Used by the dynamic simulator's cross-check cadence.
        """
        live = Instance(
            jobs=tuple(
                job for machine in self._machines for job in machine
            ),
            g=self.instance.g,
            name=name or (self.instance.name and f"{self.instance.name}#live") or "live",
            site_capacity=self.instance.site_capacity,
            background=self.instance.background,
        )
        return self._freeze_against(live, validate)

    def _freeze_against(self, instance: Instance, validate: bool) -> Schedule:
        machines: List[Machine] = []
        for jobs, profile in zip(self._machines, self._profiles):
            if not jobs:
                continue
            m = Machine(index=len(machines), jobs=tuple(jobs))
            # Snapshot so later builder mutations cannot alias the frozen
            # machine's state; the arrays are still the incrementally built
            # ones, so validation cross-checks the real hot path.
            object.__setattr__(m, "_profile", profile.copy())
            machines.append(m)
        sched = Schedule(
            instance=instance,
            machines=tuple(machines),
            algorithm=self.algorithm,
            meta=dict(self.meta),
        )
        if validate:
            sched.validate()
        return sched
