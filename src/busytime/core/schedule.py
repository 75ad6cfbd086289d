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
profiles: it recomputes feasibility and busy time from the raw endpoint
columns with one closed-interval sweep per machine and asserts the
profile-backed answers agree, so every validated schedule cross-checks the
fast path against the oracle.

:class:`ScheduleRows` is the same schedule as flat columns (instance rows,
the job ids of each machine, the placed intervals of slid jobs).  It is
what the result store keeps and what a stored document parses into;
:func:`verify_schedule` checks it with the same column checks, and
:meth:`ScheduleRows.to_schedule` builds the objects where they are needed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .events import SweepProfile, covered_measure
from .instance import Instance, InstanceRows, as_rows
from .intervals import Interval, Job, check_interval_fields, union_intervals

__all__ = [
    "Machine",
    "Schedule",
    "ScheduleRows",
    "ScheduleBuilder",
    "InfeasibleScheduleError",
    "ProfileOracleMismatchError",
    "as_schedule_rows",
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


class ScheduleRows:
    """A schedule as flat columns: what the result store keeps.

    ``instance`` is the :class:`~busytime.core.instance.InstanceRows` the
    schedule solves.  Machine ``k`` has index ``indices[k]`` and runs the
    jobs with ids ``job_ids[bounds[k]:bounds[k + 1]]``, in order.
    ``placements`` maps the id of each job placed away from its nominal
    interval to its placed ``(start, end)`` (``None``: no job moved).
    ``algorithm`` and ``meta`` are the :class:`Schedule` fields.
    ``total_busy_time`` is the cost the producer stated (a document's
    ``total_busy_time``); :func:`verify_schedule` checks it against the
    machines' spans, and ``None`` computes it from the columns.

    No job objects: the ids are one list and ``bounds`` one ``array``, so
    what a stored report holds does not grow in objects with its jobs or
    machines.  Rows come from a :class:`Schedule` (:meth:`from_schedule`)
    or from a document (:func:`busytime.io.schedule_rows_from_dict`);
    nothing here checks feasibility, :func:`verify_schedule` does, and
    :meth:`to_schedule` builds the objects of a checked schedule.
    """

    __slots__ = (
        "instance", "indices", "bounds", "job_ids", "placements", "algorithm",
        "meta", "_claim", "_slots",
    )

    def __init__(
        self,
        instance: InstanceRows,
        indices: List[int],
        bounds: Sequence[int],
        job_ids: List[int],
        placements: Optional[Dict[int, Tuple[float, float]]] = None,
        algorithm: str = "",
        meta: Optional[Mapping[str, object]] = None,
        total_busy_time: Optional[float] = None,
    ) -> None:
        bounds = array("q", bounds)
        if (
            len(bounds) != len(indices) + 1
            or bounds[0] != 0
            or bounds[-1] != len(job_ids)
            or any(lo > hi for lo, hi in zip(bounds, bounds[1:]))
        ):
            raise ValueError(
                "machine bounds must rise from 0 to the number of scheduled "
                "jobs, one bound more than there are machines"
            )
        for start, end in (placements or {}).values():
            check_interval_fields(start, end)
        self.instance = instance
        self.indices = indices
        self.bounds = bounds
        self.job_ids = job_ids
        self.placements = placements or None
        self.algorithm = algorithm
        self.meta = {} if meta is None else meta
        self._claim = total_busy_time
        self._slots: Optional[tuple] = None

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "ScheduleRows":
        """The columns of ``schedule``, holding none of its objects."""
        instance = schedule.instance
        rows = InstanceRows.from_instance(instance, keep=False)
        nominal = dict(zip(rows.ids, instance.jobs))
        indices: List[int] = []
        bounds = [0]
        job_ids: List[int] = []
        placements: Dict[int, Tuple[float, float]] = {}
        for m in schedule.machines:
            jobs = m.jobs
            ids = [j.id for j in jobs]
            refs = list(map(nominal.get, ids))
            # A job equal to its instance job was not moved; look closer
            # only on machines where some job is not.
            if refs != list(jobs):
                for job, ref in zip(jobs, refs):
                    if ref is not None and job.interval != ref.interval:
                        placements[job.id] = (job.start, job.end)
            indices.append(m.index)
            job_ids += ids
            bounds.append(len(job_ids))
        return cls(
            rows,
            indices,
            bounds,
            job_ids,
            placements,
            schedule.algorithm,
            schedule.meta,
            schedule.total_busy_time,
        )

    @property
    def num_machines(self) -> int:
        return len(self.indices)

    @property
    def total_busy_time(self) -> float:
        """The stated cost, or the sum of the machines' spans when none was."""
        if self._claim is not None:
            return self._claim
        _, starts, ends, _ = self.slot_columns()
        bounds = self.bounds
        # Schedule.total_busy_time is a plain sum() over the machines.
        return sum(
            covered_measure(starts[lo:hi], ends[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        )

    def slot_columns(self) -> Tuple[list, list, list, list]:
        """``(positions, starts, ends, demands)``, one entry per scheduled job.

        The job's row in :attr:`instance` (``None`` for an id the instance
        does not have, whose other entries are ``None`` too), its placed
        interval and its demand.  Computed once and kept.
        """
        slots = self._slots
        if slots is None:
            rows = self.instance
            position = dict(zip(rows.ids, range(rows.n)))
            positions = list(map(position.get, self.job_ids))
            columns = (rows.starts, rows.ends, rows.demands)
            if None in positions:
                starts, ends, demands = (
                    [None if p is None else column[p] for p in positions]
                    for column in columns
                )
            else:
                starts, ends, demands = (
                    list(map(column.__getitem__, positions)) for column in columns
                )
            if self.placements:
                placed = self.placements.get
                for slot, job_id in enumerate(self.job_ids):
                    interval = placed(job_id)
                    if interval is not None:
                        starts[slot], ends[slot] = interval
            slots = self._slots = (positions, starts, ends, demands)
        return slots

    def to_schedule(self) -> Schedule:
        """The :class:`Schedule` of these columns.

        Checks nothing: call it on rows :func:`verify_schedule` accepted.
        A placed job is its instance job moved to the placed interval, as
        :meth:`~busytime.core.intervals.Job.placed_at` would move it.
        """
        instance = self.instance.to_instance()
        jobs = instance.jobs
        positions = self.slot_columns()[0]
        built = [jobs[p] for p in positions]
        if self.placements:
            for slot, job_id in enumerate(self.job_ids):
                interval = self.placements.get(job_id)
                job = built[slot]
                if interval is not None and interval != (job.start, job.end):
                    built[slot] = replace(job, interval=Interval(*interval))
        bounds = self.bounds
        return Schedule(
            instance=instance,
            machines=tuple(
                Machine(index=index, jobs=tuple(built[lo:hi]))
                for index, lo, hi in zip(self.indices, bounds, bounds[1:])
            ),
            algorithm=self.algorithm,
            meta=dict(self.meta),
        )


def as_schedule_rows(schedule: Union[Schedule, ScheduleRows]) -> ScheduleRows:
    """``schedule`` as :class:`ScheduleRows` (a :class:`Schedule` is converted)."""
    if isinstance(schedule, ScheduleRows):
        return schedule
    return ScheduleRows.from_schedule(schedule)


#: Relative tolerance of the oracle's length, window and busy-time checks.
_TOL = 1e-9


def verify_schedule(schedule: Union[Schedule, ScheduleRows], mode: str = "full") -> None:
    """Validate a schedule against its instance (module-level helper).

    This is the deliberate *slow path*: it recomputes feasibility and busy
    time from the raw endpoint columns, independently of the
    :class:`~busytime.core.events.SweepProfile` fast path.  In order, and
    raising :class:`InfeasibleScheduleError` on the first fault: every job
    is scheduled exactly once and no unknown id appears; a fixed job sits at
    its interval and a placed job keeps its length inside its window; the
    site's demand, background load included, stays within its capacity;
    and on every machine the closed intervals (starts count before ends at
    equal coordinates) never hold more than ``g`` jobs, or more than ``g``
    total demand when demands are not all 1.

    A :class:`Schedule` is read into columns first, and each machine's
    profile answers (peak, demand peak, busy time) must then agree with the
    oracle's, or :class:`ProfileOracleMismatchError` is raised.  On
    :class:`ScheduleRows` the stated ``total_busy_time`` must agree with
    the sum of the machines' spans instead.

    ``mode="batch"`` keeps exactly the same checks but computes the
    per-machine quantities with one vectorized lexsort + cumsum sweep per
    machine (:func:`~busytime.core.bulk.machine_peaks`) instead of the
    pure-python sweep: the same numbers from the same columns, never from
    a profile.  It is what makes validating the n = 10^6 trajectory point
    tractable.
    """
    if mode not in ("full", "batch"):
        raise ValueError(f"verify mode must be 'full' or 'batch', got {mode!r}")
    if isinstance(schedule, ScheduleRows):
        positions, starts, ends, demands = schedule.slot_columns()
        spans = [
            busy
            for _, _, _, busy, _ in _checked_machines(
                schedule.instance, schedule.indices, schedule.bounds,
                schedule.job_ids, positions, starts, ends, demands, mode,
            )
        ]
        claim = schedule._claim
        if claim is not None:
            total = sum(spans)
            # ``not <=`` so that a NaN statement is refused too.
            if not abs(claim - total) <= _TOL * sum(max(1.0, abs(busy)) for busy in spans):
                raise ProfileOracleMismatchError(
                    f"stated total busy time {claim!r} disagrees with oracle "
                    f"span {total!r}"
                )
        return
    rows = as_rows(schedule.instance)
    machines = schedule.machines
    bounds = [0]
    jobs: List[Job] = []
    for m in machines:
        jobs += m.jobs
        bounds.append(len(jobs))
    ids = [j.id for j in jobs]
    position = dict(zip(rows.ids, range(rows.n)))
    batch = mode == "batch"
    for k, peak, demand_peak, busy, demanding in _checked_machines(
        rows,
        [m.index for m in machines],
        bounds,
        ids,
        list(map(position.get, ids)),
        [j.interval.start for j in jobs],
        [j.interval.end for j in jobs],
        [j.demand for j in jobs],
        mode,
    ):
        # Cross-check the sweep-profile fast path against the oracle.
        m = machines[k]
        if m.peak_parallelism != peak:
            raise ProfileOracleMismatchError(
                f"machine {m.index}: profile peak {m.peak_parallelism} "
                f"disagrees with oracle peak {peak}"
            )
        demand_tol = _TOL if (batch and demanding) else 0
        if abs(m.peak_demand - demand_peak) > demand_tol:
            raise ProfileOracleMismatchError(
                f"machine {m.index}: profile demand peak {m.peak_demand} "
                f"disagrees with oracle demand peak {demand_peak}"
            )
        if abs(m.busy_time - busy) > _TOL * max(1.0, abs(busy)):
            raise ProfileOracleMismatchError(
                f"machine {m.index}: profile busy time {m.busy_time!r} "
                f"disagrees with oracle span {busy!r}"
            )


def _checked_machines(
    rows: InstanceRows,
    indices: Sequence[int],
    bounds: Sequence[int],
    ids: Sequence,
    positions: Sequence[Optional[int]],
    starts: list,
    ends: list,
    demands: list,
    mode: str,
):
    """Run the oracle's checks on one column per scheduled job.

    ``positions`` holds each job's row in ``rows`` (``None`` for an unknown
    id); ``starts``/``ends``/``demands`` its placed interval and demand.
    Yields ``(k, peak, demand peak, span, demanding)`` for machine ``k``
    once its capacity check has passed, so a caller's per-machine checks
    interleave with the capacity checks as in one loop.
    """
    slots = len(ids)
    if None in positions or len(set(positions)) != slots:
        _raise_first_slot_fault(rows, indices, bounds, ids, positions, starts, ends)
    nominal_starts = list(map(rows.starts.__getitem__, positions))
    nominal_ends = list(map(rows.ends.__getitem__, positions))
    if nominal_starts != starts or nominal_ends != ends:
        for slot, p in enumerate(positions):
            if starts[slot] != nominal_starts[slot] or ends[slot] != nominal_ends[slot]:
                _check_placement(rows, p, ids[slot], starts[slot], ends[slot])
    if slots != rows.n:
        missing = set(rows.ids).difference(ids)
        raise InfeasibleScheduleError(f"jobs never scheduled: {sorted(missing)}")
    if rows.site_capacity is not None:
        # Site-wide capacity ([15]'s demand sweep over *all* machines plus
        # the inflexible background bands): total running demand must never
        # exceed the cap.  Demands and levels are integers, so the
        # comparison is exact.
        site_starts, site_ends, site_demands = list(starts), list(ends), list(demands)
        if rows.background is not None:
            for lo, hi, level in rows.background.bands():
                site_starts.append(lo)
                site_ends.append(hi)
                site_demands.append(level)
        site_peak = _sweep(site_starts, site_ends, site_demands)[1]
        if site_peak > rows.site_capacity:
            raise InfeasibleScheduleError(
                f"site demand peaks at {site_peak} but the site capacity "
                f"cap is {rows.site_capacity}"
            )
    g = rows.g
    batch = mode == "batch"
    for k, index in enumerate(indices):
        lo, hi = bounds[k], bounds[k + 1]
        m_demands = demands[lo:hi]
        # Demand-aware capacity ([15]): total demand <= g at every instant.
        # On unit-demand machines the demand peak *is* the cardinality
        # peak, and the error message keeps the paper's wording.
        demanding = m_demands.count(1) != hi - lo
        sweep = _batch_sweep if batch else _sweep
        peak, demand_peak, busy = sweep(
            starts[lo:hi], ends[lo:hi], m_demands if demanding else None
        )
        if demand_peak > g + (_TOL if batch and demanding else 0):
            if demanding:
                raise InfeasibleScheduleError(
                    f"machine {index} reaches total demand {demand_peak} "
                    f"but g = {g}"
                )
            raise InfeasibleScheduleError(
                f"machine {index} runs {peak} jobs simultaneously but g = {g}"
            )
        yield k, peak, demand_peak, busy, demanding


def _raise_first_slot_fault(rows, indices, bounds, ids, positions, starts, ends) -> None:
    """Raise the first unknown id, repeated job or misplaced job, in order."""
    owner: Dict[int, int] = {}
    r_starts, r_ends = rows.starts, rows.ends
    for k, index in enumerate(indices):
        for slot in range(bounds[k], bounds[k + 1]):
            job_id, p = ids[slot], positions[slot]
            if p is None:
                raise InfeasibleScheduleError(
                    f"machine {index} schedules unknown job id {job_id}"
                )
            if p in owner:
                raise InfeasibleScheduleError(
                    f"job {job_id} scheduled on machines {owner[p]} and {index}"
                )
            owner[p] = index
            if starts[slot] != r_starts[p] or ends[slot] != r_ends[p]:
                _check_placement(rows, p, job_id, starts[slot], ends[slot])


def _check_placement(rows: InstanceRows, p: int, job_id, start: float, end: float) -> None:
    """The job in row ``p``, scheduled at ``[start, end]`` instead of its
    nominal interval, must be windowed, keep its length and stay inside
    its window."""
    r_start, r_end = rows.starts[p], rows.ends[p]
    window = rows.window(p)
    if window is None:
        raise InfeasibleScheduleError(
            f"job {job_id} is fixed at [{r_start:g}, {r_end:g}] but scheduled "
            f"at [{start:g}, {end:g}]"
        )
    length = r_end - r_start
    scale = max(1.0, abs(length))
    if abs((end - start) - length) > _TOL * scale:
        raise InfeasibleScheduleError(
            f"job {job_id} has length {length} but is scheduled "
            f"with length {end - start}"
        )
    lo, hi = window
    if start < lo - _TOL * scale or end > hi + _TOL * scale:
        raise InfeasibleScheduleError(
            f"job {job_id} placed at [{start:g}, {end:g}], outside its "
            f"window [{lo}, {hi}]"
        )


def _sweep(starts: list, ends: list, demands: Optional[list] = None):
    """``(peak load, peak demand, span)`` of the closed intervals
    ``[starts[i], ends[i]]`` (demand 1 each when ``demands`` is ``None``).

    One pass over the sorted endpoints: the ends strictly before a start
    leave before it enters, so at equal coordinates starts count before
    ends.  The span sums the lengths of the maximal covered pieces left to
    right, as :func:`~busytime.core.intervals.span` does (an empty set
    spans the int ``0``).
    """
    if not starts:
        return 0, 0, 0
    if demands is None:
        s_sorted, e_sorted = sorted(starts), sorted(ends)
        j = load = peak = 0
        covered = 0
        lo = s_sorted[0]
        for s in s_sorted:
            while e_sorted[j] < s:
                j += 1
                load -= 1
                if not load:
                    covered += e_sorted[j - 1] - lo
            if not load:
                lo = s
            load += 1
            if load > peak:
                peak = load
        return peak, peak, covered + (e_sorted[-1] - lo)
    s_events = sorted(zip(starts, demands))
    e_events = sorted(zip(ends, demands))
    j = load = peak = demand = demand_peak = 0
    covered = 0
    lo = s_events[0][0]
    for s, d in s_events:
        while e_events[j][0] < s:
            demand -= e_events[j][1]
            j += 1
            load -= 1
            if not load:
                covered += e_events[j - 1][0] - lo
        if not load:
            lo = s
        load += 1
        demand += d
        if load > peak:
            peak = load
        if demand > demand_peak:
            demand_peak = demand
    return peak, demand_peak, covered + (e_events[-1][0] - lo)


def _batch_sweep(starts: list, ends: list, demands: Optional[list] = None):
    """:func:`_sweep`'s quantities from :func:`~busytime.core.bulk.machine_peaks`."""
    import numpy as np

    from .bulk import machine_peaks

    peak, demand_peak, busy = machine_peaks(
        np.array(starts, dtype=np.float64),
        np.array(ends, dtype=np.float64),
        None if demands is None else np.array(demands, dtype=np.float64),
    )
    return peak, peak if demands is None else demand_peak, busy


class ScheduleBuilder:
    """Mutable helper the algorithms use to build schedules incrementally.

    The builder maintains, per machine, the list of assigned jobs *and* an
    incrementally updated :class:`~busytime.core.events.SweepProfile`, so the
    feasibility query the greedy algorithms need (``fits``) is answered from
    the maintained machine state instead of re-clipping the machine's whole
    job list per query.  In the rigid model (unit demands, no site
    capacity) a job fits a machine exactly when its window meets no instant
    at which the machine already runs ``g`` jobs, so the builder also keeps
    each machine's saturated runs
    (:meth:`~busytime.core.events.SweepProfile.saturated_runs`) and answers
    ``fits`` with one bisection over them.  With demands or a site cap
    ``fits`` takes the window maximum of the profile, in ``O(log k + w)``
    (``k`` breakpoints on the machine, ``w`` of them inside the job's
    window).  Machines are indexed from 0 in order of opening, matching the
    paper's ``M_1, M_2, ...`` numbering shifted by one.
    """

    def __init__(self, instance: Instance, algorithm: str = "") -> None:
        self.instance = instance
        self.algorithm = algorithm
        self._machines: List[List[Job]] = []
        self._profiles: List[SweepProfile] = []
        self._assigned: Dict[int, int] = {}
        self.meta: Dict[str, object] = {}
        # Per machine, the sorted starts and the sorted ends of the maximal
        # closed runs at load >= g; None when the rigid model does not hold,
        # so that ``fits`` asks the profile instead.
        self._runs: Optional[List[Tuple[List[float], List[float]]]] = None
        if instance.site_capacity is None and not instance.has_demands:
            self._runs = []
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
        In the rigid model the answer is one bisection over the machine's
        saturated runs: the job fits when the first run ending at or after
        its start begins after its end.
        """
        if self._runs is not None and job.demand == 1:
            starts, ends = self._runs[machine_index]
            k = bisect_left(ends, job.start)
            return k == len(ends) or starts[k] > job.end
        if not self._profiles[machine_index].fits(
            job.start, job.end, self.instance.g, demand=job.demand
        ):
            return False
        return self.site_fits(job)

    def first_fitting_machine(self, job: Job) -> Optional[int]:
        """Lowest-index machine that can accommodate ``job``, or None."""
        if self._runs is None or job.demand != 1:
            for idx in range(len(self._machines)):
                if self.fits(idx, job):
                    return idx
            return None
        start, end = job.start, job.end
        idx = 0
        for starts, ends in self._runs:
            k = bisect_left(ends, start)
            if k == len(ends) or starts[k] > end:
                return idx
            idx += 1
        return None

    def best_fitting_machine(self, job: Job) -> Optional[int]:
        """The fitting machine whose busy time grows least, or None.

        Ties go to the lowest index.  ``None`` — open a new machine — also
        when no machine absorbs ``job`` for less than its length, which is
        exactly what a fresh machine costs.
        """
        best_idx: Optional[int] = None
        best_increase = float("inf")
        for idx in range(len(self._machines)):
            if not self.fits(idx, job):
                continue
            increase = self.marginal_busy_increase(idx, job)
            if increase < best_increase:
                best_increase = increase
                best_idx = idx
        if best_increase >= job.length:
            return None
        return best_idx

    # -- mutation --------------------------------------------------------------

    def open_machine(self) -> int:
        """Open a new, empty machine; returns its index."""
        self._machines.append([])
        self._profiles.append(SweepProfile())
        if self._runs is not None:
            self._runs.append(([], []))
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
        if self._runs is not None:
            if job.demand != 1:
                # A demand leaves the rigid model: the profiles answer from now on.
                self._runs = None
            elif self._profiles[machine_index].count >= self.instance.g:
                self._refresh_runs(machine_index, job.start, job.end)

    def _refresh_runs(self, machine_index: int, start: float, end: float) -> None:
        """Re-read the machine's saturated runs that meet ``[start, end]``.

        Adding or removing ``[start, end]`` changes the load only inside it,
        so only the runs meeting it can grow, merge, shrink or split; they
        are replaced by the runs the profile now has over their hull.
        """
        starts, ends = self._runs[machine_index]
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi], ends[lo:hi] = self._profiles[machine_index].saturated_runs(
            start, end, self.instance.g
        )

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
        if self._runs is not None and self._runs[machine_index][0]:
            self._refresh_runs(machine_index, removed.start, removed.end)
        return machine_index

    # -- output ----------------------------------------------------------------

    def freeze(self) -> Schedule:
        """Produce the immutable :class:`Schedule`, unverified.

        The incrementally maintained profiles are handed to the frozen
        machines (re-indexed densely in case empty machines were opened and
        never used), so a later :func:`verify_schedule` cross-checks the
        *same* machine state that answered the ``fits`` queries during
        construction, not a freshly rebuilt one.  Freezing runs no oracle
        pass: the caller that hands the schedule on verifies it.
        """
        return self._freeze_against(self.instance)

    def freeze_partial(self, name: str = "") -> Schedule:
        """Freeze the schedule of the *currently assigned* jobs only.

        After departures (:meth:`unassign`) the builder's live job set is a
        subset of the instance; this freezes against the induced
        sub-instance so ``verify_schedule`` — which insists every instance
        job is scheduled exactly once — can play oracle after every
        mutation.  The dynamic simulator's cross-check cadence runs
        ``verify_schedule(builder.freeze_partial())``.
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
        return self._freeze_against(live)

    def _freeze_against(self, instance: Instance) -> Schedule:
        machines: List[Machine] = []
        for jobs, profile in zip(self._machines, self._profiles):
            if not jobs:
                continue
            m = Machine(index=len(machines), jobs=tuple(jobs))
            # Snapshot so later builder mutations cannot alias the frozen
            # machine's state; the arrays are still the incrementally built
            # ones, so verification cross-checks the real hot path.
            object.__setattr__(m, "_profile", profile.copy())
            machines.append(m)
        return Schedule(
            instance=instance,
            machines=tuple(machines),
            algorithm=self.algorithm,
            meta=dict(self.meta),
        )
