"""Flexible (real-time) busy-time scheduling — the follow-up model of [15].

Section 1.3 of the paper points to the follow-up work (Khandekar, Schieber,
Shachnai, Tamir, cited as [15]) that generalises the rigid-interval model in
two directions:

* every job has a **release time** ``r_j``, a **due date** ``d_j`` and a
  **processing time** ``p_j`` with ``r_j + p_j <= d_j`` — the scheduler also
  picks *when* the job runs, anywhere inside its window;
* every job has a **demand** ``s_j`` for machine capacity, and a machine can
  host any job set whose *total demand* at each instant is at most ``g``
  (the rigid model is the special case ``s_j = 1``).

That follow-up proves a 5-approximation by fixing start times first and then
running (a demand-aware) FirstFit; this module implements that two-phase
scheme as an *extension* of the core library so downstream users can handle
malleable workloads with the same API:

1. **Start-time fixing** (:func:`fix_start_times`): each job is anchored
   greedily — in non-increasing order of ``p_j * s_j`` — at the position
   inside its window that minimises the marginal growth of the union of
   already-anchored jobs (ties broken towards the release time).  Anchoring
   turns the flexible instance into a rigid :class:`busytime.core.Instance`
   whose jobs carry the chosen intervals.
2. **Demand-aware packing** (:func:`flexible_first_fit`): longest-first
   FirstFit where "fits" means the *demand profile* of the machine never
   exceeds ``g`` (generalising the cardinality check of the rigid model).

Lower bounds generalise directly: the demand-weighted parallelism bound
``sum_j p_j s_j / g`` and the span bound over the *mandatory parts*
``[d_j - p_j, r_j + p_j]`` (the portion of the window every feasible start
covers), both provided by :func:`flexible_lower_bound`.

Guarantees, for orientation:

* the cited follow-up [15] proves a **5-approximation** for this model via
  exactly this fix-then-pack structure; our anchoring heuristic differs in
  the fixing rule, so the implementation inherits feasibility and the lower
  bounds but makes no ratio claim of its own (experiment E14 measures it);
* the rigid special case ``s_j = 1``, ``r_j + p_j = d_j`` degenerates to
  the paper's model, where the packing phase *is* longest-first FirstFit
  and Theorem 2.1's factor 4 applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.events import SweepProfile
from ..core.instance import Instance
from ..core.intervals import Interval, Job, span, union_intervals

__all__ = [
    "FlexibleJob",
    "FlexibleInstance",
    "FlexibleSchedule",
    "fix_start_times",
    "flexible_first_fit",
    "flexible_lower_bound",
    "demand_profile_peak",
]


@dataclass(frozen=True)
class FlexibleJob:
    """A malleable job: window ``[release, due]``, processing time, demand."""

    id: int
    release: float
    due: float
    processing: float
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.processing < 0:
            raise ValueError("processing time must be non-negative")
        if self.demand <= 0:
            raise ValueError("demand must be positive")
        if self.release + self.processing > self.due + 1e-12:
            raise ValueError(
                f"job {self.id}: window [{self.release}, {self.due}] too short for "
                f"processing time {self.processing}"
            )

    @property
    def slack(self) -> float:
        """How much the start time can move: ``due - release - processing``."""
        return self.due - self.release - self.processing

    @property
    def is_rigid(self) -> bool:
        """True when the window admits exactly one start time."""
        return self.slack <= 1e-12

    @property
    def mandatory_part(self) -> Optional[Interval]:
        """The sub-interval covered by *every* feasible placement, if any."""
        lo = self.due - self.processing
        hi = self.release + self.processing
        if hi <= lo:
            return None
        return Interval(lo, hi)

    def interval_if_started_at(self, start: float) -> Interval:
        if start < self.release - 1e-12 or start + self.processing > self.due + 1e-12:
            raise ValueError(
                f"start {start} outside feasible window of job {self.id}"
            )
        return Interval(start, start + self.processing)


@dataclass(frozen=True)
class FlexibleInstance:
    """A flexible busy-time instance: jobs plus machine capacity ``g``."""

    jobs: Tuple[FlexibleJob, ...]
    g: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.g <= 0:
            raise ValueError("capacity g must be positive")
        if not isinstance(self.jobs, tuple):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        for job in self.jobs:
            if job.demand > self.g + 1e-12:
                raise ValueError(
                    f"job {job.id} demands {job.demand} > machine capacity {self.g}"
                )

    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[Tuple[float, float, float]],
        g: float,
        demands: Optional[Sequence[float]] = None,
        name: str = "",
    ) -> "FlexibleInstance":
        """Build from ``(release, due, processing)`` triples."""
        rows = list(rows)
        if demands is None:
            demands = [1.0] * len(rows)
        jobs = tuple(
            FlexibleJob(id=i, release=r, due=d, processing=p, demand=s)
            for i, ((r, d, p), s) in enumerate(zip(rows, demands))
        )
        return cls(jobs=jobs, g=g, name=name)

    @classmethod
    def from_rigid(cls, instance: Instance) -> "FlexibleInstance":
        """Embed a rigid instance (windows equal to the job intervals, demand 1)."""
        jobs = tuple(
            FlexibleJob(
                id=j.id,
                release=j.start,
                due=j.end,
                processing=j.length,
                demand=1.0,
            )
            for j in instance.jobs
        )
        return cls(jobs=jobs, g=float(instance.g), name=instance.name)

    @property
    def n(self) -> int:
        return len(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    @property
    def total_work(self) -> float:
        """Demand-weighted processing volume ``sum p_j * s_j``."""
        return sum(j.processing * j.demand for j in self.jobs)

    def is_rigid(self) -> bool:
        return all(j.is_rigid for j in self.jobs)


@dataclass(frozen=True)
class FlexibleSchedule:
    """A solution: a start time and a machine for every job."""

    instance: FlexibleInstance
    starts: Mapping[int, float]
    machine_of: Mapping[int, int]
    algorithm: str = ""

    def interval_of(self, job_id: int) -> Interval:
        job = next(j for j in self.instance.jobs if j.id == job_id)
        return job.interval_if_started_at(self.starts[job_id])

    @property
    def num_machines(self) -> int:
        return len(set(self.machine_of.values())) if self.machine_of else 0

    def jobs_on(self, machine: int) -> List[FlexibleJob]:
        return [j for j in self.instance.jobs if self.machine_of[j.id] == machine]

    @property
    def total_busy_time(self) -> float:
        total = 0.0
        for machine in set(self.machine_of.values()):
            intervals = [self.interval_of(j.id) for j in self.jobs_on(machine)]
            total += span(intervals)
        return total

    def validate(self) -> None:
        """Check windows, coverage and the capacity constraint on every machine."""
        expected = {j.id for j in self.instance.jobs}
        if set(self.starts) != expected or set(self.machine_of) != expected:
            raise ValueError("every job needs exactly one start time and one machine")
        for job in self.instance.jobs:
            start = self.starts[job.id]
            if start < job.release - 1e-9 or start + job.processing > job.due + 1e-9:
                raise ValueError(f"job {job.id} scheduled outside its window")
        for machine in set(self.machine_of.values()):
            jobs = self.jobs_on(machine)
            placed = [
                (self.interval_of(j.id), j.demand) for j in jobs if j.processing > 0
            ]
            peak = demand_profile_peak(placed)
            if peak > self.instance.g + 1e-9:
                raise ValueError(
                    f"machine {machine} reaches demand {peak} > capacity {self.instance.g}"
                )

    def to_rigid_schedule(self):
        """Project to a rigid :class:`busytime.core.Schedule` (demand-1 check only)."""
        from ..core.schedule import Machine, Schedule

        rigid_jobs = {
            j.id: Job(id=j.id, interval=self.interval_of(j.id), weight=j.demand)
            for j in self.instance.jobs
        }
        rigid_instance = Instance(
            jobs=tuple(rigid_jobs.values()),
            g=max(1, int(self.instance.g)),
            name=self.instance.name,
        )
        machines = []
        for machine in sorted(set(self.machine_of.values())):
            machines.append(
                Machine(
                    index=len(machines),
                    jobs=tuple(
                        rigid_jobs[j.id] for j in self.jobs_on(machine)
                    ),
                )
            )
        return Schedule(
            instance=rigid_instance,
            machines=tuple(machines),
            algorithm=self.algorithm or "flexible",
        )


def demand_profile_peak(placed: Sequence[Tuple[Interval, float]]) -> float:
    """Peak of the step function ``t -> sum of demands of intervals covering t``."""
    events: List[Tuple[float, int, float]] = []
    for interval, demand in placed:
        events.append((interval.start, 0, demand))
        events.append((interval.end, 1, demand))
    events.sort(key=lambda e: (e[0], e[1]))
    load = peak = 0.0
    for _, kind, demand in events:
        if kind == 0:
            load += demand
            peak = max(peak, load)
        else:
            load -= demand
    return peak


def flexible_lower_bound(instance: FlexibleInstance) -> float:
    """Lower bound on the optimal total busy time of a flexible instance.

    The demand-weighted parallelism bound plus the mandatory-part span bound
    (the flexible analogues of Observation 1.1).
    """
    work_bound = instance.total_work / instance.g
    mandatory = [j.mandatory_part for j in instance.jobs]
    span_bound = span([m for m in mandatory if m is not None])
    return max(work_bound, span_bound)


def fix_start_times(
    instance: FlexibleInstance, resolution: int = 8
) -> Dict[int, float]:
    """Phase 1: anchor every job inside its window.

    Jobs are processed in non-increasing order of ``p_j * s_j`` (big rocks
    first); each is placed at the candidate start — the release time, the
    latest feasible start, the starts aligning either end with the current
    union, and ``resolution`` evenly spaced intermediate positions — that
    minimises the growth of the union of already-anchored intervals.
    """
    starts: Dict[int, float] = {}
    anchored: List[Interval] = []
    order = sorted(
        instance.jobs, key=lambda j: (-(j.processing * j.demand), j.release, j.id)
    )
    for job in order:
        earliest = job.release
        latest = job.due - job.processing
        candidates = {earliest, latest}
        for k in range(1, resolution):
            candidates.add(earliest + (latest - earliest) * k / resolution)
        # align with existing union edges when they fall inside the window
        for seg in anchored:
            for anchor in (seg.start, seg.end - job.processing, seg.end, seg.start - job.processing):
                if earliest - 1e-12 <= anchor <= latest + 1e-12:
                    candidates.add(min(max(anchor, earliest), latest))
        best_start = earliest
        best_growth = float("inf")
        base = span(anchored)
        for candidate in sorted(candidates):
            trial = anchored + [job.interval_if_started_at(candidate)]
            growth = span(trial) - base
            if growth < best_growth - 1e-12:
                best_growth = growth
                best_start = candidate
        starts[job.id] = best_start
        anchored = union_intervals(anchored + [job.interval_if_started_at(best_start)])
    return starts


def flexible_first_fit(
    instance: FlexibleInstance,
    starts: Optional[Mapping[int, float]] = None,
) -> FlexibleSchedule:
    """Phase 2: demand-aware longest-first FirstFit over anchored jobs.

    With ``starts`` omitted, :func:`fix_start_times` is used, giving the full
    two-phase heuristic in the spirit of the 5-approximation of [15].  The
    result is validated before being returned.

    The packing phase runs on the *core* demand-aware machine state: each
    machine maintains a :class:`~busytime.core.events.SweepProfile` and the
    "does this job fit" query reads the peak demand inside the job's window
    off the maintained profile — the same check the rigid algorithms use —
    instead of the module's former private clip-and-rescan loop.  The
    profiles only ever grow here (packing never unplaces a job), so float
    demands are safe; :func:`demand_profile_peak` stays the independent
    slow-path oracle through :meth:`FlexibleSchedule.validate`.
    """
    if starts is None:
        starts = fix_start_times(instance)
    placed: Dict[int, Interval] = {
        j.id: j.interval_if_started_at(starts[j.id]) for j in instance.jobs
    }
    order = sorted(
        instance.jobs, key=lambda j: (-j.processing, starts[j.id], j.id)
    )
    machines: List[List[FlexibleJob]] = []
    profiles: List[SweepProfile] = []
    machine_of: Dict[int, int] = {}
    for job in order:
        window = placed[job.id]
        target = None
        for idx, profile in enumerate(profiles):
            # Peak demand already on the machine inside the job's window,
            # plus the job's own demand, within capacity (tolerance matches
            # the validator's: demands are caller-supplied floats here).
            if (
                profile.max_demand_in(window.start, window.end) + job.demand
                <= instance.g + 1e-12
            ):
                target = idx
                break
        if target is None:
            machines.append([])
            profiles.append(SweepProfile())
            target = len(machines) - 1
        machines[target].append(job)
        profiles[target].add(window.start, window.end, demand=job.demand)
        machine_of[job.id] = target
    schedule = FlexibleSchedule(
        instance=instance,
        starts=dict(starts),
        machine_of=machine_of,
        algorithm="flexible_first_fit",
    )
    schedule.validate()
    return schedule
