"""Sweep-line event utilities shared by graph construction and analysis.

Interval algorithms in this package repeatedly need the same primitive: walk
the sorted start/end events of a set of jobs while maintaining the set of
currently active jobs.  This module centralises that sweep so the clique
number, the machine-count profile ``M_t``, the load profile ``N_t`` and the
piecewise-constant integrals used by the analysis all share one correct,
well-tested implementation.

Two layers are provided, mirroring the two ways the paper's quantities are
consumed:

* the **batch helpers** (:func:`sweep_events`, :func:`load_profile`,
  :func:`integrate_step_function`) re-derive a profile from scratch — the
  right tool for one-shot analysis such as the Theorem 3.1 integral
  ``OPT = ∫ M_t dt`` check;
* the **incremental machine state** (:class:`SweepProfile`) maintains the
  load profile ``N_t`` of one machine's job set *across assignments*, so
  the greedy algorithms (FirstFit of Theorem 2.1, NextFit of Theorem 3.1)
  and the branch-and-bound search answer "does job ``J`` still fit under
  the parallelism bound ``g``" from the maintained structure instead of
  re-clipping and re-sorting the machine's whole job list per query.  The
  profile's own answer is the window maximum, ``O(log k + w)`` (``k``
  breakpoints on the machine, ``w`` of them inside ``J``'s window); in the
  rigid model the schedule builder keeps the profile's
  :meth:`~SweepProfile.saturated_runs` per machine and answers with one
  bisection, leaving the window maximum to demands and site caps.

Closed-interval semantics are used throughout: at a coordinate where one job
ends and another starts, both are considered active (start events are
processed before end events), matching the conflict model of the paper.
:func:`busytime.core.schedule.verify_schedule` recomputes peaks and spans
with its own endpoint sweep over the raw columns and cross-checks every
profile-derived answer against it; :func:`busytime.core.intervals.max_point_load`
stays the brute-force reference of the property tests.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .intervals import Interval, Job, _as_interval

#: Batch sizes below this stay on the sequential python paths — the numpy
#: kernel's fixed overhead (array allocation, sorting setup) only pays for
#: itself from a few dozen intervals up.
BULK_FROM_INTERVALS_MIN = 64

__all__ = [
    "Event",
    "SweepProfile",
    "BULK_FROM_INTERVALS_MIN",
    "TraceEvent",
    "DynamicTrace",
    "TraceValidator",
    "TraceValidationError",
    "ARRIVE",
    "DEPART",
    "covered_measure",
    "sweep_events",
    "load_profile",
    "integrate_step_function",
    "breakpoints",
]


@dataclass(frozen=True, order=True)
class Event:
    """A single sweep event.

    Events order by ``(time, kind)`` with ``kind`` 0 for starts and 1 for
    ends so that, at equal coordinates, starts are processed first (closed
    intervals: a job starting exactly when another ends overlaps it).
    """

    time: float
    kind: int  # 0 = start, 1 = end
    job_id: int


def sweep_events(jobs: Iterable[Job]) -> List[Event]:
    """All start/end events of the given jobs in sweep order."""
    events: List[Event] = []
    for j in jobs:
        events.append(Event(j.start, 0, j.id))
        events.append(Event(j.end, 1, j.id))
    events.sort()
    return events


def breakpoints(jobs: Iterable[Job]) -> List[float]:
    """Sorted distinct endpoint coordinates of the given jobs."""
    pts = set()
    for j in jobs:
        pts.add(j.start)
        pts.add(j.end)
    return sorted(pts)


def load_profile(jobs: Sequence[Job]) -> List[Tuple[float, float, int]]:
    """The piecewise-constant function ``t -> N_t`` as ``(lo, hi, load)`` pieces.

    Only pieces of positive length are reported; the load on a piece is the
    number of jobs whose interval covers the piece's interior.  Degenerate
    (zero-length) jobs contribute to no positive-length piece but are still
    counted correctly by :func:`busytime.core.intervals.point_load`.
    """
    pts = breakpoints(jobs)
    profile: List[Tuple[float, float, int]] = []
    for lo, hi in zip(pts, pts[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        load = sum(1 for j in jobs if j.start <= mid <= j.end)
        profile.append((lo, hi, load))
    return profile


def integrate_step_function(
    jobs: Sequence[Job], value_at: Callable[[float], float]
) -> float:
    """Integrate ``value_at(t)`` over the breakpoint grid induced by ``jobs``.

    ``value_at`` must be constant on every open interval between consecutive
    breakpoints (it is evaluated at the midpoint of each piece).  Used by the
    Theorem 3.1 analysis check, which integrates the number of active
    machines ``M_t`` over time to recover the total busy time.
    """
    pts = breakpoints(jobs)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        total += (hi - lo) * value_at(mid)
    return total


#: Trace event kinds.  Arrivals order before departures at equal times,
#: matching the closed-interval convention of :class:`Event` (a job arriving
#: exactly when another departs overlaps it at that instant).
ARRIVE = 0
DEPART = 1


class TraceValidationError(ValueError):
    """Raised by :meth:`DynamicTrace.validate` on an ill-formed trace."""


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle event of a dynamic workload: a job arriving or departing.

    Events order by ``(time, kind, job.id)`` with :data:`ARRIVE` before
    :data:`DEPART`, so simultaneous arrival/departure keeps the closed-interval
    conflict semantics: the departing job is still live when the arrival is
    placed — and simultaneous same-kind events follow job ids, matching the
    online replay's ``(start, id)`` arrival tie-break.  ``sorted`` on events
    therefore yields exactly the order :meth:`DynamicTrace.validate` demands.

    ``job`` carries the *full* interval revealed at arrival.  A departure at
    ``time < job.end`` is an early cancellation: the machine stops being busy
    with the job from ``time`` on, so the job's *effective* interval — the
    part that actually occupied a machine — is ``[job.start, time]``.
    """

    time: float
    kind: int  # ARRIVE or DEPART
    job: Job

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.kind, self.job.id)

    def __lt__(self, other: "TraceEvent") -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.sort_key < other.sort_key

    @property
    def is_arrival(self) -> bool:
        return self.kind == ARRIVE


@dataclass(frozen=True)
class DynamicTrace:
    """An ordered arrive/depart event sequence plus the parallelism bound.

    The dynamic counterpart of :class:`~busytime.core.instance.Instance`:
    where an instance is a static job set, a trace is the job set's
    *lifecycle* — each job arrives once (revealing its interval) and departs
    once (at its natural completion or earlier, if cancelled).  Replayed by
    :class:`busytime.extensions.dynamic.Simulator`; generated by
    :mod:`busytime.generators.dynamic_traces`.
    """

    events: Tuple[TraceEvent, ...]
    g: int
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_jobs(self) -> int:
        return sum(1 for e in self.events if e.is_arrival)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> Tuple[float, float]:
        """Earliest and latest event time (``(0, 0)`` when empty)."""
        if not self.events:
            return (0.0, 0.0)
        return (self.events[0].time, self.events[-1].time)

    def departure_times(self) -> Dict[int, float]:
        """Job id -> departure time."""
        return {e.job.id: e.time for e in self.events if not e.is_arrival}

    def effective_jobs(self) -> Tuple[Job, ...]:
        """Each job truncated to the part that actually occupied a machine.

        A job departing at ``d < end`` effectively ran ``[start, d]``; a job
        departing on time ran its full interval.  The induced static
        instance (:meth:`effective_instance`) is the hindsight comparator
        the simulator reports its cost gap against.
        """
        departs = self.departure_times()
        out: List[Job] = []
        for e in self.events:
            if not e.is_arrival:
                continue
            job = e.job
            d = departs.get(job.id, job.end)
            if d < job.end:
                job = Job(id=job.id, interval=Interval(job.start, d), tag=job.tag)
            out.append(job)
        return tuple(out)

    def effective_instance(self, name: str = ""):
        """The static instance induced by :meth:`effective_jobs` (same ``g``)."""
        from .instance import Instance

        return Instance(
            jobs=self.effective_jobs(),
            g=self.g,
            name=name or (self.name and f"{self.name}#effective") or "effective",
        )

    def validate(self) -> None:
        """Raise :class:`TraceValidationError` unless the trace is well formed.

        Well formed means: events sorted in ``(time, kind, job id)`` order,
        every job arrives exactly once and departs exactly once, arrival at
        the job's start time, and departure inside ``[start, end]``.
        """
        validator = TraceValidator()
        for e in self.events:
            validator.feed(e)
        validator.finish()


class TraceValidator:
    """Incremental form of :meth:`DynamicTrace.validate`.

    Feeds one event at a time and raises :class:`TraceValidationError` the
    moment an invariant breaks: events must stay in ``(time, kind, job id)``
    order, each job arrives exactly once (at its start time) and departs at
    most once (inside ``[start, end]``).  :meth:`finish` adds the final
    whole-trace check — every arrived job departed.

    This is the admission gate streaming sessions
    (:mod:`busytime.service.sessions`) run each incoming event through
    *before* mutating machine state, so a malformed batch is refused without
    partially applying; :meth:`DynamicTrace.validate` is exactly
    feed-everything-then-finish, keeping the offline and streaming paths on
    one shared rule set.
    """

    __slots__ = ("_arrived", "_departed", "_prev_key")

    def __init__(self) -> None:
        self._arrived: set = set()
        self._departed: set = set()
        self._prev_key: Optional[Tuple[float, int, int]] = None

    @property
    def live_job_ids(self) -> frozenset:
        """Ids of jobs that arrived but have not departed yet."""
        return frozenset(self._arrived - self._departed)

    @property
    def events_seen(self) -> int:
        return len(self._arrived) + len(self._departed)

    def copy(self) -> "TraceValidator":
        """An independent snapshot (used to probe a batch before applying)."""
        twin = TraceValidator()
        twin._arrived = set(self._arrived)
        twin._departed = set(self._departed)
        twin._prev_key = self._prev_key
        return twin

    def feed(self, e: TraceEvent) -> None:
        """Accept one event or raise :class:`TraceValidationError`."""
        if self._prev_key is not None and e.sort_key < self._prev_key:
            raise TraceValidationError(
                f"events out of order at t={e.time} (job {e.job.id})"
            )
        if e.is_arrival:
            if e.job.id in self._arrived:
                raise TraceValidationError(f"job {e.job.id} arrives twice")
            if e.time != e.job.start:
                raise TraceValidationError(
                    f"job {e.job.id} arrives at {e.time} but starts at {e.job.start}"
                )
            self._arrived.add(e.job.id)
        else:
            if e.job.id not in self._arrived:
                raise TraceValidationError(
                    f"job {e.job.id} departs before arriving"
                )
            if e.job.id in self._departed:
                raise TraceValidationError(f"job {e.job.id} departs twice")
            if not (e.job.start <= e.time <= e.job.end):
                raise TraceValidationError(
                    f"job {e.job.id} departs at {e.time}, outside "
                    f"[{e.job.start}, {e.job.end}]"
                )
            self._departed.add(e.job.id)
        self._prev_key = e.sort_key

    def finish(self) -> None:
        """The whole-trace closing check: every arrived job departed."""
        missing = self._arrived - self._departed
        if missing:
            raise TraceValidationError(
                f"jobs never depart: {sorted(missing)}"
            )


def _rank_counts(starts: List[float], ends: List[float], closed: bool = True):
    """Rank counting over the sorted endpoints of ``[starts[i], ends[i]]``.

    Returns ``(sorted starts, sorted ends, times, point, seg, measure)``:
    the distinct breakpoints, the closed load at each (``None`` unless
    ``closed``), the load on the open segment to its right, and the covered
    length summed left to right over the covered segments.  That sum is a
    plain ``sum()``, so a set covering no segment (zero-length intervals
    only) measures the int ``0``.
    """
    s_sorted = sorted(starts)
    e_sorted = sorted(ends)
    times = sorted({*s_sorted, *e_sorted})
    point = (
        [bisect_right(s_sorted, t) - bisect_left(e_sorted, t) for t in times]
        if closed
        else None
    )
    seg = [bisect_right(s_sorted, t) - bisect_right(e_sorted, t) for t in times]
    seg[-1] = 0  # nothing extends past the last breakpoint
    measure = sum(hi - lo for lo, hi, s in zip(times, times[1:], seg) if s > 0)
    return s_sorted, e_sorted, times, point, seg, measure


def covered_measure(starts: Sequence[float], ends: Sequence[float]) -> float:
    """``span`` of the closed intervals ``[starts[i], ends[i]]``: a machine's busy time.

    Bit for bit (type included) the :attr:`SweepProfile.measure` of
    ``SweepProfile.from_intervals`` over the same intervals, by the same
    kernels: numpy from :data:`BULK_FROM_INTERVALS_MIN` intervals up, the
    left-to-right rank counting below.  Callers holding only endpoint
    columns (the service answering a cache hit) get a machine's busy time
    without building jobs or a profile.
    """
    n = len(starts)
    if n == 0:
        return 0.0
    if n >= BULK_FROM_INTERVALS_MIN:
        import numpy as np

        from .bulk import profile_arrays

        return profile_arrays(
            np.array(starts, dtype=np.float64), np.array(ends, dtype=np.float64)
        )[5]
    return _rank_counts(starts, ends, closed=False)[5]


class SweepProfile:
    """Incrementally maintained load profile of a set of closed intervals.

    This is the sweep-line *machine state* behind the hot feasibility
    queries: one instance per machine records how many of the machine's jobs
    are active at every instant, as a step function over the sorted distinct
    endpoint coordinates seen so far (*breakpoints*).

    Because closed intervals that merely touch at an endpoint do conflict
    (the paper's parallelism constraint counts both as active at the shared
    instant), the profile stores **two** numbers per breakpoint ``t_i``:

    ``point[i]``
        the load *at* the point ``t_i`` (closed semantics — a job ``[a, t_i]``
        and a job ``[t_i, b]`` both count), and
    ``seg[i]``
        the load on the open segment ``(t_i, t_{i+1})``.

    Every stored interval has both endpoints among the breakpoints, so a job
    covering any part of an open segment covers all of it; hence
    ``seg[i] <= min(point[i], point[i+1])`` and the maximum load over any
    closed query window is attained at a breakpoint or at the window's left
    edge.  That observation makes :meth:`max_load_in` — the core of the
    "does job J fit on machine M_i without a (g+1)-clique" test — a pair of
    bisections plus a slice maximum.

    Maintained aggregates:

    * :attr:`count` — number of stored intervals;
    * :attr:`measure` — ``span`` of the stored intervals (Definition 1.2),
      i.e. the machine's busy time, updated as segments gain/lose coverage.

    :meth:`add` is ``O(k)`` worst case (two sorted insertions plus counter
    updates over the window) and :meth:`remove` supports the backtracking
    branch-and-bound search; removal never deletes breakpoints, which keeps
    the arrays append-mostly and is harmless (stale breakpoints carry the
    coverage of their segment).

    **Demand awareness.**  The follow-up model of [15] gives every job a
    capacity demand ``s_j`` and replaces the cardinality constraint by
    ``sum of demands <= g`` at every instant.  The profile supports it with a
    second, *lazily materialised* pair of arrays (``dpoint``/``dseg``)
    holding the demand-weighted load.  While every stored interval has unit
    demand the weighted arrays stay ``None`` and every operation touches
    exactly the arrays the rigid model always used — the unit-demand case
    degenerates bit-for-bit (and at full speed) to the cardinality check.
    The first ``add`` with ``demand != 1`` upgrades the profile by copying
    the cardinality arrays (weighted == cardinality up to that point) and
    both pairs are maintained from then on.

    The brute-force counterpart of every query lives in
    :mod:`busytime.core.intervals` (``max_point_load``, ``span``,
    ``point_load``, ``max_point_demand``) and is used by ``verify_schedule``
    and the property tests to cross-check this structure.
    """

    __slots__ = ("_times", "_point", "_seg", "_dpoint", "_dseg", "_count", "_measure")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._point: List[int] = []
        self._seg: List[int] = []
        # Demand-weighted twins of _point/_seg; None until a non-unit demand
        # is stored (the rigid fast path never allocates or touches them).
        self._dpoint: Optional[List[int]] = None
        self._dseg: Optional[List[int]] = None
        self._count: int = 0
        self._measure: float = 0.0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_intervals(cls, items: Iterable) -> "SweepProfile":
        """Batch-build the profile of a set of intervals/jobs in ``O(k log k)``.

        Equivalent to ``add``-ing every interval one by one, but computes the
        ``point``/``seg`` arrays directly by rank counting over the sorted
        endpoint lists (with numpy from :data:`BULK_FROM_INTERVALS_MIN`
        items up).  :class:`~busytime.core.intervals.Job` items carry their
        ``demand`` into the profile; bare intervals count as demand 1.
        """
        pairs = [
            (_as_interval(it), it.demand if isinstance(it, Job) else 1)
            for it in items
        ]
        ivs = [iv for iv, _ in pairs]
        prof = cls()
        if not ivs:
            return prof
        if len(ivs) >= BULK_FROM_INTERVALS_MIN:
            import numpy as np

            from .bulk import profile_arrays

            n = len(ivs)
            s_arr = np.fromiter((iv.start for iv in ivs), np.float64, count=n)
            e_arr = np.fromiter((iv.end for iv in ivs), np.float64, count=n)
            d_arr = None
            if any(d != 1 for _, d in pairs):
                d_arr = np.fromiter((d for _, d in pairs), np.float64, count=n)
            times, point, seg, dpoint, dseg, measure = profile_arrays(
                s_arr, e_arr, d_arr
            )
            prof._times = times
            prof._point = point
            prof._seg = seg
            prof._dpoint = dpoint
            prof._dseg = dseg
            prof._count = n
            prof._measure = measure
            return prof
        _, _, times, point, seg, measure = _rank_counts(
            [iv.start for iv in ivs], [iv.end for iv in ivs]
        )
        prof._times = times
        prof._point = point
        prof._seg = seg
        prof._count = len(ivs)
        prof._measure = measure
        if any(d != 1 for _, d in pairs):
            # Demand-weighted rank counting: prefix sums of demands over the
            # endpoint lists replace the plain ranks above.
            wstarts = sorted((iv.start, d) for iv, d in pairs)
            wends = sorted((iv.end, d) for iv, d in pairs)
            s_coords = [c for c, _ in wstarts]
            e_coords = [c for c, _ in wends]
            s_cum = [0]
            for _, d in wstarts:
                s_cum.append(s_cum[-1] + d)
            e_cum = [0]
            for _, d in wends:
                e_cum.append(e_cum[-1] + d)
            prof._dpoint = [
                s_cum[bisect_right(s_coords, t)] - e_cum[bisect_left(e_coords, t)]
                for t in times
            ]
            dseg = [
                s_cum[bisect_right(s_coords, t)] - e_cum[bisect_right(e_coords, t)]
                for t in times
            ]
            dseg[-1] = 0
            prof._dseg = dseg
        return prof

    def copy(self) -> "SweepProfile":
        """An independent snapshot of the current state (O(k) array copies)."""
        prof = SweepProfile()
        prof._times = self._times[:]
        prof._point = self._point[:]
        prof._seg = self._seg[:]
        prof._dpoint = None if self._dpoint is None else self._dpoint[:]
        prof._dseg = None if self._dseg is None else self._dseg[:]
        prof._count = self._count
        prof._measure = self._measure
        return prof

    # -- aggregates -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of intervals currently stored."""
        return self._count

    @property
    def measure(self) -> float:
        """``span`` of the stored intervals — the machine's busy time."""
        return self._measure

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        """The sorted breakpoint coordinates (includes stale ones after remove)."""
        return tuple(self._times)

    def is_empty(self) -> bool:
        return self._count == 0

    # -- mutation -------------------------------------------------------------

    def _ensure_breakpoint(self, t: float) -> int:
        """Make ``t`` a breakpoint (splitting the segment it lands in)."""
        times = self._times
        i = bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return i
        # A new breakpoint strictly inside an existing segment inherits that
        # segment's coverage for both its point load and the right half of
        # the split; at either end of the profile nothing covers it.
        inside = 0 < i < len(times)
        cover = self._seg[i - 1] if inside else 0
        times.insert(i, t)
        self._point.insert(i, cover)
        self._seg.insert(i, cover)
        if self._dpoint is not None:
            dcover = self._dseg[i - 1] if inside else 0
            self._dpoint.insert(i, dcover)
            self._dseg.insert(i, dcover)
        return i

    def _upgrade_to_weighted(self) -> None:
        """Materialise the demand-weighted arrays (all prior demands were 1)."""
        self._dpoint = self._point[:]
        self._dseg = self._seg[:]

    def add(self, start: float, end: float, demand: int = 1) -> None:
        """Insert the closed interval ``[start, end]`` into the profile.

        ``demand`` is the interval's capacity demand in the [15] model; the
        default 1 is the rigid case and touches only the cardinality arrays.
        """
        if end < start:
            raise ValueError(f"interval end ({end}) precedes start ({start})")
        if demand != 1 and self._dpoint is None:
            self._upgrade_to_weighted()
        lo = self._ensure_breakpoint(start)
        hi = self._ensure_breakpoint(end)  # inserting end never shifts lo
        point, seg, times = self._point, self._seg, self._times
        for k in range(lo, hi + 1):
            point[k] += 1
        gained = 0.0
        for k in range(lo, hi):
            if seg[k] == 0:
                gained += times[k + 1] - times[k]
            seg[k] += 1
        if self._dpoint is not None:
            dpoint, dseg = self._dpoint, self._dseg
            for k in range(lo, hi + 1):
                dpoint[k] += demand
            for k in range(lo, hi):
                dseg[k] += demand
        self._measure += gained
        self._count += 1

    def remove(self, start: float, end: float, demand: int = 1) -> None:
        """Remove a previously :meth:`add`-ed interval (for backtracking).

        ``demand`` must match the value the interval was added with (jobs
        carry their demand, so callers route the same number both ways).
        Breakpoints are kept (possibly at zero coverage); only the counters
        and the maintained measure shrink.
        """
        times = self._times
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        if (
            lo >= len(times)
            or hi >= len(times)
            or times[lo] != start
            or times[hi] != end
        ):
            raise KeyError(f"interval [{start}, {end}] was never added")
        if demand != 1 and self._dpoint is None:
            raise KeyError(
                f"interval [{start}, {end}] with demand {demand} was never "
                f"added (profile holds only unit demands)"
            )
        point, seg = self._point, self._seg
        for k in range(lo, hi + 1):
            point[k] -= 1
        lost = 0.0
        for k in range(lo, hi):
            seg[k] -= 1
            if seg[k] == 0:
                lost += times[k + 1] - times[k]
        if self._dpoint is not None:
            dpoint, dseg = self._dpoint, self._dseg
            for k in range(lo, hi + 1):
                dpoint[k] -= demand
            for k in range(lo, hi):
                dseg[k] -= demand
        self._measure -= lost
        self._count -= 1

    # -- queries --------------------------------------------------------------

    def load_at(self, t: float) -> int:
        """Number of stored intervals active at instant ``t`` (closed)."""
        times = self._times
        i = bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return self._point[i]
        if 0 < i < len(times):
            return self._seg[i - 1]
        return 0

    def max_load(self) -> int:
        """Peak load over all time — the clique number of the stored set."""
        return max(self._point, default=0)

    def max_load_in(self, start: float, end: float) -> int:
        """Maximum load over the closed window ``[start, end]``.

        The load function only increases at breakpoints, so the maximum is
        ``max(load_at(start), max(point[i] for start <= t_i <= end))``.
        """
        times = self._times
        lo = bisect_left(times, start)
        best = 0
        if not (lo < len(times) and times[lo] == start) and 0 < lo < len(times):
            best = self._seg[lo - 1]  # window starts inside a segment
        hi = bisect_right(times, end) - 1
        if hi >= lo:
            window_max = max(self._point[lo : hi + 1])
            if window_max > best:
                best = window_max
        return best

    def saturated_runs(
        self, start: float, end: float, g: int
    ) -> Tuple[List[float], List[float]]:
        """The maximal closed runs of ``[start, end]`` where the load is at least ``g``.

        Returned as two sorted lists, the runs' starts and their ends; a
        run may be a single instant.  Since ``seg[i] <= min(point[i],
        point[i+1])``, the instants at load ``g`` or more form closed runs
        whose ends are breakpoints or the window's edges, so one pass over
        the breakpoints inside the window finds them.  In the rigid model a
        job ``[s, e]`` fits under ``g`` exactly when it meets none of the
        runs of the whole line (:meth:`ScheduleBuilder.fits
        <busytime.core.schedule.ScheduleBuilder.fits>` keeps them per
        machine).
        """
        times, point, seg = self._times, self._point, self._seg
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        starts: List[float] = []
        ends: List[float] = []
        # A window starting inside a saturated segment opens a run at once.
        run = (
            start
            if 0 < lo < len(times) and times[lo] != start and seg[lo - 1] >= g
            else None
        )
        for k in range(lo, hi):
            if run is None:
                if point[k] < g:
                    continue
                run = times[k]
            if seg[k] < g:
                starts.append(run)
                ends.append(times[k])
                run = None
        if run is not None:
            starts.append(run)
            ends.append(end)
        return starts, ends

    def covered_measure_in(self, start: float, end: float) -> float:
        """Measure of ``[start, end]`` covered by at least one stored interval.

        The marginal busy-time growth of adding ``[start, end]`` to the
        machine is ``(end - start) - covered_measure_in(start, end)`` —
        the query behind BestFit-style placement policies.
        """
        times, seg = self._times, self._seg
        n = len(times) - 1
        if n < 1 or end <= start:
            return 0.0
        k = bisect_right(times, start) - 1
        if k < 0:
            k = 0
        total = 0.0
        while k < n and times[k] < end:
            if seg[k] > 0:
                lo = times[k] if times[k] > start else start
                hi = times[k + 1] if times[k + 1] < end else end
                if hi > lo:
                    total += hi - lo
            k += 1
        return total

    # -- demand-weighted queries ([15] capacity model) ------------------------

    @property
    def has_demands(self) -> bool:
        """True once any stored interval carried a non-unit demand."""
        return self._dpoint is not None

    def demand_at(self, t: float) -> int:
        """Total demand of the stored intervals active at instant ``t``."""
        if self._dpoint is None:
            return self.load_at(t)
        times = self._times
        i = bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return self._dpoint[i]
        if 0 < i < len(times):
            return self._dseg[i - 1]
        return 0

    def max_demand(self) -> int:
        """Peak total demand over all time (== :meth:`max_load` when unit)."""
        if self._dpoint is None:
            return self.max_load()
        return max(self._dpoint, default=0)

    def max_demand_in(self, start: float, end: float) -> int:
        """Maximum total demand over the closed window ``[start, end]``.

        The demand-weighted twin of :meth:`max_load_in`; identical to it
        while only unit demands are stored.
        """
        if self._dpoint is None:
            return self.max_load_in(start, end)
        times = self._times
        lo = bisect_left(times, start)
        best = 0
        if not (lo < len(times) and times[lo] == start) and 0 < lo < len(times):
            best = self._dseg[lo - 1]  # window starts inside a segment
        hi = bisect_right(times, end) - 1
        if hi >= lo:
            window_max = max(self._dpoint[lo : hi + 1])
            if window_max > best:
                best = window_max
        return best

    def fits(self, start: float, end: float, g: int, demand: int = 1) -> bool:
        """True when adding ``[start, end]`` keeps the peak demand at most ``g``.

        This is the FirstFit/NextFit feasibility predicate: only instants
        inside the new job's window can become overloaded, so the test is
        ``max_demand_in(start, end) <= g - demand``.  While the profile holds
        only unit demands and the new interval has demand 1 — the rigid
        model — this is exactly the seed's cardinality check
        (``max_load_in(start, end) <= g - 1``) with an O(1) fast path when
        fewer than ``g`` intervals are stored at all.
        """
        if self._dpoint is None and demand == 1:
            if self._count < g:
                return True
            return self.max_load_in(start, end) < g
        return self.max_demand_in(start, end) + demand <= g

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SweepProfile(count={self._count}, measure={self._measure:g}, "
            f"breakpoints={len(self._times)})"
        )
