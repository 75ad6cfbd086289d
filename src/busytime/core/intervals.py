"""Interval and job primitives (Definitions 1.1 and 1.2 of the paper).

The paper models every job :math:`J_j` as a closed interval
:math:`[s_j, c_j]` on the real line along which the job *must* be processed
(no slack, no preemption).  Two quantities defined on intervals and sets of
intervals drive the whole analysis:

``len``
    the length of a single interval, :math:`c - s`, extended additively to a
    set of intervals (Definition 1.1);

``span``
    the measure of the union of a set of intervals,
    :math:`span(\\mathcal{I}) = len(\\cup \\mathcal{I})` (Definition 1.2).

``span(I) <= len(I)`` always holds, with equality exactly when the intervals
are pairwise disjoint — this is Observation-level material in the paper and
is exercised heavily by the property-based tests.

This module contains only plain, immutable value objects and pure functions;
all algorithmic content lives in :mod:`busytime.algorithms`.

The point-load helpers here (:func:`point_load`, :func:`max_point_load`,
:func:`span`) recompute their answer from scratch on every call.  That is
deliberate: they are the brute-force reference against which the
incrementally maintained :class:`busytime.core.events.SweepProfile`
machine state — the hot-path answer to the same questions — is
cross-checked by the property-based tests.  ``verify_schedule`` runs the
same closed-interval sweep on flat endpoint columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Interval",
    "Job",
    "check_interval_fields",
    "check_job_fields",
    "length",
    "total_length",
    "total_demand_length",
    "union_intervals",
    "span",
    "intervals_overlap",
    "interval_contains",
    "properly_contains",
    "merge_intervals",
    "point_load",
    "max_point_load",
    "point_demand",
    "max_point_demand",
]


def check_interval_fields(start: float, end: float) -> None:
    """Refuse what :class:`Interval` refuses: a NaN endpoint, or ``end < start``.

    The one copy of the rule: ``Interval`` runs it on construction and the
    instance-document parser (:func:`busytime.io.instance_rows_from_dict`)
    runs it on each job row without building the object.
    """
    if math.isnan(start) or math.isnan(end):
        raise ValueError("interval endpoints must not be NaN")
    if end < start:
        raise ValueError(f"interval end ({end}) must not precede start ({start})")


def check_job_fields(
    start: float,
    end: float,
    weight: float,
    demand: int,
    release: Optional[float],
    deadline: Optional[float],
) -> None:
    """Refuse what :class:`Job` refuses of a job placed at ``[start, end]``.

    A non-positive weight, a demand that is not an integer ``>= 1``, and a
    NaN window bound or one that does not contain ``[start, end]``, checked
    in that order.  The endpoints themselves are
    :func:`check_interval_fields`' business.  Like that function, this is
    the one copy of the rules, shared by ``Job`` and the row parser.
    """
    if weight <= 0:
        raise ValueError("job weight must be positive")
    if isinstance(demand, bool) or not isinstance(demand, int):
        raise ValueError(
            f"job demand must be an integer (capacity units), got {demand!r}"
        )
    if demand < 1:
        raise ValueError(f"job demand must be >= 1, got {demand}")
    if release is not None:
        if math.isnan(release):
            raise ValueError("job release must not be NaN")
        if release > start:
            raise ValueError(
                f"job release ({release}) must not exceed the placed "
                f"start ({start})"
            )
    if deadline is not None:
        if math.isnan(deadline):
            raise ValueError("job deadline must not be NaN")
        if deadline < end:
            raise ValueError(
                f"job deadline ({deadline}) must not precede the "
                f"placed end ({end})"
            )


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[start, end]`` on the real line.

    Ordering is lexicographic on ``(start, end)`` which is convenient both
    for the proper-interval greedy (sort by start time) and for canonical
    output.

    Raises
    ------
    ValueError
        if ``end < start`` (zero-length intervals are allowed; the Fig. 4
        construction and the Bounded_Length analysis use degenerate busy
        intervals of length zero).
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        check_interval_fields(self.start, self.end)

    @property
    def length(self) -> float:
        """``len(I) = end - start`` (Definition 1.1)."""
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two closed intervals share at least one point.

        Closed-interval semantics match the paper: two jobs that merely touch
        at an endpoint *do* conflict (both are "active" at the shared
        instant), which is what the clique/parallelism constraint counts.
        """
        return self.start <= other.end and other.start <= self.end

    def overlaps_openly(self, other: "Interval") -> bool:
        """True when the two intervals share an interval of positive length."""
        return self.start < other.end and other.start < self.end

    def contains_point(self, t: float) -> bool:
        """True when ``t`` lies inside the closed interval."""
        return self.start <= t <= self.end

    def contains(self, other: "Interval") -> bool:
        """True when ``other`` is (not necessarily properly) contained in ``self``."""
        return self.start <= other.start and other.end <= self.end

    def properly_contains(self, other: "Interval") -> bool:
        """True when ``other ⊂ self`` with at least one strict endpoint.

        Proper-interval instances (Section 3.1) are exactly those with no
        properly contained pair.
        """
        return self.contains(other) and (
            self.start < other.start or other.end < self.end
        )

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """The overlap of the two intervals, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval containing both (the busy interval of the pair)."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def shifted(self, delta: float) -> "Interval":
        """A copy translated by ``delta``."""
        return Interval(self.start + delta, self.end + delta)

    def scaled(self, factor: float) -> "Interval":
        """A copy with both endpoints multiplied by ``factor`` (must be ≥ 0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Interval(self.start * factor, self.end * factor)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.start, self.end)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start:g}, {self.end:g}]"


@dataclass(frozen=True)
class Job:
    """A job: an interval plus an identifier and optional metadata.

    Parameters
    ----------
    id:
        Any hashable identifier; generators use consecutive integers, the
        optical reduction uses the originating lightpath id.
    interval:
        The processing window ``[s_j, c_j]``.
    weight:
        Unused by the paper's objective but carried through for downstream
        cost accounting; defaults to 1.
    tag:
        Free-form label used by generators and the optical reduction.
    demand:
        Machine-capacity demand ``s_j`` in the follow-up model of [15]
        (Khandekar–Schieber–Shachnai–Tamir): a machine may host any job set
        whose *total demand* at each instant is at most ``g``.  Demands are
        integral capacity units so the feasibility counters stay exact; the
        default ``1`` degenerates to the paper's cardinality constraint.
    release / deadline:
        An optional flex window: the job may be *placed* anywhere inside
        ``[release, deadline]`` (so ``length <= deadline - release``).
        ``interval`` is always the job's *placed* position — algorithms
        slide a job by building a copy via :meth:`placed_at`.  ``None``
        (the default) pins the corresponding side to the placed interval,
        so a job with neither field set is the paper's fixed job — the
        degenerate window ``[start, end]``.
    """

    id: int
    interval: Interval
    weight: float = 1.0
    tag: str = ""
    demand: int = 1
    release: Optional[float] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        check_job_fields(
            self.interval.start,
            self.interval.end,
            self.weight,
            self.demand,
            self.release,
            self.deadline,
        )

    @property
    def start(self) -> float:
        return self.interval.start

    @property
    def end(self) -> float:
        return self.interval.end

    @property
    def length(self) -> float:
        return self.interval.length

    @property
    def window_release(self) -> float:
        """The earliest feasible start (the placed start for fixed jobs)."""
        return self.interval.start if self.release is None else self.release

    @property
    def window_deadline(self) -> float:
        """The latest feasible completion (the placed end for fixed jobs)."""
        return self.interval.end if self.deadline is None else self.deadline

    @property
    def has_window(self) -> bool:
        """True when the window admits more than one placement."""
        if self.release is None and self.deadline is None:
            return False
        return self.window_deadline - self.window_release > self.length

    def window(self) -> Interval:
        """The flex window ``[release, deadline]`` as an interval."""
        return Interval(self.window_release, self.window_deadline)

    def placed_at(self, new_start: float, tol: float = 1e-9) -> "Job":
        """A copy placed at ``new_start`` (same id, length, window, metadata).

        The requested position is clamped into the window when it is
        within ``tol`` of a boundary (candidate starts like
        ``deadline - length`` are derived arithmetic), and rejected when
        genuinely outside.
        """
        if not self.has_window:
            if new_start == self.interval.start:
                return self
            raise ValueError(f"job {self.id} is fixed; cannot place at {new_start}")
        lo = self.window_release
        hi = self.window_deadline - self.length
        if new_start < lo - tol or new_start > hi + tol:
            raise ValueError(
                f"start {new_start} outside window [{lo}, {hi}] of job {self.id}"
            )
        start = min(max(new_start, lo), hi)
        end = start + self.length
        if self.deadline is not None and end > self.deadline:
            # (deadline - length) + length can overshoot deadline by one
            # ulp; snap to the boundary rather than fail validation.
            end = self.deadline
        return Job(
            id=self.id,
            interval=Interval(start, end),
            weight=self.weight,
            tag=self.tag,
            demand=self.demand,
            release=self.release,
            deadline=self.deadline,
        )

    def mandatory_interval(self) -> Optional["Interval"]:
        """The times the job occupies under *every* feasible placement.

        A job of length ``l`` in window ``[r, d]`` is busy throughout
        ``[d - l, r + l]`` whenever that interval is non-degenerate
        (i.e. slack < length); fixed jobs return their interval exactly.
        Window-aware lower bounds integrate demand over mandatory parts —
        the windowed analogue of the paper's ``N_t`` counting.
        """
        if not self.has_window:
            return self.interval
        lo = self.window_deadline - self.length
        hi = self.window_release + self.length
        if lo > hi:
            return None
        return Interval(lo, hi)

    def overlaps(self, other: "Job") -> bool:
        return self.interval.overlaps(other.interval)

    def active_at(self, t: float) -> bool:
        return self.interval.contains_point(t)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"J{self.id}{self.interval}"


# ---------------------------------------------------------------------------
# Pure functions on intervals / jobs (Definitions 1.1, 1.2)
# ---------------------------------------------------------------------------


def _as_interval(obj) -> Interval:
    """Accept either an :class:`Interval` or a :class:`Job`."""
    if isinstance(obj, Job):
        return obj.interval
    if isinstance(obj, Interval):
        return obj
    raise TypeError(f"expected Interval or Job, got {type(obj).__name__}")


def length(obj) -> float:
    """``len`` of a single interval or job (Definition 1.1)."""
    return _as_interval(obj).length


def total_length(items: Iterable) -> float:
    """``len`` of a set of intervals/jobs: the sum of individual lengths."""
    return sum(_as_interval(it).length for it in items)


def union_intervals(items: Iterable) -> List[Interval]:
    """The union of a set of intervals as a sorted list of disjoint intervals.

    Touching intervals (one ends exactly where the next starts) are merged,
    matching the closed-interval semantics used throughout.
    """
    ivs = sorted((_as_interval(it) for it in items), key=lambda iv: (iv.start, iv.end))
    merged: List[Interval] = []
    for iv in ivs:
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, iv.end)
        else:
            merged.append(iv)
    return merged


def merge_intervals(items: Iterable) -> List[Interval]:
    """Alias of :func:`union_intervals` (kept for readability at call sites)."""
    return union_intervals(items)


def span(items: Iterable) -> float:
    """``span(I) = len(∪ I)`` (Definition 1.2).

    The busy time of a machine equals the span of the jobs assigned to it
    (once the w.l.o.g. contiguity argument of Section 1.1 is applied — our
    cost accounting uses the union measure directly, which is exactly the
    total busy time after splitting a machine at its idle gaps).
    """
    return sum(iv.length for iv in union_intervals(items))


def intervals_overlap(a, b) -> bool:
    """True when the two intervals/jobs share at least one point."""
    return _as_interval(a).overlaps(_as_interval(b))


def interval_contains(outer, inner) -> bool:
    """True when ``inner`` is contained in ``outer``."""
    return _as_interval(outer).contains(_as_interval(inner))


def properly_contains(outer, inner) -> bool:
    """True when ``inner`` is properly contained in ``outer``."""
    return _as_interval(outer).properly_contains(_as_interval(inner))


def point_load(items: Sequence, t: float) -> int:
    """Number of intervals/jobs active at time ``t`` (the paper's ``N_t``)."""
    return sum(1 for it in items if _as_interval(it).contains_point(t))


def _demand_of(obj) -> int:
    """The capacity demand of an item: ``Job.demand``, or 1 for bare intervals."""
    return obj.demand if isinstance(obj, Job) else 1


def total_demand_length(items: Iterable) -> float:
    """Demand-weighted length ``sum_j len(J_j) * s_j`` (the [15] work volume).

    With unit demands this reduces bit-for-bit to :func:`total_length`
    (``len * 1`` is exact and the summation order is identical).
    """
    return sum(_as_interval(it).length * _demand_of(it) for it in items)


def point_demand(items: Sequence, t: float) -> int:
    """Total demand of the intervals/jobs active at time ``t``.

    The demand-weighted counterpart of :func:`point_load`; equal to it on
    unit-demand sets.
    """
    return sum(
        _demand_of(it) for it in items if _as_interval(it).contains_point(t)
    )


def max_point_demand(items: Sequence) -> int:
    """Peak total demand over all time (the [15] capacity constraint's LHS).

    The demand-weighted counterpart of :func:`max_point_load`, computed by
    the same closed-interval endpoint sweep (starts before ends at equal
    coordinates); equal to it on unit-demand sets.  The brute-force
    reference for the demand-aware machine feasibility check, which
    ``verify_schedule`` runs as the same sweep on endpoint columns.
    """
    events: List[Tuple[float, int, int]] = []
    for it in items:
        iv = _as_interval(it)
        d = _demand_of(it)
        events.append((iv.start, 0, d))
        events.append((iv.end, 1, d))
    events.sort(key=lambda e: (e[0], e[1]))
    load = best = 0
    for _, kind, d in events:
        if kind == 0:
            load += d
            if load > best:
                best = load
        else:
            load -= d
    return best


def max_point_load(items: Sequence) -> int:
    """The maximum number of simultaneously active intervals.

    For an interval set this equals the clique number of the induced interval
    graph (Helly property of intervals), computed here by a left-to-right
    sweep over endpoint events.  Closed-interval semantics: an interval that
    starts exactly when another ends counts as overlapping, so start events
    are processed before end events at equal coordinates.
    """
    events: List[Tuple[float, int]] = []
    for it in items:
        iv = _as_interval(it)
        # start events get priority 0, end events priority 1 so that at a
        # shared coordinate the start is counted before the end is released.
        events.append((iv.start, 0))
        events.append((iv.end, 1))
    events.sort()
    load = best = 0
    for _, kind in events:
        if kind == 0:
            load += 1
            best = max(best, load)
        else:
            load -= 1
    return best
