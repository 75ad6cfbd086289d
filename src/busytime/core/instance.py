"""Problem instances: a set of jobs plus the parallelism parameter ``g``.

An :class:`Instance` bundles the job set :math:`\\mathcal{J}` with the
parallelism (grooming) parameter :math:`g \\ge 1` and exposes the structural
queries the algorithms and the analysis need:

* classification (proper / clique / laminar / bounded-length / connected),
* connected components of the induced interval graph (the paper assumes
  w.l.o.g. a connected instance; the solvers split on components),
* the ``len``/``span`` aggregates of Definition 1.1/1.2,
* canonical construction helpers (from raw tuples, from jobs, re-indexing).

Instances are immutable once built; algorithms never mutate their input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..pricing.series import BackgroundLoad
from .intervals import (
    Interval,
    Job,
    check_interval_fields,
    check_job_fields,
    max_point_demand,
    max_point_load,
    point_demand,
    point_load,
    span,
    total_demand_length,
    total_length,
    union_intervals,
)

__all__ = ["Instance", "InstanceRows", "check_instance_fields", "connected_components"]


def _build_jobs(intervals: Iterable, g: int) -> Tuple[Job, ...]:
    jobs: List[Job] = []
    for idx, item in enumerate(intervals):
        if isinstance(item, Job):
            jobs.append(item)
        elif isinstance(item, Interval):
            jobs.append(Job(id=idx, interval=item))
        elif isinstance(item, tuple) and len(item) == 2:
            jobs.append(Job(id=idx, interval=Interval(float(item[0]), float(item[1]))))
        else:
            raise TypeError(
                "instance items must be Job, Interval or (start, end) tuples; "
                f"got {item!r}"
            )
    return tuple(jobs)


def check_instance_fields(
    g: int,
    ids: Sequence,
    demands: Sequence[int],
    site_capacity: Optional[int] = None,
    background: Optional[BackgroundLoad] = None,
) -> None:
    """Refuse what :class:`Instance` refuses of its fields, in its order.

    ``g < 1``, duplicate job ids, a demand above ``g``, a ``site_capacity``
    that is not an integer ``>= 1`` or is below a demand, and a
    ``background`` that is not a :class:`BackgroundLoad`.  ``ids`` and
    ``demands`` are the job columns in job order.  The one copy of the
    rules: ``Instance``, :class:`InstanceRows` and the row parser
    (:func:`busytime.io.instance_rows_from_dict`) run it.
    """
    if g < 1:
        raise ValueError(f"parallelism parameter g must be >= 1, got {g}")
    if len(set(ids)) != len(ids):
        raise ValueError("job ids must be unique within an instance")
    if max(demands, default=1) > g:
        for job_id, demand in zip(ids, demands):
            if demand > g:
                raise ValueError(
                    f"job {job_id} demands {demand} capacity units but g = "
                    f"{g}; such a job can never be scheduled"
                )
    if site_capacity is not None:
        if isinstance(site_capacity, bool) or not isinstance(site_capacity, int):
            raise ValueError(f"site_capacity must be an integer, got {site_capacity!r}")
        if site_capacity < 1:
            raise ValueError(f"site_capacity must be >= 1, got {site_capacity}")
        if max(demands, default=1) > site_capacity:
            for job_id, demand in zip(ids, demands):
                if demand > site_capacity:
                    raise ValueError(
                        f"job {job_id} demands {demand} units but the site "
                        f"capacity cap is {site_capacity}; such a job can "
                        "never be scheduled"
                    )
    if background is not None and not isinstance(background, BackgroundLoad):
        raise ValueError(
            f"background must be a BackgroundLoad, got {type(background).__name__}"
        )


@dataclass(frozen=True)
class Instance:
    """An immutable busy-time scheduling instance ``(J, g)``.

    Parameters
    ----------
    jobs:
        The job set.  Construct via :meth:`from_intervals` or pass
        :class:`~busytime.core.intervals.Job` objects directly.
    g:
        Parallelism parameter: the maximum number of jobs a machine may
        process simultaneously.  Must be ≥ 1.
    name:
        Optional label used by generators and experiment reports.
    site_capacity:
        Optional site-wide capacity cap: the total demand of *all* running
        jobs across every machine, plus the background load, must stay at
        or below this at every instant (FlexMeasures' site power limit).
        ``None`` means unconstrained.
    background:
        Optional inflexible :class:`~busytime.pricing.series.BackgroundLoad`
        pre-occupying site capacity.  Only meaningful together with
        ``site_capacity``; it never counts against a single machine's ``g``.
    """

    jobs: Tuple[Job, ...]
    g: int
    name: str = ""
    site_capacity: Optional[int] = None
    background: Optional[BackgroundLoad] = None

    # -- construction -------------------------------------------------------

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, tuple):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        check_instance_fields(
            self.g,
            [j.id for j in self.jobs],
            [j.demand for j in self.jobs],
            self.site_capacity,
            self.background,
        )

    def _memo(self, key: str, compute):
        """Cache a structural query on this (immutable) instance.

        The engine's selection policies probe the same classifications
        (properness, clique number, length ratio) once per registered
        algorithm; memoising keeps that O(n log n) work to once per instance.
        Safe because instances are frozen and the cache bypasses dataclass
        equality/repr (it lives in ``__dict__``, not in the fields).
        """
        try:
            return self.__dict__[key]
        except KeyError:
            value = compute()
            object.__setattr__(self, key, value)
            return value

    @classmethod
    def from_intervals(
        cls,
        intervals: Iterable,
        g: int,
        name: str = "",
    ) -> "Instance":
        """Build an instance from ``(start, end)`` tuples, Intervals or Jobs."""
        return cls(jobs=_build_jobs(intervals, g), g=g, name=name)

    def with_g(self, g: int) -> "Instance":
        """A copy of this instance with a different parallelism parameter."""
        return Instance(
            jobs=self.jobs,
            g=g,
            name=self.name,
            site_capacity=self.site_capacity,
            background=self.background,
        )

    def restricted_to(self, job_ids: Iterable[int], name: str = "") -> "Instance":
        """The sub-instance induced by the given job ids (same ``g``)."""
        wanted = set(job_ids)
        sub = tuple(j for j in self.jobs if j.id in wanted)
        missing = wanted - {j.id for j in sub}
        if missing:
            raise KeyError(f"unknown job ids: {sorted(missing)}")
        return Instance(
            jobs=sub,
            g=self.g,
            name=name or self.name,
            site_capacity=self.site_capacity,
            background=self.background,
        )

    # -- basic accessors -----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def job_by_id(self, job_id: int) -> Job:
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(f"no job with id {job_id}")

    @property
    def job_ids(self) -> Tuple[int, ...]:
        return tuple(j.id for j in self.jobs)

    # -- aggregates (Definitions 1.1 / 1.2) ----------------------------------

    @property
    def total_length(self) -> float:
        """``len(J)``: sum of job lengths."""
        return total_length(self.jobs)

    @property
    def span(self) -> float:
        """``span(J)``: measure of the union of all job intervals."""
        return span(self.jobs)

    @property
    def horizon(self) -> Tuple[float, float]:
        """Earliest start and latest completion over all jobs."""
        if not self.jobs:
            return (0.0, 0.0)
        return (min(j.start for j in self.jobs), max(j.end for j in self.jobs))

    def load_at(self, t: float) -> int:
        """Number of jobs active at time ``t`` (``N_t`` in Theorem 3.1's proof)."""
        return point_load(self.jobs, t)

    def demand_at(self, t: float) -> int:
        """Total capacity demand of the jobs active at time ``t``."""
        return point_demand(self.jobs, t)

    @property
    def clique_number(self) -> int:
        """Maximum number of simultaneously active jobs (interval-graph ω)."""
        return self._memo("_clique_number", lambda: max_point_load(self.jobs))

    # -- demand model ([15]) -------------------------------------------------

    @property
    def has_demands(self) -> bool:
        """True when any job carries a non-unit capacity demand."""
        return self._memo(
            "_has_demands", lambda: any(j.demand != 1 for j in self.jobs)
        )

    # -- flex extension (windows / site capacity) ----------------------------

    @property
    def has_windows(self) -> bool:
        """True when any job's window admits more than one placement."""
        return self._memo(
            "_has_windows", lambda: any(j.has_window for j in self.jobs)
        )

    @property
    def has_site_constraints(self) -> bool:
        """True when a site-wide capacity cap or background load applies."""
        return self.site_capacity is not None or self.background is not None

    @property
    def is_flex(self) -> bool:
        """True when the instance leaves the paper's fixed-interval model
        (windows, a site cap, or background load)."""
        return self.has_windows or self.has_site_constraints

    @property
    def max_demand(self) -> int:
        """Largest single-job capacity demand (1 for rigid instances)."""
        return max((j.demand for j in self.jobs), default=1)

    @property
    def peak_demand(self) -> int:
        """Peak total demand over all time (== ``clique_number`` when unit).

        The demand-weighted clique number: an instance fits on a single
        machine exactly when ``peak_demand <= g``.  Unit-demand instances
        delegate to the :attr:`clique_number` memo — the two sweeps compute
        the same number, so the structural shortcut and the classifiers
        share one O(n log n) pass.
        """
        if not self.has_demands:
            return self.clique_number
        return self._memo("_peak_demand", lambda: max_point_demand(self.jobs))

    @property
    def total_demand_length(self) -> float:
        """Demand-weighted work volume ``sum_j len(J_j) * s_j``.

        Equals :attr:`total_length` bit-for-bit on unit-demand instances;
        the [15] generalisation of the parallelism bound divides this by
        ``g``.
        """
        return total_demand_length(self.jobs)

    @property
    def max_length(self) -> float:
        return max((j.length for j in self.jobs), default=0.0)

    @property
    def min_length(self) -> float:
        return min((j.length for j in self.jobs), default=0.0)

    # -- classification ------------------------------------------------------

    def is_proper(self) -> bool:
        """True when no job interval is properly contained in another.

        Such instances induce *proper interval graphs* and admit the
        2-approximation of Section 3.1.  The check runs in ``O(n log n)``:
        after removing duplicate intervals, two intervals sharing a start
        point are a containment, and with all starts distinct the instance is
        proper exactly when the completion times are strictly increasing in
        start-time order (the paper uses this fact in Section 3.1: sorting by
        start time also sorts by completion time).
        """
        return self._memo("_is_proper", self._compute_is_proper)

    def _compute_is_proper(self) -> bool:
        unique = sorted({(j.start, j.end) for j in self.jobs})
        for i in range(1, len(unique)):
            if unique[i][0] == unique[i - 1][0]:
                # same start, different (larger) end -> proper containment
                return False
        running_max_end = float("-inf")
        for _, end in unique:
            if end <= running_max_end:
                return False
            running_max_end = end
        return True

    def is_clique(self) -> bool:
        """True when every pair of job intervals intersects.

        By the Helly property of intervals this is equivalent to all jobs
        sharing a common point:  max of starts <= min of ends.
        """
        if not self.jobs:
            return True
        return self._memo(
            "_is_clique",
            lambda: max(j.start for j in self.jobs) <= min(j.end for j in self.jobs),
        )

    def common_point(self) -> Optional[float]:
        """A point contained in every job interval, if one exists."""
        if not self.jobs:
            return None
        lo = max(j.start for j in self.jobs)
        hi = min(j.end for j in self.jobs)
        if lo > hi:
            return None
        return lo

    def is_laminar(self) -> bool:
        """True when every two job intervals are disjoint or nested.

        Laminar families are one of the special cases highlighted by the
        follow-up work cited in Section 1.3; the classifier is provided for
        completeness and used by the dispatcher.
        """
        return self._memo("_is_laminar", self._compute_is_laminar)

    def _compute_is_laminar(self) -> bool:
        jobs = sorted(self.jobs, key=lambda j: (j.start, -j.end))
        stack: List[Job] = []
        for j in jobs:
            # Laminarity is judged with *open*-overlap semantics: intervals
            # that merely touch at an endpoint are treated as disjoint, which
            # is the standard definition of a laminar family.
            while stack and stack[-1].end <= j.start:
                stack.pop()
            if stack and j.end > stack[-1].end:
                return False  # overlapping but not nested
            stack.append(j)
        return True

    def length_ratio(self) -> float:
        """Ratio between the longest and shortest job length (``d`` in §3.2).

        Returns ``inf`` when some job has zero length but another does not,
        and 1.0 for empty instances.
        """
        if not self.jobs:
            return 1.0
        return self._memo("_length_ratio", self._compute_length_ratio)

    def _compute_length_ratio(self) -> float:
        longest = self.max_length
        shortest = self.min_length
        if shortest == 0:
            return float("inf") if longest > 0 else 1.0
        return longest / shortest

    def is_bounded_length(self, d: float) -> bool:
        """True when every job length lies in ``[1, d]`` after normalising
        the shortest job to length 1 (the Section 3.2 regime)."""
        return self.length_ratio() <= d

    def is_connected(self) -> bool:
        """True when the induced interval graph is connected."""
        return len(connected_components(self)) <= 1

    def classify(self) -> str:
        """A coarse label used by the dispatcher and by experiment reports."""
        if self.is_clique():
            return "clique"
        if self.is_proper():
            return "proper"
        if self.is_laminar():
            return "laminar"
        return "general"

    # -- misc ----------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A plain-dict snapshot used by reports and logs."""
        out: Dict[str, object] = {
            "name": self.name,
            "n": self.n,
            "g": self.g,
            "span": self.span,
            "total_length": self.total_length,
            "clique_number": self.clique_number,
            "class": self.classify(),
        }
        if self.has_demands:
            out["max_demand"] = self.max_demand
            out["peak_demand"] = self.peak_demand
        if self.has_windows:
            out["windowed_jobs"] = sum(1 for j in self.jobs if j.has_window)
        if self.site_capacity is not None:
            out["site_capacity"] = self.site_capacity
        if self.background is not None:
            out["background_peak"] = self.background.max_level
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "instance"
        return f"{label}(n={self.n}, g={self.g})"


class InstanceRows:
    """An instance as flat per-job columns, in document order.

    This is what :func:`busytime.io.instance_rows_from_dict` parses a
    ``busytime-instance`` document into: one list per job field (``ids``,
    ``starts``, ``ends``, ``weights``, ``tags``, ``demands``, and
    ``releases``/``deadlines``, which are ``None`` when no job sets that
    field) plus the instance fields.  The service canonicalizes,
    fingerprints and answers cache hits from these columns alone;
    :meth:`to_instance` builds the :class:`Instance` where objects are
    needed.  The columns hold exactly the values the :class:`Job` objects
    would, and the constructor refuses (with ``ValueError``) what
    ``Interval``, ``Job`` and ``Instance`` refuse, through the same check
    functions, so rows always describe a valid instance.
    """

    __slots__ = (
        "g", "name", "ids", "starts", "ends", "weights", "tags", "demands",
        "releases", "deadlines", "site_capacity", "background", "_source",
    )

    def __init__(
        self,
        g: int,
        name: str,
        ids: List[int],
        starts: List[float],
        ends: List[float],
        weights: List[float],
        tags: List[str],
        demands: List[int],
        releases: Optional[List[Optional[float]]] = None,
        deadlines: Optional[List[Optional[float]]] = None,
        site_capacity: Optional[int] = None,
        background: Optional[BackgroundLoad] = None,
    ) -> None:
        n = len(ids)
        columns = [starts, ends, weights, tags, demands]
        columns += [column for column in (releases, deadlines) if column is not None]
        if any(len(column) != n for column in columns):
            raise ValueError("every job column must hold one entry per job")
        unset = [None] * n
        for start, end, weight, demand, release, deadline in zip(
            starts, ends, weights, demands, releases or unset, deadlines or unset
        ):
            check_interval_fields(start, end)
            check_job_fields(start, end, weight, demand, release, deadline)
        check_instance_fields(g, ids, demands, site_capacity, background)
        self._hold(
            g, name, ids, starts, ends, weights, tags, demands,
            releases, deadlines, site_capacity, background,
        )

    @classmethod
    def _checked(cls, *fields) -> "InstanceRows":
        """Rows from fields already checked, in constructor order.

        For the row parser, which checks each row as it reads it so that a
        document's first fault is the one refused, and for
        :meth:`from_instance`, whose instance checked itself.
        """
        rows = cls.__new__(cls)
        rows._hold(*fields)
        return rows

    def _hold(
        self, g, name, ids, starts, ends, weights, tags, demands,
        releases, deadlines, site_capacity, background,
    ) -> None:
        self.g = g
        self.name = name
        self.ids = ids
        self.starts = starts
        self.ends = ends
        self.weights = weights
        self.tags = tags
        self.demands = demands
        self.releases = releases
        self.deadlines = deadlines
        self.site_capacity = site_capacity
        self.background = background
        self._source: Optional[Instance] = None

    @classmethod
    def from_instance(cls, instance: Instance, keep: bool = True) -> "InstanceRows":
        """The columns of ``instance``; :meth:`to_instance` returns it as is.

        With ``keep=False`` the rows hold no reference to ``instance``, so
        they pin no job objects (the result store keeps rows like that).
        """
        jobs = instance.jobs
        releases = deadlines = None
        if any(j.release is not None for j in jobs):
            releases = [j.release for j in jobs]
        if any(j.deadline is not None for j in jobs):
            deadlines = [j.deadline for j in jobs]
        rows = cls._checked(
            instance.g,
            instance.name,
            [j.id for j in jobs],
            [j.start for j in jobs],
            [j.end for j in jobs],
            [j.weight for j in jobs],
            [j.tag for j in jobs],
            [j.demand for j in jobs],
            releases,
            deadlines,
            instance.site_capacity,
            instance.background,
        )
        if keep:
            rows._source = instance
        return rows

    def to_instance(self) -> Instance:
        """The :class:`Instance` these rows describe.

        Built afresh on every call (nothing is memoized, so rows kept by a
        finished service job never pin job objects), except for rows taken
        from an instance, which return that instance.
        """
        if self._source is not None:
            return self._source
        releases = self.releases or [None] * self.n
        deadlines = self.deadlines or [None] * self.n
        return Instance(
            jobs=tuple(
                Job(
                    id=job_id,
                    interval=Interval(start, end),
                    weight=weight,
                    tag=tag,
                    demand=demand,
                    release=release,
                    deadline=deadline,
                )
                for job_id, start, end, weight, tag, demand, release, deadline in zip(
                    self.ids, self.starts, self.ends, self.weights, self.tags,
                    self.demands, releases, deadlines,
                )
            ),
            g=self.g,
            name=self.name,
            site_capacity=self.site_capacity,
            background=self.background,
        )

    def job(self, position: int) -> Job:
        """The :class:`Job` in row ``position``."""
        return Job(
            id=self.ids[position],
            interval=Interval(self.starts[position], self.ends[position]),
            weight=self.weights[position],
            tag=self.tags[position],
            demand=self.demands[position],
            release=None if self.releases is None else self.releases[position],
            deadline=None if self.deadlines is None else self.deadlines[position],
        )

    @property
    def n(self) -> int:
        return len(self.ids)

    def window(self, position: int) -> Optional[Tuple[float, float]]:
        """The effective ``(release, deadline)`` of a windowed job, else ``None``.

        ``None`` exactly when :attr:`Job.has_window` is false: the window
        admits only the job's own interval.
        """
        release = None if self.releases is None else self.releases[position]
        deadline = None if self.deadlines is None else self.deadlines[position]
        if release is None and deadline is None:
            return None
        start, end = self.starts[position], self.ends[position]
        lo = start if release is None else release
        hi = end if deadline is None else deadline
        return (lo, hi) if hi - lo > end - start else None

    @property
    def has_demands(self) -> bool:
        return any(d != 1 for d in self.demands)

    @property
    def has_windows(self) -> bool:
        if self.releases is None and self.deadlines is None:
            return False
        return any(self.window(p) is not None for p in range(self.n))

    @property
    def has_site_constraints(self) -> bool:
        return self.site_capacity is not None or self.background is not None

    @property
    def is_flex(self) -> bool:
        return self.has_windows or self.has_site_constraints


def as_rows(source) -> InstanceRows:
    """``source`` as :class:`InstanceRows` (an :class:`Instance` is converted)."""
    return source if isinstance(source, InstanceRows) else InstanceRows.from_instance(source)


def connected_components(instance: Instance) -> List[Instance]:
    """Split an instance into the connected components of its interval graph.

    The paper assumes w.l.o.g. that the interval graph is connected
    (Section 1.4); an optimal solution never mixes jobs from different
    components on one machine (splitting such a machine can only reduce cost),
    so every solver first decomposes into components.

    Components are computed by a sweep over the union of the job intervals:
    jobs whose intervals fall into the same maximal union segment form one
    component (touching intervals are considered overlapping, matching the
    closed-interval conflict semantics).

    Flex instances are *not* split: a windowed job may slide out of its
    nominal union segment, and a site-wide capacity cap couples components
    that are time-disjoint only at their nominal placements — either breaks
    the never-mix-components optimality argument, so such instances are
    returned whole.
    """
    if not instance.jobs:
        return []
    if instance.is_flex:
        return [instance]
    segments = union_intervals(instance.jobs)
    buckets: List[List[Job]] = [[] for _ in segments]
    # Segments are sorted and disjoint; binary search for the segment whose
    # start is <= job.start.
    starts = [seg.start for seg in segments]
    import bisect

    for job in instance.jobs:
        idx = bisect.bisect_right(starts, job.start) - 1
        buckets[idx].append(job)
    out = []
    for k, bucket in enumerate(buckets):
        if bucket:
            out.append(
                Instance(
                    jobs=tuple(bucket),
                    g=instance.g,
                    name=f"{instance.name or 'instance'}#cc{k}",
                )
            )
    return out
