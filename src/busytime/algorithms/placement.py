"""Placement-aware scheduling: flex windows, site capacity, tariffs.

Two algorithms extend the paper's *packing* view (fixed intervals, pick a
machine) to the *placement* view of the flex model (pick a start time
inside ``[release, deadline]`` too, under a time-varying tariff and a
site-wide capacity cap):

``placement_first_fit``
    FirstFit in the paper's longest-first order, but each job tries a
    small deterministic set of candidate starts — the window edges plus
    positions aligned to the tariff's band boundaries — cheapest tariff
    price first, lowest machine index per candidate.  On zero-slack
    instances the candidate set collapses to the nominal start and the
    decisions (order, fits queries, machine indices) are exactly
    :func:`~busytime.algorithms.first_fit.first_fit`'s.

``tariff_local_search``
    starts from ``placement_first_fit`` and greedily applies strict-
    improvement *slide-within-window* and *reassign* moves (including
    onto a freshly opened machine, which can pay off under activation
    pricing or a strongly banded tariff) until a fixed point or the
    round budget.  Deterministic: jobs in id order, candidates in
    (price, start) order, machines in index order.

Both receive the request's resolved cost model through
:meth:`~busytime.algorithms.base.Scheduler.schedule_under` — the tariff
travels on the model, not the instance — and neither claims a proven
ratio: the fixed-interval guarantees do not transfer to an optimum that
may slide jobs (see ``AlgorithmInfo.window_aware``).

``anchor_first_fit``
    the fix-then-pack structure of the follow-up work [15]
    (Khandekar–Schieber–Shachnai–Tamir), which proves a 5-approximation
    by fixing start times first and then running FirstFit.  Phase 1,
    :func:`anchor_starts`, fixes each start to least grow the union of
    the jobs fixed so far; phase 2 is the paper's longest-first FirstFit
    over the placed jobs.  The fixing rule differs from [15]'s, so no
    ratio is claimed; on a fixed-job instance it is
    :func:`~busytime.algorithms.first_fit.first_fit`.  Unlike the two
    above it is not registered, so it joins no portfolio.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.instance import Instance
from ..core.intervals import Interval, Job, max_point_demand, span, union_intervals
from ..core.objectives import CostModel
from ..core.schedule import InfeasibleScheduleError, Schedule, ScheduleBuilder
from ..pricing.series import TariffSeries
from .base import FunctionScheduler, register_scheduler
from .first_fit import first_fit_order

__all__ = [
    "candidate_starts",
    "place_first_fit",
    "anchor_starts",
    "anchor_first_fit",
    "tariff_local_search",
    "PlacementFirstFitScheduler",
    "TariffLocalSearchScheduler",
]

#: Strict-improvement threshold for local-search moves: deltas closer to
#: zero than this are treated as ties (float noise), keeping the search a
#: finite descent.
IMPROVEMENT_EPS = 1e-9

#: Default bound on full improvement rounds of the local search.
MAX_ROUNDS = 6

#: :func:`anchor_starts` tries the window edges plus ``ANCHOR_RESOLUTION - 1``
#: evenly spaced starts between them.
ANCHOR_RESOLUTION = 8


def _tariff_of(model: Optional[CostModel]) -> Optional[TariffSeries]:
    """The placement-relevant tariff of a model, or None when flat.

    A constant tariff prices every start identically, so for *placement*
    purposes it is indistinguishable from no tariff at all.
    """
    if model is None or model.tariff is None or model.tariff.is_constant:
        return None
    return model.tariff


def candidate_starts(
    job: Job,
    tariff: Optional[TariffSeries],
    extra_points: Sequence[float] = (),
) -> List[float]:
    """The deterministic candidate start positions for one job.

    Window edges always; under a banded tariff additionally the positions
    that align the job's start or end with a band boundary inside the
    window (clamped to feasible starts), and likewise for any
    ``extra_points`` — the background-load breakpoints, where site
    capacity jumps.  A fixed job has exactly its nominal start.  Some
    optimal placement always uses one of these positions for an isolated
    job — sliding inside a band changes nothing until an endpoint crosses
    a boundary.
    """
    if not job.has_window:
        return [job.interval.start]
    earliest = job.window_release
    latest = job.window_deadline - job.length
    cands = {earliest, latest}
    boundaries = list(tariff.breakpoints) if tariff is not None else []
    boundaries.extend(extra_points)
    for b in boundaries:
        if earliest < b < job.window_deadline:
            cands.add(min(max(b, earliest), latest))
            cands.add(min(max(b - job.length, earliest), latest))
    return sorted(cands)


def _extra_points(instance: Instance) -> Tuple[float, ...]:
    """Alignment points beyond the tariff: background-load breakpoints."""
    if instance.background is None:
        return ()
    return tuple(instance.background.breakpoints)


def _placements(
    job: Job,
    tariff: Optional[TariffSeries],
    extra_points: Sequence[float] = (),
) -> List[Job]:
    """Candidate placements of ``job``, cheapest tariff price first.

    Ties break on start time (earliest wins), so without a banded tariff
    this is simply earliest-first.
    """
    out: List[Tuple[float, float, Job]] = []
    for s in candidate_starts(job, tariff, extra_points):
        placed = job.placed_at(s) if job.has_window else job
        price = (
            tariff.integrate(placed.start, placed.end) if tariff is not None else 0.0
        )
        out.append((price, placed.start, placed))
    out.sort(key=lambda t: (t[0], t[1]))
    return [p for _, _, p in out]


def place_first_fit(
    instance: Instance, model: Optional[CostModel] = None
) -> Schedule:
    """Placement-aware FirstFit (see module docstring).

    Raises :class:`~busytime.core.schedule.InfeasibleScheduleError` when
    the site-wide capacity cap admits no candidate placement of some job
    even on a fresh machine (a cap can make instances genuinely
    infeasible).
    """
    tariff = _tariff_of(model)
    extras = _extra_points(instance)
    builder = ScheduleBuilder(instance, algorithm="placement_first_fit")
    order = first_fit_order(instance.jobs)
    for job in order:
        placements = _placements(job, tariff, extras)
        assigned = False
        for placed in placements:
            idx = builder.first_fitting_machine(placed)
            if idx is not None:
                builder.assign(idx, placed)
                assigned = True
                break
        if not assigned:
            for placed in placements:
                if builder.site_fits(placed):
                    builder.assign(builder.open_machine(), placed)
                    assigned = True
                    break
        if not assigned:
            raise InfeasibleScheduleError(
                f"no placement of job {job.id} fits under the site capacity "
                f"cap {instance.site_capacity}"
            )
    builder.meta["processing_order"] = [j.id for j in order]
    return builder.freeze()


# ---------------------------------------------------------------------------
# Fix-then-pack ([15])
# ---------------------------------------------------------------------------


def anchor_starts(instance: Instance) -> Dict[int, float]:
    """Phase 1 of fix-then-pack: a start inside its window for every job.

    Jobs are anchored in non-increasing order of ``length * demand`` (big
    rocks first; ties by release, then id).  Each takes the candidate
    start that least grows the union of the jobs anchored so far, the
    earliest candidate on ties.  Candidates are the window edges, the
    evenly spaced starts of :data:`ANCHOR_RESOLUTION`, and the starts that
    align either end of the job with either end of a union segment.  A
    fixed job keeps its interval.
    """
    starts: Dict[int, float] = {}
    anchored: List[Interval] = []
    order = sorted(
        instance.jobs, key=lambda j: (-(j.length * j.demand), j.window_release, j.id)
    )
    for job in order:
        earliest = job.window_release
        best_start = earliest
        if job.has_window:
            latest = job.window_deadline - job.length
            candidates = {earliest, latest}
            for k in range(1, ANCHOR_RESOLUTION):
                candidates.add(earliest + (latest - earliest) * k / ANCHOR_RESOLUTION)
            for seg in anchored:
                for anchor in (
                    seg.start,
                    seg.end - job.length,
                    seg.end,
                    seg.start - job.length,
                ):
                    if earliest - 1e-12 <= anchor <= latest + 1e-12:
                        candidates.add(min(max(anchor, earliest), latest))
            best_growth = float("inf")
            base = span(anchored)
            for candidate in sorted(candidates):
                growth = span(anchored + [job.placed_at(candidate).interval]) - base
                if growth < best_growth - 1e-12:
                    best_growth = growth
                    best_start = candidate
        starts[job.id] = best_start
        anchored = union_intervals(anchored + [job.placed_at(best_start).interval])
    return starts


def anchor_first_fit(instance: Instance) -> Schedule:
    """Fix-then-pack: :func:`anchor_starts`, then longest-first FirstFit."""
    starts = anchor_starts(instance)
    builder = ScheduleBuilder(instance, algorithm="anchor_first_fit")
    for job in first_fit_order([j.placed_at(starts[j.id]) for j in instance.jobs]):
        builder.assign_first_fit(job)
    return builder.freeze()


# ---------------------------------------------------------------------------
# Tariff-aware local search
# ---------------------------------------------------------------------------


def _busy_measure(jobs: Sequence[Job], tariff: Optional[TariffSeries]) -> float:
    """The (tariff-priced) busy measure of one machine's job list."""
    total = 0.0
    for iv in union_intervals(jobs):
        if tariff is None:
            total += iv.length
        else:
            total += tariff.integrate(iv.start, iv.end)
    return total


def _machine_cost(
    jobs: Sequence[Job], model: CostModel, tariff: Optional[TariffSeries]
) -> float:
    """Full model cost of one machine (0 when empty)."""
    if not jobs:
        return 0.0
    return model.machine_cost(_busy_measure(jobs, tariff))


def _machine_feasible(jobs: Sequence[Job], extra: Job, g: int) -> bool:
    return max_point_demand(list(jobs) + [extra]) <= g


def _site_feasible(
    machines: Sequence[Sequence[Job]], extra: Job, instance: Instance
) -> bool:
    """Oracle site check for a candidate move (all placed jobs + background)."""
    if instance.site_capacity is None:
        return True
    items: List[Job] = [j for m in machines for j in m]
    items.append(extra)
    if instance.background is not None:
        fake = -1
        for lo, hi, level in instance.background.bands():
            items.append(Job(id=fake, interval=Interval(lo, hi), demand=level))
            fake -= 1
    return max_point_demand(items) <= instance.site_capacity


def tariff_local_search(
    instance: Instance,
    model: Optional[CostModel] = None,
    max_rounds: int = MAX_ROUNDS,
) -> Schedule:
    """Slide-within-window + reassign local search (see module docstring)."""
    resolved = model if model is not None else CostModel()
    tariff = _tariff_of(resolved)
    extras = _extra_points(instance)
    base = place_first_fit(instance, model)
    if not instance.has_windows and tariff is None:
        # Nothing to slide and every machine choice is price-flat; the
        # first-fit placement is already the fixed point this search reaches.
        return base
    machines: List[List[Job]] = [list(m.jobs) for m in base.machines]
    costs: List[float] = [_machine_cost(m, resolved, tariff) for m in machines]
    job_ids = sorted(j.id for j in instance.jobs)

    def locate(job_id: int) -> Tuple[int, int]:
        for mi, mjobs in enumerate(machines):
            for pos, j in enumerate(mjobs):
                if j.id == job_id:
                    return mi, pos
        raise KeyError(job_id)

    rounds = 0
    improved = True
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for job_id in job_ids:
            mi, pos = locate(job_id)
            current = machines[mi][pos]
            rest = machines[mi][:pos] + machines[mi][pos + 1 :]
            rest_cost = _machine_cost(rest, resolved, tariff)
            release_gain = costs[mi] - rest_cost
            # Candidate targets: every existing machine (with the job
            # removed from its own) plus one fresh machine.
            best_delta = 0.0
            best_move: Optional[Tuple[int, Job]] = None
            others = [rest if k == mi else machines[k] for k in range(len(machines))]
            for placed in _placements(current, tariff, extras):
                if not _site_feasible(others, placed, instance):
                    continue
                for k in range(len(machines) + 1):
                    target = others[k] if k < len(machines) else []
                    if k == mi and placed.interval == current.interval:
                        continue
                    if not _machine_feasible(target, placed, instance.g):
                        continue
                    target_cost = rest_cost if k == mi else costs[k] if k < len(machines) else 0.0
                    with_cost = _machine_cost(list(target) + [placed], resolved, tariff)
                    delta = (with_cost - target_cost) - release_gain
                    if delta < best_delta - IMPROVEMENT_EPS:
                        best_delta = delta
                        best_move = (k, placed)
            if best_move is not None:
                k, placed = best_move
                machines[mi] = rest
                costs[mi] = rest_cost
                if k == len(machines):
                    machines.append([placed])
                    costs.append(_machine_cost([placed], resolved, tariff))
                else:
                    machines[k] = machines[k] + [placed]
                    costs[k] = _machine_cost(machines[k], resolved, tariff)
                improved = True

    builder = ScheduleBuilder(instance, algorithm="tariff_local_search")
    for mjobs in machines:
        if mjobs:
            idx = builder.open_machine()
            for j in mjobs:
                builder.assign(idx, j)
    builder.meta["rounds"] = rounds
    builder.meta["start_algorithm"] = "placement_first_fit"
    return builder.freeze()


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


class _ModelAwareScheduler(FunctionScheduler):
    """A FunctionScheduler whose function accepts the resolved cost model."""

    def schedule_under(self, instance: Instance, model=None) -> Schedule:
        return self._func(instance, model)

    def handles(self, instance: Instance, objective: str = "busy_time") -> bool:
        # Flex-only: on a rigid instance every placement degenerates to
        # plain FirstFit, so joining the rigid portfolio would only re-run
        # the same schedule under a different name (and change portfolio
        # histories/timings the rigid paths pin bit for bit).
        return instance.is_flex and super().handles(instance, objective)


PlacementFirstFitScheduler = _ModelAwareScheduler(
    place_first_fit,
    name="placement_first_fit",
    approximation_ratio=None,
    instance_class="general",
    paper_section="flex extension",
    instance_classes=("general",),
    selection_priority=45,
    supported_objectives=(
        "busy_time",
        "weighted_busy_time",
        "machines_plus_busy",
        "tariff_busy_time",
    ),
    demand_aware=True,
    window_aware=True,
    tariff_aware=True,
)

TariffLocalSearchScheduler = _ModelAwareScheduler(
    tariff_local_search,
    name="tariff_local_search",
    approximation_ratio=None,
    instance_class="general",
    paper_section="flex extension",
    instance_classes=("general",),
    anytime=True,
    selection_priority=50,
    supported_objectives=(
        "busy_time",
        "weighted_busy_time",
        "machines_plus_busy",
        "tariff_busy_time",
    ),
    demand_aware=True,
    window_aware=True,
    tariff_aware=True,
)

register_scheduler(PlacementFirstFitScheduler)
register_scheduler(TariffLocalSearchScheduler)
