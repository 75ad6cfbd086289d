"""Local-search post-optimisation of schedules.

The paper's algorithms are one-shot constructions chosen for their provable
worst-case factors; a practical deployment would follow them with a cheap
improvement pass.  This module provides one that preserves every guarantee
(it never increases the cost and never breaks feasibility), so
``improve(first_fit(inst))`` is still a 4-approximation — usually a visibly
better one.

Two move types are applied until a local optimum or the iteration budget is
reached:

* **relocate** — move a single job to another machine when that strictly
  decreases the sum of the two machines' busy times;
* **machine merge** — move *all* jobs of one machine onto another when the
  combined set is feasible; this can only help (the union's span is at most
  the sum of the spans) and empties a machine;
* **swap** — exchange one job between two machines when both stay feasible
  and the summed busy time strictly decreases.

Note that even with swaps the neighbourhood is limited: the Fig. 4 FirstFit
schedule of Theorem 2.4 is a *local optimum* of all three move types (every
improving rearrangement requires moving several jobs at once), so local
search does not invalidate the paper's lower-bound family — the test suite
pins that fact down.

Moves are evaluated exactly (span recomputed from the affected machines
only), so the cost reported after the pass is exact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.instance import Instance
from ..core.intervals import Interval, Job, max_point_load, span
from ..core.schedule import Machine, Schedule
from .base import FunctionScheduler, register_scheduler
from .first_fit import first_fit

__all__ = ["improve", "local_search_first_fit", "LocalSearchResult"]


def _feasible(jobs: List[Job], g: int) -> bool:
    return max_point_load(jobs) <= g


def _fits_with(existing: List[Job], job: Job, g: int) -> bool:
    clipped: List[Interval] = []
    for other in existing:
        inter = other.interval.intersection(job.interval)
        if inter is not None:
            clipped.append(inter)
    if len(clipped) < g:
        return True
    return max_point_load(clipped) <= g - 1


class LocalSearchResult:
    """Bookkeeping returned in the improved schedule's ``meta``."""

    def __init__(self) -> None:
        self.relocations = 0
        self.merges = 0
        self.swaps = 0
        self.rounds = 0
        self.initial_cost = 0.0
        self.final_cost = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "relocations": self.relocations,
            "merges": self.merges,
            "swaps": self.swaps,
            "rounds": self.rounds,
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
        }


def improve(
    schedule: Schedule,
    max_rounds: int = 50,
    tolerance: float = 1e-9,
) -> Schedule:
    """Improve a feasible schedule by relocations and machine merges.

    Every move keeps the machines it touches within ``g``, so a feasible
    input yields a feasible result that costs at most as much.  Neither the
    input nor the result is verified here: like every algorithm's output,
    the result is checked where it is handed on (``Engine.solve``, the
    racer).  It carries the original algorithm name suffixed with ``+ls``
    plus the move statistics in ``meta['local_search']``.
    """
    g = schedule.instance.g
    machines: List[List[Job]] = [list(m.jobs) for m in schedule.machines]
    stats = LocalSearchResult()
    stats.initial_cost = schedule.total_busy_time

    improved = True
    while improved and stats.rounds < max_rounds:
        improved = False
        stats.rounds += 1

        # --- machine merges -------------------------------------------------
        for src in range(len(machines)):
            if not machines[src]:
                continue
            for dst in range(len(machines)):
                if src == dst or not machines[dst]:
                    continue
                combined = machines[dst] + machines[src]
                if not _feasible(combined, g):
                    continue
                before = span(machines[src]) + span(machines[dst])
                after = span(combined)
                if after <= before - tolerance:
                    machines[dst] = combined
                    machines[src] = []
                    stats.merges += 1
                    improved = True
                    break

        # --- single-job relocations ------------------------------------------
        for src in range(len(machines)):
            if not machines[src]:
                continue
            for job in list(machines[src]):
                rest = [j for j in machines[src] if j.id != job.id]
                src_before = span(machines[src])
                src_after = span(rest)
                gain_from_src = src_before - src_after
                if gain_from_src <= tolerance:
                    continue  # removing the job does not shrink the source
                best_dst: Optional[int] = None
                best_delta = -tolerance
                for dst in range(len(machines)):
                    if dst == src or not machines[dst]:
                        continue
                    if not _fits_with(machines[dst], job, g):
                        continue
                    dst_before = span(machines[dst])
                    dst_after = span(machines[dst] + [job])
                    delta = gain_from_src - (dst_after - dst_before)
                    if delta > best_delta + tolerance:
                        best_delta = delta
                        best_dst = dst
                if best_dst is not None and best_delta > tolerance:
                    machines[src] = rest
                    machines[best_dst] = machines[best_dst] + [job]
                    stats.relocations += 1
                    improved = True

        # --- pairwise swaps ----------------------------------------------------
        for a_idx in range(len(machines)):
            if not machines[a_idx]:
                continue
            for b_idx in range(a_idx + 1, len(machines)):
                if not machines[b_idx]:
                    continue
                before = span(machines[a_idx]) + span(machines[b_idx])
                done_with_pair = False
                for job_a in list(machines[a_idx]):
                    if done_with_pair:
                        break
                    for job_b in list(machines[b_idx]):
                        new_a = [j for j in machines[a_idx] if j.id != job_a.id] + [job_b]
                        new_b = [j for j in machines[b_idx] if j.id != job_b.id] + [job_a]
                        if not _feasible(new_a, g) or not _feasible(new_b, g):
                            continue
                        after = span(new_a) + span(new_b)
                        if after <= before - tolerance:
                            machines[a_idx] = new_a
                            machines[b_idx] = new_b
                            stats.swaps += 1
                            improved = True
                            done_with_pair = True
                            break

    final_machines = tuple(
        Machine(index=i, jobs=tuple(jobs))
        for i, jobs in enumerate(m for m in machines if m)
    )
    stats.final_cost = sum(span(m.jobs) for m in final_machines)
    result = Schedule(
        instance=schedule.instance,
        machines=final_machines,
        algorithm=(schedule.algorithm + "+ls") if schedule.algorithm else "local_search",
        meta={**dict(schedule.meta), "local_search": stats.as_dict()},
    )
    # Local search must never make things worse.
    assert result.total_busy_time <= schedule.total_busy_time + 1e-6
    return result


def local_search_first_fit(instance: Instance) -> Schedule:
    """FirstFit followed by the improvement pass (still a 4-approximation)."""
    return improve(first_fit(instance))


# Not demand-aware: the move evaluation (`_feasible` / `_fits_with`) counts
# job cardinality, so an improving move could overload a capacity-g machine
# under non-unit demands; the selection policies keep demand instances away.
register_scheduler(
    FunctionScheduler(
        local_search_first_fit,
        name="first_fit_ls",
        approximation_ratio=4.0,
        instance_class="general",
        paper_section="Section 2 + post-optimisation",
        anytime=True,
        selection_priority=90,
        portfolio_member=False,
        supported_objectives=("busy_time", "weighted_busy_time", "tariff_busy_time"),
    )
)
