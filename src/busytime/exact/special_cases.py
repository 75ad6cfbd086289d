"""Exact polynomial-time solvers for special cases.

Two regimes of the problem are polynomial and are used both as fast OPT
references in experiments and as sanity oracles in the test suite:

* ``g = 1``: a machine processes one job at a time, so the jobs assigned to
  one machine are pairwise disjoint and the machine's busy time equals the
  sum of their lengths.  Consequently *every* feasible schedule costs exactly
  ``len(J)``; the singleton assignment is returned as a canonical optimum.

* disjoint instances (no two jobs overlap): any assignment packing at most
  ``g`` pairwise-disjoint jobs per machine has cost ``>= len(J)`` and putting
  each job alone (or all on one machine — same cost) achieves it.

* machine-count minimisation (Section 1.1 remark): the *number* of machines
  is minimised in polynomial time by colouring the interval graph with
  ``omega`` colours and bundling ``g`` colour classes per machine.  This is
  exposed here because it doubles as an exact solver for the "minimum number
  of machines" objective, and reused by the baselines module.
"""

from __future__ import annotations

import math
from typing import List

from ..core.instance import Instance
from ..core.intervals import Job
from ..core.schedule import Machine, Schedule
from ..graphs.interval_graph import greedy_interval_coloring

__all__ = [
    "solve_unit_parallelism",
    "solve_disjoint",
    "minimize_machine_count",
    "optimal_cost_if_polynomial",
]


def solve_unit_parallelism(instance: Instance) -> Schedule:
    """Exact optimum for ``g = 1`` (cost is forced to ``len(J)``)."""
    if instance.g != 1:
        raise ValueError("solve_unit_parallelism requires g == 1")
    machines = tuple(
        Machine(index=i, jobs=(job,)) for i, job in enumerate(instance.jobs)
    )
    return Schedule(
        instance=instance,
        machines=machines,
        algorithm="exact_g1",
        meta={"optimal": True},
    )


def solve_disjoint(instance: Instance) -> Schedule:
    """Exact optimum when no two jobs overlap (cost forced to ``len(J)``)."""
    if instance.clique_number > 1:
        raise ValueError("solve_disjoint requires pairwise-disjoint jobs")
    machines = tuple(
        Machine(index=i, jobs=(job,)) for i, job in enumerate(instance.jobs)
    )
    return Schedule(
        instance=instance,
        machines=machines,
        algorithm="exact_disjoint",
        meta={"optimal": True},
    )


def minimize_machine_count(instance: Instance) -> Schedule:
    """Minimum-*machine-count* schedule (Section 1.1): ``ceil(omega / g)`` machines.

    Colour the interval graph with ``omega`` colours, then place every ``g``
    consecutive colour classes on one machine.  The resulting schedule is
    feasible and uses the minimum possible number of machines; its *busy
    time*, however, can be far from optimal — experiment E9 quantifies that
    gap.
    """
    if instance.n == 0:
        return Schedule(instance=instance, machines=(), algorithm="machine_min")
    coloring = greedy_interval_coloring(instance.jobs)
    num_colors = max(coloring.values()) + 1
    num_machines = math.ceil(num_colors / instance.g)
    blocks: List[List[Job]] = [[] for _ in range(num_machines)]
    for job in instance.jobs:
        blocks[coloring[job.id] // instance.g].append(job)
    machines = tuple(
        Machine(index=i, jobs=tuple(b)) for i, b in enumerate(blocks) if b
    )
    return Schedule(
        instance=instance,
        machines=machines,
        algorithm="machine_min",
        meta={"min_machine_count": True, "chromatic_number": num_colors},
    )


def optimal_cost_if_polynomial(instance: Instance):
    """Return the exact optimal cost when a polynomial special case applies.

    Returns ``None`` when the instance is not covered by a polynomial case
    (callers then fall back to branch and bound or to lower bounds).
    """
    if instance.g == 1:
        return instance.total_length
    if instance.clique_number <= 1:
        return instance.total_length
    if instance.peak_demand <= instance.g:
        # All jobs fit on a single machine (total demand never exceeds g;
        # with unit demands this is the clique-number check); that machine's
        # span is span(J), which matches the span lower bound, hence optimal.
        return instance.span
    return None
