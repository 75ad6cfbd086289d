"""Exact optimum by exhaustive partition enumeration (tiny instances only).

The busy-time problem is NP-hard already for ``g = 2`` (Winkler & Zhang,
cited as [19] in the paper), so no polynomial exact algorithm is expected.
The experiment harness nevertheless needs *true* optima to measure
approximation ratios on small instances and to cross-validate the
branch-and-bound solver.  This module enumerates all set partitions of the
job set (restricted-growth-string order), filters infeasible ones, and
returns a best feasible partition.

Complexity is the Bell number ``B(n)``; keep ``n`` at 12 or below.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..core.instance import Instance
from ..core.intervals import Job, max_point_load, span
from ..core.schedule import Machine, Schedule

__all__ = ["brute_force_optimum", "iter_set_partitions"]

_MAX_BRUTE_FORCE_N = 13


def iter_set_partitions(items: Sequence) -> Iterator[List[List]]:
    """All set partitions of ``items`` (restricted growth string enumeration)."""
    n = len(items)
    if n == 0:
        yield []
        return
    # a[i] = block index of item i; valid strings satisfy a[i] <= 1 + max(a[:i])
    a = [0] * n
    while True:
        num_blocks = max(a) + 1
        blocks: List[List] = [[] for _ in range(num_blocks)]
        for idx, block in enumerate(a):
            blocks[block].append(items[idx])
        yield blocks
        # advance to next restricted growth string
        i = n - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
            i -= 1
        else:
            return


def brute_force_optimum(instance: Instance) -> Schedule:
    """The exact optimum schedule of a tiny instance.

    Raises
    ------
    ValueError
        if the instance has more than 13 jobs (Bell(14) ≈ 1.9e8 partitions).
    """
    if instance.n > _MAX_BRUTE_FORCE_N:
        raise ValueError(
            f"brute force limited to {_MAX_BRUTE_FORCE_N} jobs, got {instance.n}; "
            "use branch_and_bound_optimum instead"
        )
    if instance.n == 0:
        return Schedule(instance=instance, machines=(), algorithm="brute_force")

    g = instance.g
    best_cost = float("inf")
    best_blocks: Optional[List[List[Job]]] = None
    for blocks in iter_set_partitions(list(instance.jobs)):
        feasible = True
        cost = 0.0
        for block in blocks:
            if max_point_load(block) > g:
                feasible = False
                break
            cost += span(block)
            if cost >= best_cost:
                feasible = False
                break
        if feasible and cost < best_cost:
            best_cost = cost
            best_blocks = [list(b) for b in blocks]

    assert best_blocks is not None  # every instance has the singleton partition
    machines = tuple(
        Machine(index=i, jobs=tuple(block)) for i, block in enumerate(best_blocks)
    )
    return Schedule(
        instance=instance,
        machines=machines,
        algorithm="brute_force",
        meta={"optimal": True},
    )
