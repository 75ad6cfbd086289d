"""Exact optimum via branch and bound.

The search assigns jobs one at a time (in non-decreasing start order, which
keeps partial machine spans tight) either to one of the already-opened
machines that can still accommodate them or to a single fresh machine
(opening "the" new machine rather than any of infinitely many symmetric
copies breaks machine-relabelling symmetry).

Pruning uses three valid lower bounds on the cost of any completion of a
partial assignment:

* the sum of the spans of the currently opened machines (spans only grow);
* the global parallelism bound ``len(J)/g``;
* the global span bound ``span(J)``;
* additionally, the *remaining-length* bound: the unassigned jobs contribute
  at least ``len(unassigned)/g`` busy time, of which at most the currently
  opened machines' "free capacity" under their existing spans can be
  absorbed for free; we use the conservative variant
  ``max(committed, committed + (len(unassigned) - g * overlap_allowance)/g)``
  where the overlap allowance is the total span of opened machines times g
  minus the length already assigned to them.

An optional initial upper bound (e.g. a FirstFit schedule's cost) makes the
search considerably faster; callers that have one should pass it.

Per-machine state is an incrementally maintained
:class:`~busytime.core.events.SweepProfile`: pushing/popping a job during the
depth-first search updates the machine's load profile, busy time (span) and
assigned length in ``O(log k + w)``, so the feasibility test and both terms
of the lower bound are read off the maintained state instead of re-clipping
and re-sorting the machine's job list at every node.

Practical limit: roughly 18–22 jobs depending on structure and ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.bounds import combined_bound
from ..core.events import SweepProfile
from ..core.instance import Instance, connected_components
from ..core.intervals import Job, span
from ..core.schedule import Machine, Schedule

__all__ = ["branch_and_bound_optimum", "BranchAndBoundStats"]


@dataclass
class BranchAndBoundStats:
    """Search statistics reported in the schedule's ``meta``."""

    nodes_explored: int = 0
    nodes_pruned: int = 0
    incumbent_updates: int = 0


class _Searcher:
    def __init__(self, instance: Instance, initial_upper_bound: Optional[float]):
        self.instance = instance
        self.g = instance.g
        self.jobs: List[Job] = sorted(
            instance.jobs, key=lambda j: (j.start, j.end, j.id)
        )
        self.n = len(self.jobs)
        self.global_lb = combined_bound(instance)
        # The incumbent starts just *above* the supplied upper bound so that a
        # completion matching the bound exactly is still found (pruning uses a
        # strict "not better" test); the returned schedule is optimal either way.
        self.best_cost = (
            float("inf")
            if initial_upper_bound is None
            else float(initial_upper_bound) * (1.0 + 1e-12) + 1e-9
        )
        self.best_assignment: Optional[List[int]] = None
        self.stats = BranchAndBoundStats()
        # machine state stacks: one sweep profile + assigned-length counter
        # per opened machine, updated incrementally on push/pop.  Lengths are
        # demand-weighted (len * s_j): a machine of capacity g absorbs at
        # most g * span demand-weighted length, which is what the
        # free-capacity bound charges against.
        self.profiles: List[SweepProfile] = []
        self.machine_len: List[float] = []
        self.assignment: List[int] = [-1] * self.n
        # suffix_len[i] = demand-weighted length of jobs[i:], for bounding
        self.suffix_len: List[float] = [0.0] * (self.n + 1)
        for i in range(self.n - 1, -1, -1):
            self.suffix_len[i] = (
                self.suffix_len[i + 1]
                + self.jobs[i].length * self.jobs[i].demand
            )

    # -- bounding -------------------------------------------------------------

    # The maintained measures can carry ~1e-15 relative float drift after
    # push/pop cycles (removal subtracts segment lengths at a possibly finer
    # breakpoint granularity than addition credited them).  Incumbents are
    # therefore confirmed by an exact span recompute, and the prune test
    # keeps this much slack so drift can never cut the optimal branch.
    _DRIFT_GUARD = 1e-9

    def _committed_cost(self) -> float:
        return sum(p.measure for p in self.profiles)

    def _exact_cost(self) -> float:
        """Exact cost of the complete assignment (span per machine block)."""
        blocks: List[List[Job]] = [[] for _ in self.profiles]
        for pos, m_idx in enumerate(self.assignment):
            blocks[m_idx].append(self.jobs[pos])
        return sum(span(b) for b in blocks if b)

    def _lower_bound(self, next_index: int) -> float:
        committed = self._committed_cost()
        remaining_len = self.suffix_len[next_index]
        # Free capacity: opened machines can absorb more job length without
        # growing their span, up to g * span - assigned length each; both
        # terms are maintained incrementally by the push/pop operations.
        free_capacity = self.g * committed - sum(self.machine_len)
        extra = max(0.0, (remaining_len - free_capacity) / self.g)
        return max(committed + extra, self.global_lb)

    # -- feasibility ----------------------------------------------------------

    def _fits(self, machine_index: int, job: Job) -> bool:
        return self.profiles[machine_index].fits(
            job.start, job.end, self.g, demand=job.demand
        )

    # -- machine state --------------------------------------------------------

    def _push(self, machine_index: int, job: Job) -> None:
        self.profiles[machine_index].add(job.start, job.end, demand=job.demand)
        self.machine_len[machine_index] += job.length * job.demand

    def _pop(self, machine_index: int, job: Job) -> None:
        self.profiles[machine_index].remove(job.start, job.end, demand=job.demand)
        self.machine_len[machine_index] -= job.length * job.demand

    # -- search ---------------------------------------------------------------

    def search(self, index: int) -> None:
        self.stats.nodes_explored += 1
        if index == self.n:
            cost = self._committed_cost()
            guard = self._DRIFT_GUARD * max(1.0, abs(cost))
            if cost < self.best_cost + guard:
                exact = self._exact_cost()
                if exact < self.best_cost:
                    self.best_cost = exact
                    self.best_assignment = list(self.assignment)
                    self.stats.incumbent_updates += 1
            return
        bound = self._lower_bound(index)
        if bound - self._DRIFT_GUARD * max(1.0, abs(bound)) >= self.best_cost:
            self.stats.nodes_pruned += 1
            return

        job = self.jobs[index]

        # Try existing machines (in opening order; identical-content machines
        # could be skipped but detecting them costs more than it saves here).
        for m_idx in range(len(self.profiles)):
            if self._fits(m_idx, job):
                self._push(m_idx, job)
                self.assignment[index] = m_idx
                self.search(index + 1)
                self._pop(m_idx, job)
                self.assignment[index] = -1

        # Try a fresh machine (single representative of all unopened machines).
        self.profiles.append(SweepProfile())
        self.machine_len.append(0.0)
        self._push(len(self.profiles) - 1, job)
        self.assignment[index] = len(self.profiles) - 1
        self.search(index + 1)
        self.profiles.pop()
        self.machine_len.pop()
        self.assignment[index] = -1


def _solve_component(
    component: Instance, initial_upper_bound: Optional[float]
) -> Tuple[List[List[Job]], float, BranchAndBoundStats]:
    searcher = _Searcher(component, initial_upper_bound)
    searcher.search(0)
    assert searcher.best_assignment is not None
    num_machines = max(searcher.best_assignment) + 1 if searcher.best_assignment else 0
    blocks: List[List[Job]] = [[] for _ in range(num_machines)]
    for job_pos, m_idx in enumerate(searcher.best_assignment):
        blocks[m_idx].append(searcher.jobs[job_pos])
    return blocks, searcher.best_cost, searcher.stats


def branch_and_bound_optimum(
    instance: Instance,
    initial_upper_bound: Optional[float] = None,
    max_jobs: int = 24,
) -> Schedule:
    """Compute an exact optimum schedule by branch and bound.

    Parameters
    ----------
    instance:
        The instance to solve exactly.
    initial_upper_bound:
        A known feasible cost (e.g. from FirstFit); tightens pruning.  The
        returned schedule's cost never exceeds it.
    max_jobs:
        Safety limit; instances larger than this raise ``ValueError`` because
        the worst-case search space grows super-exponentially.

    Returns
    -------
    Schedule
        An optimal schedule with ``meta['optimal'] = True`` and the search
        statistics under ``meta['stats']``.
    """
    if instance.n > max_jobs:
        raise ValueError(
            f"branch and bound limited to {max_jobs} jobs, got {instance.n}"
        )
    if instance.n == 0:
        return Schedule(instance=instance, machines=(), algorithm="branch_and_bound")

    machines: List[Machine] = []
    total_stats = BranchAndBoundStats()
    # Solving per connected component is both valid (no optimal solution mixes
    # components) and exponentially cheaper.
    for component in connected_components(instance):
        blocks, _, stats = _solve_component(component, initial_upper_bound)
        total_stats.nodes_explored += stats.nodes_explored
        total_stats.nodes_pruned += stats.nodes_pruned
        total_stats.incumbent_updates += stats.incumbent_updates
        for block in blocks:
            if block:
                machines.append(Machine(index=len(machines), jobs=tuple(block)))

    return Schedule(
        instance=instance,
        machines=tuple(machines),
        algorithm="branch_and_bound",
        meta={"optimal": True, "stats": total_stats},
    )
