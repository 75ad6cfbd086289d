"""Baseline schedulers the paper compares against implicitly.

None of these carries the paper's approximation guarantees; they exist so the
benchmark harness can show *why* the paper's algorithms matter:

* :func:`machine_minimizing` — the Section 1.1 remark: minimising the number
  of machines is polynomial (colour the interval graph, bundle ``g`` colour
  classes per machine).  Experiment E9 shows its busy time can be far from
  optimal even though its machine count is minimum.
* :func:`next_fit_by_start` — NextFit in start order applied to a *general*
  instance (the Section 3.1 greedy without the properness prerequisite).
* :func:`best_fit` — like FirstFit but placing each job on the feasible
  machine whose busy time grows the least (a natural heuristic; no proven
  bound).
* :func:`singleton` — one machine per job; cost ``len(J)``, i.e. exactly
  ``g`` times the parallelism bound.
* :func:`random_assignment` — jobs assigned to a random feasible machine
  among the open ones (seeded; used as a sanity floor in comparisons).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.instance import Instance
from ..core.intervals import Job
from ..core.schedule import Schedule, ScheduleBuilder
from ..exact.special_cases import minimize_machine_count
from .base import FunctionScheduler, register_scheduler

__all__ = [
    "machine_minimizing",
    "next_fit_by_start",
    "best_fit",
    "singleton",
    "random_assignment",
]


def machine_minimizing(instance: Instance) -> Schedule:
    """Minimum-machine-count baseline (interval colouring, Section 1.1)."""
    return minimize_machine_count(instance)


def next_fit_by_start(instance: Instance) -> Schedule:
    """NextFit in start-time order on arbitrary instances (no guarantee)."""
    builder = ScheduleBuilder(instance, algorithm="next_fit_by_start")
    current: Optional[int] = None
    for job in sorted(instance.jobs, key=lambda j: (j.start, j.end, j.id)):
        if current is None or not builder.fits(current, job):
            current = builder.open_machine()
        builder.assign(current, job)
    return builder.freeze()


def best_fit(instance: Instance) -> Schedule:
    """Longest-first BestFit: place each job where the busy time grows least."""
    builder = ScheduleBuilder(instance, algorithm="best_fit")
    order = sorted(instance.jobs, key=lambda j: (-j.length, j.start, j.id))
    for job in order:
        idx = builder.best_fitting_machine(job)
        builder.assign(builder.open_machine() if idx is None else idx, job)
    return builder.freeze()


def singleton(instance: Instance) -> Schedule:
    """One machine per job (cost = len(J); the no-sharing strawman)."""
    builder = ScheduleBuilder(instance, algorithm="singleton")
    for job in instance.jobs:
        builder.assign_new_machine([job])
    return builder.freeze()


def random_assignment(instance: Instance, seed: int = 0) -> Schedule:
    """Each job goes to a uniformly random feasible open machine (or a new one)."""
    rng = random.Random(seed)
    builder = ScheduleBuilder(instance, algorithm="random_assignment")
    jobs: List[Job] = list(instance.jobs)
    rng.shuffle(jobs)
    for job in jobs:
        feasible = [
            idx for idx in range(builder.num_machines) if builder.fits(idx, job)
        ]
        # A fresh machine is always an option, weighted as one extra slot.
        choice = rng.randrange(len(feasible) + 1)
        if choice == len(feasible):
            idx = builder.open_machine()
        else:
            idx = feasible[choice]
        builder.assign(idx, job)
    builder.meta["seed"] = seed
    return builder.freeze()


# The builder-routed greedies (NextFit / BestFit / singleton / random) are
# demand-aware for free: every `fits` query goes through the machine's
# maintained profile, which honours job capacity demands.  machine_min is
# *not*: interval colouring bundles g colour classes per machine by
# cardinality, which can overload a capacity-g machine under demands — but
# it stays the natural baseline for the machines_plus_busy cost model.
register_scheduler(
    FunctionScheduler(
        machine_minimizing,
        name="machine_min",
        approximation_ratio=None,
        instance_class="general",
        paper_section="Section 1.1 (remark)",
        supported_objectives=("busy_time", "machines_plus_busy"),
    )
)
register_scheduler(
    FunctionScheduler(
        next_fit_by_start,
        name="next_fit_by_start",
        approximation_ratio=None,
        instance_class="general",
        paper_section="baseline",
        supported_objectives=("busy_time", "weighted_busy_time", "tariff_busy_time"),
        demand_aware=True,
    )
)
register_scheduler(
    FunctionScheduler(
        best_fit,
        name="best_fit",
        approximation_ratio=None,
        instance_class="general",
        paper_section="baseline",
        supported_objectives=("busy_time", "weighted_busy_time", "tariff_busy_time"),
        demand_aware=True,
    )
)
register_scheduler(
    FunctionScheduler(
        singleton,
        name="singleton",
        approximation_ratio=None,
        instance_class="general",
        paper_section="baseline",
        supported_objectives=("busy_time", "weighted_busy_time", "tariff_busy_time"),
        demand_aware=True,
    )
)
register_scheduler(
    FunctionScheduler(
        random_assignment,
        name="random_assignment",
        approximation_ratio=None,
        instance_class="general",
        paper_section="baseline",
        supported_objectives=("busy_time", "weighted_busy_time", "tariff_busy_time"),
        demand_aware=True,
    )
)
