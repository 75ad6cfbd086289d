"""Algorithm FirstFit — the paper's main result (Section 2).

FirstFit sorts the jobs in non-increasing order of length and assigns each
job, in that order, to the lowest-indexed machine that can still process it
without ever exceeding ``g`` simultaneous jobs; a new machine is opened when
no existing machine fits.

Guarantees proved in the paper:

* **Theorem 2.1** — ``FirstFit(J) <= 4 * OPT(J)`` for every instance;
* **Theorem 2.4** — there are instances on which FirstFit pays more than
  ``(3 - eps) * OPT`` (see :mod:`busytime.generators.adversarial` for the
  Fig. 4 construction), so
* **Theorem 2.5** — the approximation ratio of FirstFit is between 3 and 4.

The implementation answers the "does job J fit on machine M_i" query from
each machine's incrementally maintained sweep-line load profile
(:class:`~busytime.core.events.SweepProfile`): a fit test costs
``O(log k + w)`` — ``k`` breakpoints on the machine, ``w`` of them inside
J's window — and an assignment updates the profile in ``O(k)`` worst case,
for ``O(n * (m * (log k + w) + k))`` overall with ``m`` the number of
opened machines.  This replaces the seed's clip-and-rescan check (re-deriving the
peak overlap from the machine's whole job list per query, ``O(n * m * g
log g)`` overall), which capped benchmarkable instance sizes; see
``benchmarks/test_bench_firstfit_scaling.py`` for the measured trajectory.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.instance import Instance
from ..core.intervals import Job
from ..core.schedule import Machine, Schedule, ScheduleBuilder
from .base import FunctionScheduler, register_scheduler

__all__ = [
    "first_fit",
    "first_fit_order",
    "FirstFitScheduler",
    "BULK_FIRST_FIT_MIN",
]

#: Instance sizes from which ``first_fit`` routes to the vectorized
#: saturation-bitmask kernel (unit demands only).  Below this the per-job
#: builder path is already fast.  Neither path verifies its result.
BULK_FIRST_FIT_MIN = 50_000


def first_fit_order(jobs: Sequence[Job]) -> List[Job]:
    """The processing order used by FirstFit: non-increasing length.

    Ties are broken by start time and then id so that runs are deterministic
    and reproducible across platforms (the paper leaves tie-breaking open).
    """
    return sorted(jobs, key=lambda j: (-j.length, j.start, j.id))


def _bulk_first_fit(instance: Instance) -> Optional[Schedule]:
    """FirstFit via the numpy saturation-bitmask kernel, or None to fall back.

    Produces schedules **bit-identical** to :func:`_builder_first_fit` (same
    processing order, same machine indices, same per-machine job order) —
    pinned by the differential corpus, ``tests/test_first_fit.py`` and the
    E21 benchmark module.  The kernel bails out past
    :data:`~busytime.core.bulk.MAX_BITMASK_MACHINES` machines, in which
    case the caller falls back to the builder.  Like the builder path it
    returns the schedule unverified; large-scale callers verify with
    ``verify_schedule(schedule, mode="batch")``, and ``meta["kernel"]``
    records which path produced the result.
    """
    import numpy as np

    from ..core.bulk import first_fit_assign

    jobs = instance.jobs
    n = len(jobs)
    starts = np.fromiter((j.start for j in jobs), np.float64, count=n)
    ends = np.fromiter((j.end for j in jobs), np.float64, count=n)
    ids = np.fromiter((j.id for j in jobs), np.int64, count=n)
    result = first_fit_assign(starts, ends, ids, instance.g)
    if result is None:
        return None
    order, assign, num_machines = result
    machine_jobs: List[List[Job]] = [[] for _ in range(num_machines)]
    for pos in order:
        machine_jobs[assign[pos]].append(jobs[pos])
    machines = tuple(
        Machine(index=i, jobs=tuple(mjobs))
        for i, mjobs in enumerate(machine_jobs)
    )
    return Schedule(
        instance=instance,
        machines=machines,
        algorithm="first_fit",
        meta={
            "processing_order": ids[np.asarray(order)].tolist(),
            "kernel": "bulk",
        },
    )


def _builder_first_fit(instance: Instance) -> Schedule:
    """FirstFit one job at a time over the builder's per-machine profiles.

    Handles every instance (demands, site capacity) and returns the frozen
    schedule unverified, as the bulk kernel does.
    """
    builder = ScheduleBuilder(instance, algorithm="first_fit")
    order = first_fit_order(instance.jobs)
    for job in order:
        builder.assign_first_fit(job)
    builder.meta["processing_order"] = [j.id for j in order]
    return builder.freeze()


def first_fit(instance: Instance) -> Schedule:
    """Schedule ``instance`` with the Section 2 FirstFit algorithm.

    Returns a :class:`~busytime.core.schedule.Schedule` whose ``meta``
    records the processing order (job ids) for use by the certificate
    checks of experiment E10.  Unit-demand instances with at least
    :data:`BULK_FIRST_FIT_MIN` jobs route to the vectorized kernel (see
    :func:`_bulk_first_fit` for the validation contract); everything else
    takes the per-job builder path and is validated before being returned.
    """
    if len(instance.jobs) >= BULK_FIRST_FIT_MIN and not instance.has_demands:
        schedule = _bulk_first_fit(instance)
        if schedule is not None:
            return schedule
    return _builder_first_fit(instance)


class FirstFitScheduler(FunctionScheduler):
    """Longest-first FirstFit; 4-approximation for general instances.

    Demand-aware: every ``fits`` query routes through the builder's
    maintained profile, which honours job capacity demands (the [15]
    model) — with unit demands the checks and the produced schedules are
    bit-for-bit the paper's.  FirstFit is also the engine's fallback for
    every registered objective: it minimises busy time and opens machines
    lazily, so it remains a sensible (if guarantee-free beyond busy time)
    last resort under activation-priced models.
    """

    def __init__(self) -> None:
        super().__init__(
            first_fit,
            name="first_fit",
            approximation_ratio=4.0,
            instance_class="general",
            paper_section="Section 2",
            instance_classes=("general",),
            selection_priority=40,
            supported_objectives=(
                "busy_time",
                "weighted_busy_time",
                "machines_plus_busy",
                "tariff_busy_time",
            ),
            demand_aware=True,
        )


register_scheduler(FirstFitScheduler())
