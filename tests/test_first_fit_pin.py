"""SHA-256 pins of the schedules the builder-backed greedy algorithms return.

Each corpus is solved by FirstFit (its per-job builder path), BestFit,
NextFit by start, the Section 3.1 greedy and the Appendix clique grouping,
and every schedule is recorded as its per-machine job ids and the ``repr``
of its total busy time.  Dynamic replays of :func:`uniform_dynamic_trace`
are recorded as the machine each job left from, the ``repr`` of the
realized cost and the migration count.  The digests below are literals:
a change to how :class:`~busytime.core.schedule.ScheduleBuilder` answers
"does job J fit on machine i" must leave all of them unchanged.

``verify_schedule`` catches a wrong "fits" as an overload, but a wrong
"does not fit" still yields a feasible schedule, just not FirstFit's; only
a pin like this one sees it.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from busytime.algorithms import (
    best_fit,
    clique_schedule,
    next_fit_by_start,
    proper_greedy,
)
from busytime.algorithms.first_fit import _builder_first_fit
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job
from busytime.extensions.dynamic import (
    MigrationBudget,
    NeverMigrate,
    RollingHorizon,
    Simulator,
)
from busytime.generators import (
    bursty_instance,
    clique_instance,
    poisson_arrivals_instance,
    proper_instance,
    uniform_dynamic_trace,
    uniform_random_instance,
)
from perfbench import workloads as wl

#: (n, g) shapes of the generator corpora, each drawn under two seeds
SHAPES = ((30, 1), (60, 2), (120, 3), (250, 4), (400, 5))
SEEDS = (0, 1)


def grid_instance(n: int, g: int, seed: int) -> Instance:
    """Integer endpoints on a short horizon: touching and zero-length jobs."""
    rng = random.Random(seed)
    horizon = max(8, n // 4)
    jobs = []
    for k in range(n):
        start = rng.randint(0, horizon)
        length = rng.choice((0, 0, 1, 1, 2, 3, 5, 8))
        jobs.append(Job(id=k, interval=Interval(float(start), float(start + length))))
    return Instance(jobs=tuple(jobs), g=g, name=f"grid-{n}-{g}-{seed}")


GENERATORS = {
    "uniform": uniform_random_instance,
    "poisson": poisson_arrivals_instance,
    "bursty": bursty_instance,
    "proper": proper_instance,
    "clique": clique_instance,
    "grid": grid_instance,
}

ALGORITHMS = {
    "first_fit": _builder_first_fit,
    "best_fit": best_fit,
    "next_fit_by_start": next_fit_by_start,
    "proper_greedy": proper_greedy,
    "clique": lambda instance: clique_schedule(instance, strict=False),
}


def corpus(name):
    """The instances of one corpus: perfbench's rigid cold shapes or a generator's."""
    if name == "perfbench-cold":
        cold = (wl.cold_op(1, index).instance for index in range(wl.COLD_CYCLE))
        return [i for i in cold if not i.has_demands]
    make = GENERATORS[name]
    return [make(n, g, seed=seed) for n, g in SHAPES for seed in SEEDS]


DIGESTS = {
    "bursty/best_fit": "238e323c1800df1b540b192c230b5d9c67c244c7e17abac5d0b4379336df7fe0",
    "bursty/clique": "9208ecddd3a2e95109c03d994e9bb59e754803ea5d8e301668df3da02ff6578f",
    "bursty/first_fit": "6c41105124fa45da55910eaa009b91367c9614eab2943388459aff21a421dab5",
    "bursty/next_fit_by_start": "e5a09747208ff84b2745562fa4eef93fb60d7674ed219d7c28a73b1e2ec06e92",
    "bursty/proper_greedy": "e5a09747208ff84b2745562fa4eef93fb60d7674ed219d7c28a73b1e2ec06e92",
    "clique/best_fit": "af389d4e8d7c606cdd5982a6460dd85b4af0e49e29a97c2a520a6441645d763a",
    "clique/clique": "f760a165f71b842b9e3c180c914ccf9ab7ebf522eb84bfc096db56fcebe4f03c",
    "clique/first_fit": "af389d4e8d7c606cdd5982a6460dd85b4af0e49e29a97c2a520a6441645d763a",
    "clique/next_fit_by_start": "fee1149cc09af0252889158c4b7f57c1da38b916043486f829a6786de623df36",
    "clique/proper_greedy": "fee1149cc09af0252889158c4b7f57c1da38b916043486f829a6786de623df36",
    "grid/best_fit": "b175dda1e1115a9ed810c90f6b358c3375392f33a0e469d2784b452896f25535",
    "grid/clique": "184d8391aa8ef54ab7b4d8f1726cba3732804e21d8f345824e2df849149792ed",
    "grid/first_fit": "5434c1590113aaf9bcd00886810a39174974fb7d00931694f9aaa28d9cc86f5c",
    "grid/next_fit_by_start": "855bc362ada6df560bc401c7800f3967d53398f7978be47d2cc10f366a204989",
    "grid/proper_greedy": "855bc362ada6df560bc401c7800f3967d53398f7978be47d2cc10f366a204989",
    "perfbench-cold/best_fit": "f00bc4732577074031dd9e0639528a5291ebb1dab92fbf85a90c663b29f724ab",
    "perfbench-cold/clique": "c1a202bedc13ff27ed96e59e24d926efbe706f03ef3d07b8fff33fc79a14f1ed",
    "perfbench-cold/first_fit": "bf66891161ace43f9ce24c1aa095f07fedd27496de136736cfdf4fa1fea37686",
    "perfbench-cold/next_fit_by_start": "4da9e299738ad1e77f91bdede299288cd9d620193e4720f57a2399a880118f7d",
    "perfbench-cold/proper_greedy": "4da9e299738ad1e77f91bdede299288cd9d620193e4720f57a2399a880118f7d",
    "poisson/best_fit": "a29647ab318471f8218b11c29907b897b8a364fca29cbe649411c5cfafd16bbe",
    "poisson/clique": "5a33dee17a343d67d6377c700b27f62ae9ff3c7bf7d68e2021b77d56cde0c7c4",
    "poisson/first_fit": "ac3de73441a4a6021708b3bfbeb5808249d8d199ca40f18892b76ecaf55e0e18",
    "poisson/next_fit_by_start": "9155a9478802e0799fa32081f9707ba2a836e119058f520ca35545c293777195",
    "poisson/proper_greedy": "9155a9478802e0799fa32081f9707ba2a836e119058f520ca35545c293777195",
    "proper/best_fit": "84913d6db3f056b59eeb8ca382a5add3f375406d69967e019f7baae5c745d22e",
    "proper/clique": "4a5daec91c0541077455f2e95cd068ba1d9de1551f1cd2ecdf263c3fd11dd9bd",
    "proper/first_fit": "5aeb57e0bce272825c285d117fd9bb346e115410092cb2e1a20ca675998439ce",
    "proper/next_fit_by_start": "aaf9bd9e8af0413e26d1df4752e65e2c069d2085c66e952ccd82b72dbd83fa43",
    "proper/proper_greedy": "aaf9bd9e8af0413e26d1df4752e65e2c069d2085c66e952ccd82b72dbd83fa43",
    "uniform/best_fit": "3c5e0fb0d504c2da0421e40cc0d486ce52ea6a7d8633e846d1c5fb614a754d32",
    "uniform/clique": "1bc6ab68e5a62ce902b03fa8158721e1ee747dacceb9c615b27de3874c302b6b",
    "uniform/first_fit": "5c3ecc41dfa603b90be31c0a5de7f1298348fbf8e21f3d9676812e73022d4bca",
    "uniform/next_fit_by_start": "37cb5a0c62b2f0ac610326bc2c6551d7125f8a073b0b1c9a257359fd60e7bd30",
    "uniform/proper_greedy": "37cb5a0c62b2f0ac610326bc2c6551d7125f8a073b0b1c9a257359fd60e7bd30",
}


def schedule_record(schedule):
    return {
        "machines": [[job.id for job in machine.jobs] for machine in schedule.machines],
        "cost": repr(schedule.total_busy_time),
    }


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("name", ["perfbench-cold", *sorted(GENERATORS)])
def test_builder_schedules_match_the_pin(name, algorithm):
    solve = ALGORITHMS[algorithm]
    records = [schedule_record(solve(instance)) for instance in corpus(name)]
    assert digest(records) == DIGESTS[f"{name}/{algorithm}"]


#: (n, g, seed) of the replayed traces
TRACES = ((60, 2, 0), (150, 3, 1), (300, 4, 2))

POLICIES = {
    "never_migrate-first_fit": lambda period: NeverMigrate(placement="first_fit"),
    "never_migrate-best_fit": lambda period: NeverMigrate(placement="best_fit"),
    "rolling_horizon": lambda period: RollingHorizon(period, algorithm="first_fit"),
    "migration_budget": lambda period: MigrationBudget(
        period, budget=4, algorithm="first_fit"
    ),
}

REPLAY_DIGESTS = {
    "migration_budget": "0ca1204f547e3194a3c5a783de4b355a62ccb49788c7622abbb58cc8c5caee23",
    "never_migrate-best_fit": "0df8ddff3a662d96848ab17434d4254139cf9b872c4902bd69ef47a137ad1d97",
    "never_migrate-first_fit": "1a51d131aad18cd504e99cfdf23d35f062e7a4d48037aca1e91a2797762ad88a",
    "rolling_horizon": "1f0f0304c66c94c11bb6a701a1df6ab1e5a1492f610db7229213615c8ff80b28",
}


def replay_record(trace, policy):
    """The machine each job departs from, the realized cost and the migrations."""
    sim = Simulator(trace, policy, compare_offline=False)
    sim.begin()
    departed_from = {}
    for event in trace.events:
        if not event.is_arrival:
            departed_from[event.job.id] = sim.builder.machine_of(event.job.id)
        sim.feed(event)
    report = sim.settle()
    return {
        "departed_from": sorted(departed_from.items()),
        "cost": repr(report.realized_cost),
        "migrations": report.migrations,
    }


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_simulator_replays_match_the_pin(policy):
    records = []
    for n, g, seed in TRACES:
        trace = uniform_dynamic_trace(n, g, seed=seed)
        lo, hi = trace.horizon
        records.append(replay_record(trace, POLICIES[policy]((hi - lo) / 8.0)))
    assert digest(records) == REPLAY_DIGESTS[policy]
