"""SHA-256 pins of the schedules Bounded_Length returns.

Each corpus is solved by :func:`bounded_length` with its default segment
width, and every schedule is recorded as its per-machine job ids, the
``repr`` of its total busy time and, per segment, the segment index, job
count, winning solver and the ``repr`` of its cost.  The digests below are
literals: a change to how a segment is decomposed into threads, grouped or
matched to machines must leave all of them unchanged.

The corpora hold only instances whose job starts are pairwise distinct
(perfbench's proper shapes and continuous generator draws).  On those the
thread grouping is the only assignment the b-matching of Step 2 can
return, so the pinned schedules do not depend on how the matching breaks
ties.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from busytime.algorithms import bounded_length
from busytime.generators import (
    clique_instance,
    laminar_instance,
    poisson_arrivals_instance,
    proper_instance,
    uniform_random_instance,
)
from perfbench import workloads as wl

#: (n, g) shapes of the generator corpora, each drawn under two seeds
SHAPES = ((30, 2), (60, 3), (120, 4), (200, 5))
SEEDS = (0, 1)
GENERATORS = {
    "proper": proper_instance,
    "uniform": uniform_random_instance,
    "poisson": poisson_arrivals_instance,
    "clique": clique_instance,
    "laminar": laminar_instance,
}


def corpus(name):
    """The instances of one corpus: perfbench's proper shapes or a generator's."""
    if name == "perfbench-cold":
        cold = (wl.cold_op(1, index).instance for index in range(wl.COLD_CYCLE))
        return [i for i in cold if i.name.startswith("proper")]
    if name == "perfbench-hot":
        return [i for i in wl.hot_pool() if i.name.startswith("proper")]
    make = GENERATORS[name]
    return [make(n, g, seed=seed) for n, g in SHAPES for seed in SEEDS]


DIGESTS = {
    "perfbench-cold": "011c6d220f2d6bf6235e290cf69c9165f08209a7fa60c3cb8cd7a878ed3cf269",
    "perfbench-hot": "78c8380936e3cdd7a259c2b23cc9909393e799e4c62969edba7268c28e0c46eb",
    "proper": "9ee76fc9c09cadae46aea78d2714392afab009f2556e18abc7579c8fcaa4fb4e",
    "uniform": "167e3e808606849d5173b6dd5c528275e835f8866fbba44d1c1ae944c387ea1c",
    "poisson": "a6f86d400a81bc32ddf8712b0bcbbeb74eaee64a4d3cfc665497b5ecdbd01c0a",
    "clique": "7a032ade6b3d1f5e3073e58fdaddb671ba5e64ace60dfe4e22c44d6e304499a3",
    "laminar": "4bc1d985a0136219421e00f7904babf101a903ef986dbd6380b9e90d109cea2f",
}


def schedule_record(instance):
    schedule = bounded_length(instance)
    return {
        "machines": [[job.id for job in machine.jobs] for machine in schedule.machines],
        "cost": repr(schedule.total_busy_time),
        "segments": [
            [s.segment_index, s.num_jobs, s.solver, repr(s.cost)]
            for s in schedule.meta["segments"]
        ],
    }


def corpus_digest(instances) -> str:
    records = [schedule_record(instance) for instance in instances]
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bounded_length_schedules_match_the_pin(name):
    assert corpus_digest(corpus(name)) == DIGESTS[name]
