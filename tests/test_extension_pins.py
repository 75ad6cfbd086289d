"""Pinned numbers of the extension experiments.

Two result sets are pinned exactly, so the code behind them can move
without the numbers moving:

* E14's table — the total busy time of every online scheduler and of
  offline FirstFit on ``uniform_random_instance(150, g=4, seed=s)``,
  s = 0..3, as ``repr`` literals;
* fix-then-pack (the [15] anchor-then-FirstFit heuristic) on a seeded
  corpus of flex instances on a 1/8 grid plus a few hand-written ones —
  a SHA-256 digest over each instance's sorted ``(job id, machine
  index, start)`` triples, ``repr(total_busy_time)`` and the window-aware
  lower bound.  On a 1/8 grid every start, end, sum and span is exact in
  binary floating point, so the digest depends only on the decisions.
"""

import hashlib
import random

import pytest

from busytime.algorithms import first_fit
from busytime.algorithms.placement import anchor_first_fit
from busytime.core.bounds import combined_bound
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job
from busytime.extensions.dynamic import ONLINE_ALGORITHMS
from busytime.generators import uniform_random_instance

E14_TABLE = {
    0: {
        "first_fit": "566.2609924385214",
        "online_best_fit": "538.551155026291",
        "online_first_fit": "567.7505647416563",
        "online_next_fit": "660.2699203554416",
    },
    1: {
        "first_fit": "494.6688632213771",
        "online_best_fit": "466.8314424517868",
        "online_first_fit": "496.2911712897277",
        "online_next_fit": "609.7013617864832",
    },
    2: {
        "first_fit": "489.15973571214596",
        "online_best_fit": "459.0044318366473",
        "online_first_fit": "482.88186472165773",
        "online_next_fit": "616.5254113504066",
    },
    3: {
        "first_fit": "538.0577955742277",
        "online_best_fit": "508.89983208585977",
        "online_first_fit": "532.572113448201",
        "online_next_fit": "646.2456843332159",
    },
}

FIX_THEN_PACK_CORPUS_SIZE = 240
FIX_THEN_PACK_DIGEST = "50730797db223e46ebec02fa3dc59bdf6a70db6ebfe4c24d04b366eab1f49f72"

#: ``(release, deadline, length, demand)`` rows and ``g`` of the
#: hand-written instances in ``tests/test_flexible_extension.py``.
HAND_WRITTEN = [
    ([(0, 20, 5, 1), (3, 9, 2, 1), (10, 30, 8, 1), (0, 40, 1, 1)], 2),
    ([(0, 20, 5, 1), (0, 20, 5, 1)], 2),
    ([(0, 10, 3, 1), (2, 8, 4, 1), (1, 20, 5, 2), (0, 6, 2, 1), (5, 25, 6, 1)], 2),
    ([(0, 4, 4, 2)] * 3, 3),
    ([(0, 10, 2, 1), (0, 10, 2, 1)], 1),
    ([(0, 10, 3, 1), (1, 12, 4, 1)], 2),
    ([(0, 100, 10, 1)] * 4, 2),
    ([(0, 10, 9, 1)], 4),
    ([(0, 15, 4, 1), (2, 9, 3, 1), (5, 30, 7, 1), (1, 6, 2, 1), (8, 20, 5, 1)], 2),
]


def _grid_rows(seed):
    """One seeded flex instance on a 1/8 grid: about 30% zero-slack jobs."""
    rng = random.Random(seed)
    g = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 25)):
        release = rng.randint(0, 240) / 8
        length = rng.randint(0, 80) / 8
        slack = 0.0 if rng.random() < 0.3 else rng.randint(1, 80) / 8
        rows.append((release, release + length + slack, length, rng.randint(1, g)))
    return rows, g


def _corpus():
    return [_grid_rows(seed) for seed in range(FIX_THEN_PACK_CORPUS_SIZE)] + HAND_WRITTEN


def _core_instance(rows, g):
    return Instance(
        jobs=tuple(
            Job(id=i, interval=Interval(r, r + p), release=r, deadline=d, demand=s)
            for i, (r, d, p, s) in enumerate(rows)
        ),
        g=g,
    )


def _fix_then_pack(rows, g):
    """``(sorted (id, machine, start) triples, total busy time, lower bound)``."""
    inst = _core_instance(rows, g)
    sched = anchor_first_fit(inst)
    triples = sorted((j.id, m.index, j.start) for m in sched.machines for j in m.jobs)
    bound = combined_bound(inst)
    return triples, sched.total_busy_time, bound


@pytest.mark.parametrize("seed", sorted(E14_TABLE))
def test_e14_online_vs_offline_table(seed):
    inst = uniform_random_instance(150, g=4, seed=seed)
    table = {
        name: repr(algorithm(inst).total_busy_time)
        for name, algorithm in ONLINE_ALGORITHMS.items()
    }
    table["first_fit"] = repr(first_fit(inst).total_busy_time)
    assert table == E14_TABLE[seed]


def test_fix_then_pack_corpus_digest():
    corpus = _corpus()
    assert len(corpus) >= 200
    assert any(d > r + p for rows, _ in corpus for r, d, p, _ in rows)
    assert any(d == r + p for rows, _ in corpus for r, d, p, _ in rows)
    digest = hashlib.sha256()
    for rows, g in corpus:
        triples, cost, bound = _fix_then_pack(rows, g)
        assert bound <= cost
        digest.update(repr((triples, repr(cost), repr(bound))).encode())
    assert digest.hexdigest() == FIX_THEN_PACK_DIGEST
