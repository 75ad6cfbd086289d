"""Scaling checks for the vectorized FirstFit kernel (experiment E21).

Three layers, by cost:

* a tier-1 **bit-identity pin** at n = 5000: the saturation-bitmask kernel
  must reproduce the builder path's schedule exactly (same processing
  order, same machine contents in the same order) — the property the whole
  bulk fast path rests on;
* a tier-1 **n = 50k smoke**: the kernel path end to end through the public
  ``first_fit`` API at its real routing threshold, validated with the
  vectorized batch oracle *and* the full python oracle;
* the **n = 10^6 scaling run** (marked ``slow``; ``--run-slow`` or
  ``BUSYTIME_RUN_SLOW=1`` to enable): FirstFit on one million jobs with a
  wall-clock regression guard.  The committed trajectory numbers live in
  ``BENCH_firstfit.json`` (written by ``scripts/bench_trajectory.py``);
  this test keeps the capability from silently rotting between bench runs.
"""

from __future__ import annotations

import time

import pytest

from busytime.algorithms.first_fit import (
    _builder_first_fit,
    _bulk_first_fit,
    first_fit,
)
from busytime.core.bounds import best_lower_bound
from busytime.core.schedule import verify_schedule
from busytime.generators import uniform_random_instance

#: Constant-density scaling family (n / horizon = 20, g = 10, seed = 7) —
#: the same points ``scripts/bench_trajectory.py`` extends the committed
#: trajectory with.
DENSITY = 20.0
G = 10
SEED = 7


def _instance(n: int):
    return uniform_random_instance(
        n=n, g=G, horizon=n / DENSITY, seed=SEED
    )


def test_bulk_kernel_bit_identical_to_builder_5k():
    inst = _instance(5000)
    builder_schedule = _builder_first_fit(inst)
    assert "kernel" not in builder_schedule.meta
    kernel_schedule = _bulk_first_fit(inst)
    assert kernel_schedule.meta.get("kernel") == "bulk"
    assert kernel_schedule.meta["processing_order"] == (
        builder_schedule.meta["processing_order"]
    )
    assert kernel_schedule.assignment() == builder_schedule.assignment()
    assert [tuple(j.id for j in m.jobs) for m in kernel_schedule.machines] == [
        tuple(j.id for j in m.jobs) for m in builder_schedule.machines
    ]
    assert kernel_schedule.total_busy_time == pytest.approx(
        builder_schedule.total_busy_time, rel=1e-12
    )
    verify_schedule(kernel_schedule)


def test_firstfit_50k_smoke():
    inst = _instance(50_000)
    schedule = first_fit(inst)
    # 50k is at the routing threshold, so this exercises the real gate.
    assert schedule.meta.get("kernel") == "bulk"
    assert schedule.num_machines > 0
    verify_schedule(schedule, mode="batch")
    verify_schedule(schedule)  # the full python oracle agrees
    lb = best_lower_bound(inst)
    assert lb - 1e-9 <= schedule.total_busy_time <= inst.g * lb + 1e-9


@pytest.mark.slow
def test_firstfit_one_million_jobs():
    inst = _instance(1_000_000)
    t0 = time.perf_counter()
    schedule = first_fit(inst)
    elapsed = time.perf_counter() - t0
    assert schedule.meta.get("kernel") == "bulk"
    verify_schedule(schedule, mode="batch")
    lb = best_lower_bound(inst)
    assert lb - 1e-9 <= schedule.total_busy_time <= inst.g * lb + 1e-9
    # The committed BENCH_firstfit.json budget is < 10s on the reference
    # machine; allow slack for slower CI hosts while still catching an
    # accidental fallback to the per-job path (minutes, not seconds).
    assert elapsed < 30.0, f"1M-job FirstFit took {elapsed:.1f}s"
