#!/usr/bin/env python
"""Record the FirstFit perf trajectory into ``BENCH_firstfit.json``.

This is the repo's perf-trajectory entry point (the ``BENCH_*.json``
artefacts the ROADMAP asks for).  It does two things:

1. runs the scaling benchmark module through pytest-benchmark
   (``pytest benchmarks/test_bench_firstfit_scaling.py --benchmark-only
   --benchmark-json=...``) and keeps the machine-readable timing stats;
2. runs a direct head-to-head — the seed's clip-and-rescan FirstFit vs the
   sweep-line implementation — over a range of instance sizes up to
   n=20000, asserting identical schedules and validating the sweep-line
   result with the independent ``verify_schedule`` oracle at every size;
3. extends the trajectory with a constant-density large-n family
   (``n / horizon = 20``, up to n = 10^6) timing the vectorized bulk
   FirstFit kernel.  At every large point up to n = 100k the legacy
   per-job builder path (``_builder_first_fit``) is re-run as the
   differential baseline — assignments must match exactly and costs up to
   accumulation-order ulps — and at n = 10^6 (where the legacy path would
   take minutes) the schedule is validated with ``verify_schedule``'s
   vectorized batch oracle and the wall clock must clear the < 10 s bar.

Usage::

    python scripts/bench_trajectory.py              # full run (n up to 10^6)
    python scripts/bench_trajectory.py --quick      # CI smoke (n up to 5000)
    python scripts/bench_trajectory.py --skip-large # old-style run (<= 20000)
    python scripts/bench_trajectory.py --output OUT.json

The emitted JSON carries the measured speedups; the full run demonstrates
the >= 5x acceptance bar at n=20000 (in practice the speedup there is two
orders of magnitude) and the 10^6-job wall-clock bar for the bulk kernel.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from busytime.algorithms.first_fit import (  # noqa: E402
    _builder_first_fit,
    first_fit,
)
from busytime.core.intervals import span  # noqa: E402
from busytime.core.schedule import verify_schedule  # noqa: E402
from busytime.generators import uniform_random_instance  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from test_bench_firstfit_scaling import _seed_first_fit  # noqa: E402

FULL_SIZES = (1000, 2000, 5000, 10000, 20000)
QUICK_SIZES = (1000, 2000, 5000)

#: Constant-density scaling family for the bulk-kernel trajectory: the
#: horizon grows with n (``n / horizon = LARGE_DENSITY``) so the machine
#: count stays roughly flat and the points measure pure throughput.
LARGE_SIZES = (50_000, 100_000, 1_000_000)
LARGE_DENSITY = 20.0
#: Largest point at which the legacy per-job builder path is re-run as the
#: differential baseline; beyond this it would take minutes, so the batch
#: oracle (``verify_schedule(mode="batch")``) carries validation alone.
LEGACY_COMPARE_MAX = 100_000
#: Wall-clock acceptance bar for the n = 10^6 bulk-kernel solve.
MILLION_JOB_BAR_SECONDS = 10.0


def large_point(n: int, g: int, seed: int) -> dict:
    """Time the bulk kernel at a constant-density point; diff vs legacy."""
    import gc

    horizon = n / LARGE_DENSITY
    inst = uniform_random_instance(n=n, g=g, horizon=horizon, seed=seed)

    # Min over two rounds, GC swept before each: the load-robust "how fast
    # can this code go" estimator (the E16 budget guard uses the same),
    # immune to allocator/GC debris left by the earlier trajectory points.
    bulk_seconds = float("inf")
    for _ in range(2):
        gc.collect()
        t0 = time.perf_counter()
        schedule = first_fit(inst)
        bulk_seconds = min(bulk_seconds, time.perf_counter() - t0)

    # first_fit returns an unverified schedule: the vectorized batch
    # oracle recomputes every machine's peak load and busy time from
    # scratch, outside the timed region.
    verify_schedule(schedule, mode="batch")

    row = {
        "n": n,
        "g": g,
        "seed": seed,
        "horizon": horizon,
        "kernel": schedule.meta.get("kernel", "builder"),
        "bulk_kernel_seconds": round(bulk_seconds, 4),
        "timing": "min of 2 rounds",
        "machines": schedule.num_machines,
        "total_busy_time": round(schedule.total_busy_time, 3),
        "validated_by": "verify_schedule(mode='batch')",
    }

    if n <= LEGACY_COMPARE_MAX:
        t0 = time.perf_counter()
        legacy = _builder_first_fit(inst)
        legacy_seconds = time.perf_counter() - t0
        costs_equal = abs(
            schedule.total_busy_time - legacy.total_busy_time
        ) <= 1e-9 * max(1.0, legacy.total_busy_time)
        if not costs_equal or schedule.assignment() != legacy.assignment():
            raise SystemExit(
                f"n={n}: bulk kernel diverges from the legacy builder path "
                f"(cost {schedule.total_busy_time} vs "
                f"{legacy.total_busy_time}, machines "
                f"{schedule.num_machines} vs {legacy.num_machines})"
            )
        row.update(
            legacy_builder_seconds=round(legacy_seconds, 4),
            speedup=round(legacy_seconds / bulk_seconds, 1),
            costs_equal=True,
            assignments_equal=True,
        )
        print(
            f"n={n:>8}  legacy={legacy_seconds:8.2f}s  "
            f"bulk={bulk_seconds:6.3f}s  speedup={row['speedup']:7.1f}x"
        )
    else:
        print(f"n={n:>8}  bulk={bulk_seconds:6.3f}s  (legacy skipped)")
    return row


def head_to_head(n: int, g: int, seed: int) -> dict:
    inst = uniform_random_instance(n=n, g=g, horizon=1000.0, seed=seed)

    t0 = time.perf_counter()
    baseline_machines = _seed_first_fit(inst)
    baseline_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    schedule = first_fit(inst)
    sweep_seconds = time.perf_counter() - t0

    verify_schedule(schedule)  # independent slow-path oracle
    baseline_cost = sum(span(mjobs) for mjobs in baseline_machines)
    costs_equal = abs(schedule.total_busy_time - baseline_cost) <= 1e-6 * max(
        1.0, baseline_cost
    )
    if not costs_equal or schedule.num_machines != len(baseline_machines):
        raise SystemExit(
            f"n={n}: sweep-line schedule diverges from the seed baseline "
            f"(cost {schedule.total_busy_time} vs {baseline_cost}, "
            f"machines {schedule.num_machines} vs {len(baseline_machines)})"
        )
    row = {
        "n": n,
        "g": g,
        "seed": seed,
        "baseline_clip_rescan_seconds": round(baseline_seconds, 4),
        "sweep_profile_seconds": round(sweep_seconds, 4),
        "speedup": round(baseline_seconds / sweep_seconds, 1),
        "machines": schedule.num_machines,
        "total_busy_time": round(schedule.total_busy_time, 3),
        "costs_equal": True,
        "validated_by_verify_schedule": True,
    }
    print(
        f"n={n:>6}  baseline={baseline_seconds:8.2f}s  "
        f"sweep={sweep_seconds:6.3f}s  speedup={row['speedup']:7.1f}x"
    )
    return row


def run_pytest_benchmarks() -> list:
    """Run the scaling module under pytest-benchmark; return its stats."""
    with tempfile.TemporaryDirectory() as tmp:
        bench_json = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/test_bench_firstfit_scaling.py",
            "--benchmark-only",
            f"--benchmark-json={bench_json}",
            "-q",
        ]
        env = dict(PYTHONPATH=str(REPO_ROOT / "src"))
        import os

        env = {**os.environ, **env}
        result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if result.returncode != 0:
            raise SystemExit("pytest benchmark run failed")
        data = json.loads(bench_json.read_text())
    return [
        {
            "name": b["name"],
            "mean_seconds": round(b["stats"]["mean"], 4),
            "stddev_seconds": round(b["stats"]["stddev"], 4),
            "rounds": b["stats"]["rounds"],
            "extra_info": b.get("extra_info", {}),
        }
        for b in data.get("benchmarks", [])
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="cap the head-to-head at n=5000 (CI smoke run)",
    )
    parser.add_argument("--g", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_firstfit.json",
        help="where to write the trajectory JSON",
    )
    parser.add_argument(
        "--skip-pytest",
        action="store_true",
        help="skip the pytest-benchmark pass (head-to-head only)",
    )
    parser.add_argument(
        "--skip-large",
        action="store_true",
        help=(
            "skip the constant-density bulk-kernel points (n up to 10^6); "
            "implied by --quick"
        ),
    )
    args = parser.parse_args()

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    trajectory = [head_to_head(n, args.g, args.seed) for n in sizes]
    headline = trajectory[-1]

    large_trajectory = []
    if not (args.quick or args.skip_large):
        large_trajectory = [
            large_point(n, args.g, args.seed) for n in LARGE_SIZES
        ]

    pytest_stats = [] if args.skip_pytest else run_pytest_benchmarks()

    payload = {
        "experiment": "E16-firstfit-scaling",
        "description": (
            "FirstFit (Theorem 2.1) with incremental sweep-line machine "
            "state vs the seed clip-and-rescan implementation; identical "
            "schedules, verify_schedule-validated at every size"
        ),
        "generated_by": "scripts/bench_trajectory.py"
        + (" --quick" if args.quick else ""),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "headline": headline,
        "trajectory": trajectory,
        "large_trajectory": large_trajectory,
        "pytest_benchmarks": pytest_stats,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"headline: n={headline['n']} speedup={headline['speedup']}x "
        f"(baseline {headline['baseline_clip_rescan_seconds']}s -> "
        f"sweep {headline['sweep_profile_seconds']}s)"
    )
    if headline["speedup"] < 5.0:
        raise SystemExit("headline speedup below the 5x acceptance bar")
    if large_trajectory:
        million = large_trajectory[-1]
        print(
            f"bulk kernel: n={million['n']} in "
            f"{million['bulk_kernel_seconds']}s "
            f"({million['machines']} machines)"
        )
        if (
            million["n"] >= 1_000_000
            and million["bulk_kernel_seconds"] >= MILLION_JOB_BAR_SECONDS
        ):
            raise SystemExit(
                f"10^6-job FirstFit took {million['bulk_kernel_seconds']}s, "
                f"above the {MILLION_JOB_BAR_SECONDS}s acceptance bar"
            )


if __name__ == "__main__":
    main()
