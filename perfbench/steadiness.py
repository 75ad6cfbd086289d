"""Steadiness report: are two sets of runs of the same code in agreement?

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--output steadiness.json]

Runs ``perfbench/run.py`` for every workload of ``BENCHMARK.json`` and each
of ``SEEDS`` seeds, ``run_seconds`` each, in ``SETS`` sets with the same
seeds, and prints for every end-to-end metric and workload each set's
median and quartiles beside the metric's bound: the quartile spread (as a
share of the median) must stay within the bound, and no set's median may be
worse than the first set's by more than the bound.  The platform, ``nproc``,
the Python version and the seeds are recorded with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartiles, spread  # noqa: E402

#: Seeds per set (1, 2, ...), and sets of runs compared.
SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def worse_by(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first``, as a share of ``first``."""
    change = (other - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, help="also write every value here as JSON")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = list(range(1, SEEDS + 1))
    results: Dict[str, List[List[Dict[str, object]]]] = {w: [] for w in workloads}
    for set_index in range(SETS):
        for workload in workloads:
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, seconds))
                values = " ".join(f"{name}={metric['value']:.4g}"
                                  for name, metric in runs[-1]["metrics"].items())
                print(f"set {set_index + 1} {workload} seed {seed}: {values}", flush=True)
            results[workload].append(runs)

    steady = True
    rows = []
    print(f"\nplatform={platform.platform()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} seeds={seeds} seconds={seconds}")
    print(f"{'metric':18s} {'workload':13s} {'bound':>6s}  "
          + "  ".join(f"set{k + 1} median [q1, q3] spread" for k in range(SETS)))
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in workloads:
            cells, medians, verdict = [], [], "ok"
            for runs in results[workload]:
                values = [run["metrics"][name]["value"] for run in runs]
                q1, mid, q3 = quartiles(values)
                share = spread(values)
                if share > bound:
                    verdict = "SPREAD"
                medians.append(mid)
                cells.append(f"{mid:.4g} [{q1:.4g}, {q3:.4g}] {share:.3f}")
                rows.append({"metric": name, "workload": workload, "bound": bound,
                             "median": mid, "q1": q1, "q3": q3, "spread": share,
                             "values": values})
            if any(worse_by(medians[0], m, better) > bound for m in medians[1:]):
                verdict = "DRIFT"
            steady &= verdict == "ok"
            print(f"{name:18s} {workload:13s} {bound:6.2f}  " + "  ".join(cells) + f"  {verdict}")
    failed = sum(run["failed"] for sets in results.values() for runs in sets for run in runs)
    print(f"failed operations across all runs: {failed}")
    if args.output is not None:
        args.output.write_text(json.dumps({
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "seeds": seeds,
            "seconds": seconds, "sets": SETS, "rows": rows,
        }, indent=1) + "\n")
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
