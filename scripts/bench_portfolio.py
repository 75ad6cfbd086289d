#!/usr/bin/env python
"""Anytime portfolio racing benchmark (experiment E23).

Regenerates the portfolio layer's two claims into ``BENCH_portfolio.json``
and exits non-zero if either fails to hold:

* **anytime** — the race winner's cost is non-increasing in the race budget
  (candidate width), and within a single race the incumbent timeline is
  strictly decreasing: more budget never hurts, and every improvement the
  racer books is a real one;
* **racing is safe** — every race winner passes the independent
  :func:`verify_schedule` oracle and costs no more than the static single
  pick on the same instance.

The evaluation corpus mirrors ``tests/test_differential_corpus.py`` (one
entry per generator family).

Usage::

    python scripts/bench_portfolio.py
    python scripts/bench_portfolio.py --output BENCH_portfolio.json

``benchmarks/test_bench_portfolio.py`` imports the corpus and runners from
here, so the pytest gate and this script measure the same thing.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from busytime.core.instance import Instance  # noqa: E402
from busytime.core.schedule import verify_schedule  # noqa: E402
from busytime.engine import Engine, SolveRequest  # noqa: E402
from busytime.generators import (  # noqa: E402
    bounded_length_instance,
    bursty_instance,
    clique_instance,
    firstfit_lower_bound_instance,
    laminar_instance,
    poisson_arrivals_instance,
    proper_instance,
    ranked_shift_proper_instance,
    stairs_instance,
    uniform_random_instance,
    uniform_traffic,
)
from busytime.optical import traffic_to_instance  # noqa: E402

_EPS = 1e-9

#: Race widths swept for the anytime claim.
WIDTHS = (2, 3, 4)


def eval_corpus() -> List[Tuple[str, Instance]]:
    """The differential corpus: one entry per (family, construction)."""
    return [
        ("random-uniform", uniform_random_instance(40, 3, seed=0)),
        ("random-poisson", poisson_arrivals_instance(40, 3, seed=1)),
        ("random-bursty", bursty_instance(40, 4, seed=2)),
        ("structured-proper", proper_instance(30, 3, seed=3)),
        ("structured-clique", clique_instance(18, 3, seed=4)),
        ("structured-bounded", bounded_length_instance(30, 3, d=3.0, seed=5)),
        ("structured-laminar", laminar_instance(25, 3, seed=6)),
        ("structured-stairs", stairs_instance(24, 3)),
        ("adversarial-fig4", firstfit_lower_bound_instance(4)),
        ("adversarial-ranked-shift", ranked_shift_proper_instance(4)),
        ("optical-uniform", traffic_to_instance(uniform_traffic(10, 30, 3, seed=7))),
    ]


def run_anytime(engine: Engine) -> List[Dict[str, object]]:
    """Sweep race widths per corpus instance; assert the anytime shape."""
    rows = []
    for label, instance in eval_corpus():
        costs = []
        for width in WIDTHS:
            report = engine.solve(SolveRequest(instance=instance, race=width))
            verify_schedule(report.schedule)
            costs.append(report.cost)
        for narrow, wide in zip(costs, costs[1:]):
            if wide > narrow + _EPS:
                raise SystemExit(
                    f"anytime violation on {label}: widening the race budget "
                    f"raised the cost ({narrow} -> {wide})"
                )
        widest = engine.solve(SolveRequest(instance=instance, race=WIDTHS[-1]))
        timeline = list(widest.race.incumbent_timeline)
        for (_, before), (_, after) in zip(timeline, timeline[1:]):
            if after >= before - _EPS:
                raise SystemExit(
                    f"incumbent timeline on {label} is not strictly "
                    f"decreasing: {timeline}"
                )
        rows.append(
            {
                "instance": label,
                "n": instance.n,
                "g": instance.g,
                "widths": list(WIDTHS),
                "costs": costs,
                "lower_bound": widest.lower_bound,
                "winner": widest.algorithm,
                "incumbent_timeline": [[t, c] for t, c in timeline],
            }
        )
    return rows


def run_racing_vs_static(engine: Engine) -> List[Dict[str, object]]:
    """A race must never lose to the static single pick it subsumes."""
    rows = []
    for label, instance in eval_corpus():
        static = engine.solve(SolveRequest(instance=instance, portfolio=False))
        raced = engine.solve(SolveRequest(instance=instance, race=WIDTHS[-1]))
        verify_schedule(raced.schedule)
        if raced.cost > static.cost + _EPS:
            raise SystemExit(
                f"race on {label} lost to the static single pick "
                f"({raced.cost} > {static.cost})"
            )
        rows.append(
            {
                "instance": label,
                "static_cost": static.cost,
                "raced_cost": raced.cost,
                "raced": len(raced.race.candidates),
                "decisive": raced.race.decisive,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_portfolio.json")
    args = parser.parse_args(argv)

    engine = Engine()
    anytime = run_anytime(engine)
    racing = run_racing_vs_static(engine)

    doc = {
        "experiment": "E23",
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "anytime": anytime,
        "racing": racing,
    }
    Path(args.output).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    static_total = sum(r["static_cost"] for r in racing)
    raced_total = sum(r["raced_cost"] for r in racing)
    print(
        f"E23: anytime sweep clean on {len(anytime)} instances; racing never "
        f"lost on {len(racing)} (race total {raced_total:.3f} vs static "
        f"total {static_total:.3f})"
    )
    print(f"written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
