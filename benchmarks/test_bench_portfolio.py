"""E23 — anytime portfolio racing.

The portfolio layer (:mod:`busytime.portfolio`) makes two claims:

* racing is *anytime*: the winner's cost is non-increasing in the race
  budget, and every incumbent improvement the racer books is real
  (strictly decreasing timeline);
* every race winner passes the independent ``verify_schedule`` oracle and
  never loses to the static single pick it subsumes.

This module regenerates those claims with the corpus and runners from
``scripts/bench_portfolio.py`` (the same harness behind
``BENCH_portfolio.json``).  It takes about a second, so it runs in tier-1.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_portfolio  # noqa: E402

from busytime.engine import Engine, SolveRequest


def test_portfolio_claims_hold(benchmark, attach_rows):
    engine = Engine()

    # The runners raise SystemExit on any claim violation, so reaching the
    # assertions below *is* the reproduction check.
    anytime = bench_portfolio.run_anytime(engine)
    racing = bench_portfolio.run_racing_vs_static(engine)

    assert len(anytime) == len(bench_portfolio.eval_corpus())
    for row in anytime:
        costs = row["costs"]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    assert all(r["raced_cost"] <= r["static_cost"] + 1e-9 for r in racing)
    assert all(r["decisive"] for r in racing)

    # Time one representative race (the whole-corpus runners above are the
    # reproduction; this is the perf datapoint).
    instance = bench_portfolio.eval_corpus()[0][1]
    request = SolveRequest(instance=instance, race=4)
    benchmark(lambda: engine.solve(request))
    attach_rows(benchmark, racing, anytime=anytime)
