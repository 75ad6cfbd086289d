"""Tests for the Section 3.2 Bounded_Length algorithm (Theorem 3.2, Lemma 3.3)."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from busytime.algorithms import bounded_length, first_fit
from busytime.algorithms.bounded_length import SegmentSolution, segment_jobs
from busytime.algorithms.base import get_scheduler
from busytime.core.bounds import best_lower_bound
from busytime.core.instance import Instance
from busytime.exact import exact_optimal_cost
from busytime.generators import bounded_length_instance, uniform_random_instance
from busytime.service import SolveService
from busytime.service.frontend import _request_from_document
from perfbench import workloads as wl

from test_bounded_length_pin import DIGESTS, corpus


class TestSegmentation:
    def test_segment_assignment(self):
        inst = Instance.from_intervals([(0, 1), (3.5, 4.5), (4, 5), (8, 9)], g=2)
        segments = segment_jobs(inst, d=4.0)
        assert sorted(segments) == [1, 2, 3]
        assert [j.id for j in segments[1]] == [0, 1]
        assert [j.id for j in segments[2]] == [2]
        assert [j.id for j in segments[3]] == [3]

    def test_segment_boundary_is_half_open(self):
        # start exactly at t_0 + d*r belongs to segment r+1
        inst = Instance.from_intervals([(0.0, 1.0), (4.0, 5.0)], g=1)
        segments = segment_jobs(inst, d=4.0)
        assert sorted(segments) == [1, 2]
        assert [j.id for j in segments[2]] == [1]

    def test_segment_grid_anchored_at_earliest_start(self):
        # The grid travels with the instance: translating every job leaves
        # the segmentation (and hence the schedule) unchanged.
        inst = Instance.from_intervals([(0, 1), (3.5, 4.5), (4, 5), (8, 9)], g=2)
        moved = Instance.from_intervals(
            [(s + 10.5, e + 10.5) for s, e in [(0, 1), (3.5, 4.5), (4, 5), (8, 9)]], g=2
        )
        base = segment_jobs(inst, d=4.0)
        shifted = segment_jobs(moved, d=4.0)
        assert {r: [j.id for j in jobs] for r, jobs in base.items()} == {
            r: [j.id for j in jobs] for r, jobs in shifted.items()
        }

    def test_invalid_d(self):
        inst = Instance.from_intervals([(0, 1)], g=1)
        with pytest.raises(ValueError):
            segment_jobs(inst, d=0)

    def test_all_jobs_covered(self, bounded_small):
        segments = segment_jobs(bounded_small, d=3.0)
        ids = sorted(j.id for jobs in segments.values() for j in jobs)
        assert ids == sorted(bounded_small.job_ids)


class TestAlgorithm:
    def test_feasible(self, bounded_small):
        bounded_length(bounded_small).validate()

    def test_empty(self):
        assert bounded_length(Instance(jobs=(), g=2)).num_machines == 0

    def test_meta_segments(self, bounded_small):
        sched = bounded_length(bounded_small, d=3.0)
        segments = sched.meta["segments"]
        assert all(isinstance(s, SegmentSolution) for s in segments)
        assert sum(s.num_jobs for s in segments) == bounded_small.n
        assert sched.meta["d"] == 3.0

    def test_default_d_is_max_length(self, bounded_small):
        sched = bounded_length(bounded_small)
        assert sched.meta["d"] == pytest.approx(bounded_small.max_length)

    def test_machines_never_mix_segments(self):
        inst = bounded_length_instance(40, g=3, d=3.0, horizon=30, seed=5)
        d = 3.0
        sched = bounded_length(inst, d=d)
        for m in sched.machines:
            segments = {int(math.floor(j.start / d)) for j in m.jobs}
            assert len(segments) == 1

    def test_registered(self):
        scheduler = get_scheduler("bounded_length")
        assert scheduler.instance_class == "bounded_length"


class TestTheorem32:
    @pytest.mark.parametrize("seed", range(6))
    def test_two_plus_eps_vs_exact_small(self, seed):
        inst = bounded_length_instance(11, g=2, d=2.5, horizon=12, seed=seed)
        sched = bounded_length(inst, d=2.5)
        opt = exact_optimal_cost(inst, initial_upper_bound=sched.total_busy_time)
        # segments solved exactly -> overall at most 2 * OPT (Lemma 3.3)
        assert sched.total_busy_time <= 2.0 * opt + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_large_instances_stay_reasonable(self, seed):
        inst = bounded_length_instance(250, g=4, d=4.0, horizon=120, seed=seed)
        sched = bounded_length(inst, d=4.0)
        lb = best_lower_bound(inst)
        assert sched.total_busy_time <= 4.0 * lb + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_not_much_worse_than_firstfit(self, seed):
        # The per-segment portfolio includes FirstFit, so Bounded_Length can
        # lose to global FirstFit only through the segment split, i.e. by at
        # most a factor 2 (Lemma 3.3 applied to FirstFit's own schedule).
        inst = bounded_length_instance(120, g=3, d=3.0, horizon=80, seed=seed)
        bl = bounded_length(inst, d=3.0)
        ff = first_fit(inst)
        assert bl.total_busy_time <= 2.0 * ff.total_busy_time + 1e-9

    def test_lemma33_segment_split_factor_two(self):
        """Splitting any schedule at segment boundaries at most doubles it."""
        inst = bounded_length_instance(60, g=3, d=3.0, horizon=40, seed=11)
        d = 3.0
        ff = first_fit(inst)
        from busytime.core.intervals import span

        split_cost = 0.0
        for m in ff.machines:
            by_segment = {}
            for j in m.jobs:
                by_segment.setdefault(int(math.floor(j.start / d)), []).append(j)
            split_cost += sum(span(jobs) for jobs in by_segment.values())
        assert split_cost <= 2.0 * ff.total_busy_time + 1e-9


class TestFlowOnlyForTiedThreads:
    """Step 2's max flow runs only for a segment with a tied thread.

    Elsewhere the thread grouping is the only perfect b-matching and is
    built directly.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        module = sys.modules["busytime.algorithms.bounded_length"]
        counts = {"flow": 0, "packing": 0}

        def counted(key, real):
            def wrapper(*args):
                counts[key] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(
            module,
            "max_bipartite_b_matching",
            counted("flow", module.max_bipartite_b_matching),
        )
        monkeypatch.setattr(
            module, "_is_packing_schedule", counted("packing", module._is_packing_schedule)
        )
        return counts

    def test_no_flow_on_the_pinned_instances(self, calls):
        for name in DIGESTS:
            for instance in corpus(name):
                bounded_length(instance)
        assert calls["packing"] > 0
        assert calls["flow"] == 0

    def test_no_flow_on_a_solve_cold_cycle(self, calls):
        service = SolveService()
        try:
            for index in range(wl.COLD_CYCLE):
                document = json.loads(wl.cold_op(1, index).body)
                service.result(service.submit(_request_from_document(document)))
        finally:
            service.close()
        assert calls["packing"] > 0
        assert calls["flow"] == 0

    def test_flow_runs_on_tied_integral_starts(self, calls):
        bounded_length(bounded_length_instance(200, 5, d=5.0, seed=13))
        assert calls["flow"] >= 1


_HASH_SEED_SCRIPT = textwrap.dedent(
    """
    from busytime.algorithms import bounded_length
    from busytime.generators import bounded_length_instance

    schedule = bounded_length(bounded_length_instance(200, 5, d=5.0, seed=13))
    print([[job.id for job in machine.jobs] for machine in schedule.machines])
    print(repr(schedule.total_busy_time))
    """
)


def test_same_schedule_under_every_hash_seed():
    # Tied threads leave the matching to the max flow; its answer must not
    # depend on the process's string hashing.
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr[-2000:]
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
