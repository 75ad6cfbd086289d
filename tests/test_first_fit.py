"""Tests for the Section 2 FirstFit algorithm (Theorems 2.1, 2.4, 2.5)."""

import importlib
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from busytime.algorithms import first_fit, first_fit_order
from busytime.algorithms.base import get_scheduler
from busytime.algorithms.first_fit import _builder_first_fit, _bulk_first_fit
from busytime.core.bounds import best_lower_bound
from busytime.core.bulk import MAX_BITMASK_MACHINES
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import verify_schedule
from busytime.exact import exact_optimal_cost
from busytime.generators import (
    bounded_length_instance,
    bursty_instance,
    clique_instance,
    fig4_reference_schedule,
    firstfit_lower_bound_instance,
    firstfit_lower_bound_opt_cost,
    laminar_instance,
    poisson_arrivals_instance,
    proper_instance,
    ranked_shift_proper_instance,
    stairs_instance,
    theorem24_parameters,
    uniform_random_instance,
)

# ``busytime.algorithms`` re-exports the ``first_fit`` *function* under the
# submodule's name, so go through importlib for the module object.
_ff_module = importlib.import_module("busytime.algorithms.first_fit")


class TestMechanics:
    def test_order_is_longest_first(self):
        inst = Instance.from_intervals([(0, 1), (0, 5), (0, 3)], g=2)
        order = first_fit_order(inst.jobs)
        assert [j.length for j in order] == [5, 3, 1]

    def test_order_tie_break_by_start(self):
        inst = Instance.from_intervals([(5, 7), (0, 2)], g=2)
        order = first_fit_order(inst.jobs)
        assert [j.start for j in order] == [0, 5]

    def test_single_job(self):
        inst = Instance.from_intervals([(2, 9)], g=3)
        sched = first_fit(inst)
        assert sched.num_machines == 1
        assert sched.total_busy_time == 7

    def test_empty_instance(self):
        sched = first_fit(Instance(jobs=(), g=2))
        assert sched.num_machines == 0
        assert sched.total_busy_time == 0

    def test_g1_uses_one_machine_per_conflict(self):
        inst = Instance.from_intervals([(0, 2), (1, 3)], g=1)
        sched = first_fit(inst)
        assert sched.num_machines == 2

    def test_schedule_feasible(self, random_medium):
        first_fit(random_medium).validate()

    def test_uses_first_machine_that_fits(self):
        # Three pairwise-disjoint jobs, g = 1: all should go to machine 0.
        inst = Instance.from_intervals([(0, 1), (2, 3), (4, 5)], g=1)
        sched = first_fit(inst)
        assert sched.num_machines == 1

    def test_opens_machine_when_full(self):
        inst = Instance.from_intervals([(0, 10)] * 5, g=2)
        sched = first_fit(inst)
        assert sched.num_machines == 3  # ceil(5/2)

    def test_meta_processing_order(self, random_small):
        sched = first_fit(random_small)
        order = sched.meta["processing_order"]
        assert sorted(order) == sorted(j.id for j in random_small.jobs)

    def test_registered(self):
        scheduler = get_scheduler("first_fit")
        assert scheduler.approximation_ratio == 4.0
        assert scheduler.paper_section == "Section 2"


class TestTheorem21UpperBound:
    """FirstFit <= 4 * OPT (measured against the exact optimum)."""

    @pytest.mark.parametrize("seed", range(10))
    def test_small_uniform(self, seed):
        inst = uniform_random_instance(9, g=2, horizon=25, seed=seed)
        ff = first_fit(inst)
        opt = exact_optimal_cost(inst, initial_upper_bound=ff.total_busy_time)
        assert ff.total_busy_time <= 4.0 * opt + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_small_poisson(self, seed):
        inst = poisson_arrivals_instance(9, g=3, seed=seed)
        ff = first_fit(inst)
        opt = exact_optimal_cost(inst, initial_upper_bound=ff.total_busy_time)
        assert ff.total_busy_time <= 4.0 * opt + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_large_against_lower_bound(self, seed):
        # LB <= OPT, so staying under 4*LB is a strictly stronger check; it is
        # not implied by the theorem but holds comfortably on random inputs.
        inst = uniform_random_instance(150, g=5, seed=seed)
        ff = first_fit(inst)
        assert ff.total_busy_time <= 4.0 * best_lower_bound(inst) + 1e-9

    def test_never_below_lower_bound(self, random_medium):
        ff = first_fit(random_medium)
        assert ff.total_busy_time >= best_lower_bound(random_medium) - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_bursty(self, seed):
        inst = bursty_instance(60, g=4, seed=seed)
        ff = first_fit(inst)
        assert ff.total_busy_time <= 4.0 * best_lower_bound(inst) + 1e-9


class TestTheorem24LowerBound:
    """The Fig. 4 family drives FirstFit's ratio towards 3."""

    @pytest.mark.parametrize("g", [3, 5, 10, 20])
    def test_ratio_matches_construction(self, g):
        eps_prime = 0.05
        inst = firstfit_lower_bound_instance(g, eps_prime)
        ff = first_fit(inst)
        opt_ub = fig4_reference_schedule(inst).total_busy_time
        ratio = ff.total_busy_time / opt_ub
        expected = (3 - 2 * eps_prime) * g / (g + 1)
        assert ratio == pytest.approx(expected, rel=1e-3)

    def test_ratio_exceeds_three_minus_eps(self):
        eps = 0.25
        eps_prime, g = theorem24_parameters(eps)
        inst = firstfit_lower_bound_instance(g, eps_prime)
        ff = first_fit(inst)
        opt_ub = firstfit_lower_bound_opt_cost(g, eps_prime)
        assert ff.total_busy_time / opt_ub > 3 - eps

    def test_reference_schedule_cost(self):
        g = 8
        inst = firstfit_lower_bound_instance(g, 0.05)
        ref = fig4_reference_schedule(inst)
        assert ref.total_busy_time == pytest.approx(g + 1, rel=1e-4)

    def test_unperturbed_instance_is_tie_break_dependent(self):
        # Without the length perturbation, our deterministic tie-breaking is
        # actually favourable: FirstFit stays near OPT (cost <= OPT + span).
        g = 10
        inst = firstfit_lower_bound_instance(g, 0.05, perturb=False)
        ff = first_fit(inst)
        opt_ub = fig4_reference_schedule(inst).total_busy_time
        assert ff.total_busy_time <= opt_ub + inst.span + 1e-9

    def test_theorem24_parameters_validation(self):
        with pytest.raises(ValueError):
            theorem24_parameters(0.0)
        with pytest.raises(ValueError):
            theorem24_parameters(1.5)
        eps_prime, g = theorem24_parameters(0.5)
        assert eps_prime == pytest.approx(0.125)
        assert g >= 11


def _grid_ties_instance(n: int, g: int, seed: int) -> Instance:
    """Integer-grid jobs, zero lengths included: many shared endpoints."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        start = rng.randrange(60)
        pairs.append((start, start + rng.randrange(6)))
    return Instance.from_intervals(pairs, g=g)


def _machine_orders(schedule):
    return [tuple(j.id for j in m.jobs) for m in schedule.machines]


class TestBulkKernel:
    """The saturation-bitmask kernel ``first_fit`` switches to from
    ``BULK_FIRST_FIT_MIN`` unit-demand jobs, against the builder loop."""

    @pytest.mark.parametrize(
        "label,instance",
        [
            ("uniform-g2", uniform_random_instance(400, 2, seed=11)),
            ("uniform-g7", uniform_random_instance(600, 7, seed=12)),
            ("poisson", poisson_arrivals_instance(400, 3, seed=13)),
            ("bursty", bursty_instance(400, 4, seed=14)),
            ("proper", proper_instance(300, 3, seed=15)),
            ("clique", clique_instance(120, 5, seed=16)),
            ("bounded", bounded_length_instance(300, 3, d=3.0, seed=17)),
            ("laminar", laminar_instance(200, 3, seed=18)),
            ("stairs", stairs_instance(120, 4)),
            ("fig4", firstfit_lower_bound_instance(6)),
            ("ranked-shift", ranked_shift_proper_instance(6)),
            ("grid-ties", _grid_ties_instance(500, 4, seed=19)),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_kernel_matches_builder(self, label, instance):
        builder = _builder_first_fit(instance)
        kernel = _bulk_first_fit(instance)
        assert kernel is not None, f"{label}: kernel fell back"
        assert kernel.meta["kernel"] == "bulk"
        assert kernel.meta["processing_order"] == builder.meta["processing_order"]
        assert _machine_orders(kernel) == _machine_orders(builder)
        verify_schedule(kernel, mode="batch")

    @pytest.mark.parametrize(
        "n,g,demand,kernel",
        [
            (19, 3, 1, False),  # one job short of the gate: builder
            (20, 3, 1, True),  # at the gate: kernel
            (20, 3, 2, False),  # demands: builder whatever the size
            (MAX_BITMASK_MACHINES + 1, 1, 1, False),  # too many machines
        ],
        ids=["below-gate", "at-gate", "demands", "bitmask-overflow"],
    )
    def test_input_size_picks_the_path(self, monkeypatch, n, g, demand, kernel):
        monkeypatch.setattr(_ff_module, "BULK_FIRST_FIT_MIN", 20)
        # All jobs share [0, 1] except the last, so with g = 1 every job
        # needs its own machine and the bitmask runs out of bits.
        jobs = [Job(id=i, interval=Interval(0.0, 1.0)) for i in range(n - 1)]
        jobs.append(Job(id=n - 1, interval=Interval(0.5, 2.0), demand=demand))
        instance = Instance(jobs=jobs, g=g)
        schedule = first_fit(instance)
        assert (schedule.meta.get("kernel") == "bulk") is kernel
        assert _machine_orders(schedule) == _machine_orders(
            _builder_first_fit(instance)
        )
        verify_schedule(schedule)


# Demand FirstFit at E21's density (horizon = n / 20): ~50 machines over
# 240k breakpoints.  Each machine profile must stay proportional to its own
# jobs; a per-machine structure sized by the whole instance's breakpoints
# exhausts the address-space cap long before the schedule is built.
_MEMORY_CAP_SCRIPT = textwrap.dedent(
    """
    import resource

    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    from busytime.algorithms import first_fit
    from busytime.core.schedule import verify_schedule
    from busytime.generators import demand_loaded_instance

    inst = demand_loaded_instance(
        120_000, 10, horizon=6000.0, max_demand=3, seed=7
    )
    verify_schedule(first_fit(inst), mode="batch")
    """
)


@pytest.mark.slow
def test_demand_first_fit_120k_fits_in_one_gib():
    pytest.importorskip("resource")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_CAP_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
