"""Integration tests: whole-pipeline flows across subpackages."""

import pytest

from busytime import (
    Instance,
    auto_schedule,
    available_schedulers,
    best_lower_bound,
    exact_optimal_cost,
    first_fit,
    get_scheduler,
    groom,
)
from busytime.analysis import ExperimentRunner, summarize_ratios, verify_lemma23
from busytime.generators import (
    firstfit_lower_bound_instance,
    local_traffic,
    proper_instance,
    uniform_random_instance,
    uniform_traffic,
)
from busytime.optical import traffic_to_instance


class TestPublicApi:
    def test_top_level_names_importable(self):
        import busytime

        for name in busytime.__all__:
            assert hasattr(busytime, name), name

    def test_quickstart_snippet(self):
        # The README / module docstring example must keep working.
        inst = Instance.from_intervals([(0, 3), (1, 4), (2, 6), (5, 9)], g=2)
        schedule = first_fit(inst)
        assert schedule.total_busy_time > 0
        assert schedule.num_machines >= 1


class TestEndToEndScheduling:
    def test_all_registered_algorithms_run_on_shared_instance(self):
        inst = uniform_random_instance(40, g=3, seed=21)
        for name in available_schedulers():
            sched = get_scheduler(name)(inst)
            sched.validate()
            assert sched.total_busy_time >= best_lower_bound(inst) - 1e-9

    def test_experiment_pipeline(self):
        runner = ExperimentRunner(
            {
                "first_fit": first_fit,
                "auto": auto_schedule,
            },
            compute_optimum=True,
            max_jobs_for_optimum=10,
        )
        grid = [{"n": 9, "g": 2, "seed": s} for s in range(3)]
        runner.run_grid(
            lambda n, g, seed: uniform_random_instance(n, g, horizon=25, seed=seed),
            grid,
        )
        assert runner.worst_ratio("first_fit", against="opt") <= 4.0 + 1e-9
        assert runner.worst_ratio("auto", against="opt") <= 4.0 + 1e-9
        text = runner.table(title="integration")
        assert "integration" in text

    def test_analysis_certificates_pipeline(self):
        inst = firstfit_lower_bound_instance(6)
        sched = first_fit(inst)
        assert verify_lemma23(sched)

    def test_exact_vs_heuristic_consistency(self):
        inst = proper_instance(10, g=2, seed=33)
        opt = exact_optimal_cost(inst)
        lb = best_lower_bound(inst)
        heuristic = auto_schedule(inst).total_busy_time
        assert lb - 1e-9 <= opt <= heuristic + 1e-9


class TestEndToEndOptical:
    @pytest.mark.parametrize("seed", range(3))
    def test_grooming_pipeline(self, seed):
        traffic = uniform_traffic(40, 80, g=4, seed=seed)
        assignment = groom(traffic)
        assignment.validate()
        inst = traffic_to_instance(traffic)
        lb = best_lower_bound(inst)
        assert assignment.regenerators() >= lb - 1e-9
        # grooming must beat (or match) the no-sharing deployment
        assert assignment.regenerators() <= traffic.total_regenerator_demand()

    def test_bounded_length_traffic_uses_bounded_class(self):
        traffic = local_traffic(80, 120, g=3, mean_hops=3, max_hops=5, seed=2)
        inst = traffic_to_instance(traffic)
        # hop counts are capped at 5, so job lengths (regenerator demands) are
        # at most 4 — the Section 3.2 bounded-length regime.
        assert inst.max_length <= 4.0
        assignment = groom(traffic)
        assignment.validate()

    def test_wavelength_count_reasonable(self):
        traffic = uniform_traffic(30, 90, g=3, seed=11)
        assignment = groom(traffic)
        # at least ceil(max link load / g) wavelengths are necessary
        necessary = -(-traffic.max_link_load() // traffic.g)
        assert assignment.num_wavelengths >= necessary


class TestCrossAlgorithmComparison:
    def test_summary_shapes(self):
        from busytime.analysis import measure

        instances = [uniform_random_instance(30, g=3, seed=s) for s in range(3)]
        measurements = []
        for inst in instances:
            for name in ("first_fit", "best_fit", "singleton"):
                measurements.append(measure(inst, get_scheduler(name)))
        summary = summarize_ratios(measurements)
        # singleton pays ~g times the parallelism bound; FirstFit must be
        # substantially better on dense random instances.
        assert (
            summary["first_fit"]["mean_ratio_lb"]
            <= summary["singleton"]["mean_ratio_lb"] + 1e-9
        )
