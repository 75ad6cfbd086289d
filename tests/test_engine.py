"""Tests for the solve-session engine (busytime.engine)."""

import pytest

from busytime.algorithms import auto_schedule, first_fit, get_scheduler
from busytime.algorithms.base import (
    algorithm_table,
    available_schedulers,
    register_scheduler,
)
from busytime.core.bounds import best_lower_bound
from busytime.core.instance import Instance
from busytime.engine import (
    Engine,
    RequestValidationError,
    SolveReport,
    SolveRequest,
    available_policies,
    get_policy,
    solve,
    solve_many,
)
from busytime.generators import (
    bounded_length_instance,
    clique_instance,
    proper_instance,
    uniform_random_instance,
)
from busytime.io import solve_report_from_dict, solve_report_to_dict

SEED_MAKERS = [
    lambda seed: uniform_random_instance(40, g=3, seed=seed),
    lambda seed: clique_instance(30, g=4, seed=seed),
    lambda seed: proper_instance(35, g=3, seed=seed),
    lambda seed: bounded_length_instance(40, g=3, d=3.0, seed=seed),
]


class TestRequestValidation:
    def test_rejects_non_instance(self):
        with pytest.raises(RequestValidationError):
            Engine().solve(SolveRequest(instance="not an instance"))

    def test_rejects_unknown_objective(self):
        inst = uniform_random_instance(5, g=2, seed=0)
        with pytest.raises(RequestValidationError):
            Engine().solve(SolveRequest(instance=inst, objective="makespan"))

    def test_rejects_unknown_algorithm(self):
        inst = uniform_random_instance(5, g=2, seed=0)
        with pytest.raises(RequestValidationError):
            Engine().solve(SolveRequest(instance=inst, algorithm="nope"))

    def test_rejects_unknown_policy(self):
        inst = uniform_random_instance(5, g=2, seed=0)
        with pytest.raises(RequestValidationError):
            Engine().solve(SolveRequest(instance=inst, policy="nope"))

    def test_rejects_negative_time_limit(self):
        inst = uniform_random_instance(5, g=2, seed=0)
        with pytest.raises(RequestValidationError):
            Engine().solve(SolveRequest(instance=inst, time_limit=-1.0))

    @pytest.mark.parametrize(
        "options",
        [{"time_limit": float("nan")}, {"race": 2, "deadline": float("nan")}],
        ids=["time_limit", "deadline"],
    )
    def test_rejects_nan_budgets(self, options):
        inst = uniform_random_instance(5, g=2, seed=0)
        with pytest.raises(RequestValidationError, match="non-negative, got nan"):
            Engine().solve(SolveRequest(instance=inst, **options))

    def test_unknown_name_refusals_carry_the_bare_message(self):
        inst = uniform_random_instance(5, g=2, seed=0)
        with pytest.raises(RequestValidationError) as err:
            SolveRequest(instance=inst, policy="nope").validate()
        assert str(err.value) == (
            f"unknown policy 'nope'; available: {sorted(available_policies())}"
        )
        with pytest.raises(RequestValidationError) as err:
            SolveRequest(instance=inst, algorithm="nope").validate()
        assert str(err.value).startswith("unknown scheduler 'nope'; available: [")

    def test_engine_rejects_unknown_default_policy(self):
        with pytest.raises(KeyError):
            Engine(default_policy="nope")


class TestSolve:
    def test_reproduces_auto_schedule_costs(self):
        engine = Engine()
        for maker in SEED_MAKERS:
            for seed in range(3):
                inst = maker(seed)
                report = engine.solve(SolveRequest(instance=inst))
                assert report.cost == auto_schedule(inst).total_busy_time
                assert report.algorithm == "auto"
                assert report.schedule.is_feasible()

    def test_portfolio_false_matches_wrapper(self):
        engine = Engine()
        inst = uniform_random_instance(40, g=2, seed=9)
        report = engine.solve(SolveRequest(instance=inst, portfolio=False))
        assert report.cost == auto_schedule(inst, portfolio=False).total_busy_time

    def test_report_carries_bounds_and_decisions(self):
        inst = Instance.from_intervals([(0, 2), (1, 3), (50, 52), (51, 53)], g=1)
        report = Engine().solve(SolveRequest(instance=inst))
        assert report.lower_bound == pytest.approx(best_lower_bound(inst))
        assert len(report.components) == 2
        assert all(d.proven_ratio is not None for d in report.components)
        assert report.proven_ratio == max(d.proven_ratio for d in report.components)
        assert report.ratio_vs_lb >= 1.0 - 1e-9
        assert report.timings["total"] >= report.timings["schedule"]

    def test_single_machine_component_is_optimal(self):
        inst = Instance.from_intervals([(0, 4), (1, 5), (2, 6)], g=3)
        report = Engine().solve(SolveRequest(instance=inst))
        assert report.components[0].algorithm == "single_machine"
        assert report.proven_ratio == 1.0
        assert report.cost == pytest.approx(inst.span)

    def test_forced_algorithm(self):
        inst = uniform_random_instance(30, g=2, seed=4)
        report = Engine().solve(SolveRequest(instance=inst, algorithm="first_fit"))
        assert report.algorithm == "first_fit"
        assert report.cost == first_fit(inst).total_busy_time
        assert report.proven_ratio == 4.0

    def test_compute_optimum(self):
        inst = uniform_random_instance(10, g=2, seed=3)
        report = Engine().solve(
            SolveRequest(instance=inst, compute_optimum=True, max_jobs_for_optimum=12)
        )
        assert report.optimum is not None
        assert report.ratio_vs_opt >= 1.0 - 1e-12
        assert "optimum" in report.timings

    def test_optimum_skipped_above_cap(self):
        inst = uniform_random_instance(30, g=2, seed=3)
        report = Engine().solve(
            SolveRequest(instance=inst, compute_optimum=True, max_jobs_for_optimum=5)
        )
        assert report.optimum is None

    def test_time_limit_zero_falls_back_to_first_fit(self):
        inst = uniform_random_instance(40, g=3, seed=5)
        report = Engine().solve(SolveRequest(instance=inst, time_limit=0.0))
        assert report.budget_exhausted
        assert all(d.algorithm == "first_fit" for d in report.components)
        report.schedule.validate()

    def test_empty_instance(self):
        report = Engine().solve(SolveRequest(instance=Instance(jobs=(), g=1)))
        assert report.num_machines == 0
        assert report.cost == 0.0
        assert report.ratio_vs_lb == 1.0

    def test_first_fit_policy(self):
        inst = proper_instance(30, g=2, seed=1)
        report = Engine().solve(SolveRequest(instance=inst, policy="first_fit"))
        assert set(available_policies()) >= {"best_ratio", "first_fit"}
        for decision in report.components:
            assert decision.algorithm in ("first_fit", "single_machine")

    def test_tags_echoed(self):
        inst = uniform_random_instance(5, g=2, seed=0)
        report = solve(SolveRequest(instance=inst, tags={"experiment": "e1"}))
        assert report.tags == {"experiment": "e1"}


class TestSolveMany:
    def _requests(self, count=50):
        return [
            SolveRequest(instance=uniform_random_instance(12, g=2, seed=seed))
            for seed in range(count)
        ]

    def test_preserves_order(self):
        requests = self._requests(8)
        reports = Engine().solve_many(requests)
        for request, report in zip(requests, reports):
            assert report.schedule.instance.name == request.instance.name

    def test_process_pool_matches_serial(self):
        requests = self._requests(50)
        engine = Engine()
        serial = engine.solve_many(requests)
        pooled = engine.solve_many(requests, max_workers=4)
        assert len(serial) == len(pooled) == 50
        for a, b in zip(serial, pooled):
            # Timings are wall-clock and excluded; everything else must be
            # bitwise identical between the serial and the pooled path.
            assert solve_report_to_dict(a, include_timings=False) == solve_report_to_dict(
                b, include_timings=False
            )

    def test_module_level_solve_many(self):
        reports = solve_many(self._requests(3))
        assert [type(r) for r in reports] == [SolveReport] * 3

    def test_invalid_request_fails_fast(self):
        requests = self._requests(2) + [SolveRequest(instance="bad")]
        with pytest.raises(RequestValidationError):
            Engine().solve_many(requests)

    def test_pool_worker_reuses_per_process_engine(self):
        from busytime.engine import core as engine_core

        engine_core._WORKER_ENGINE = None
        first = engine_core._pool_worker(self._requests(1)[0])
        built = engine_core._WORKER_ENGINE
        assert built is not None
        second = engine_core._pool_worker(self._requests(2)[1])
        assert engine_core._WORKER_ENGINE is built  # cached, not rebuilt
        assert first.cost > 0 and second.cost > 0

    def test_pool_path_threads_default_policy_through_requests(self):
        # A non-default engine policy must reach the workers via the
        # resolved request, not via (process-local) engine state.
        requests = self._requests(4)
        engine = Engine(default_policy="first_fit")
        pooled = engine.solve_many(requests, max_workers=2)
        assert all(r.policy == "first_fit" for r in pooled)
        serial = engine.solve_many(requests)
        for a, b in zip(serial, pooled):
            assert solve_report_to_dict(
                a, include_timings=False
            ) == solve_report_to_dict(b, include_timings=False)


class TestReportRoundTrip:
    def test_json_round_trip(self):
        inst = uniform_random_instance(15, g=2, seed=7)
        report = Engine().solve(SolveRequest(instance=inst, compute_optimum=True))
        data = solve_report_to_dict(report)
        back = solve_report_from_dict(data)
        assert solve_report_to_dict(back) == data
        assert back.cost == report.cost
        assert back.components == report.components
        assert back.optimum == report.optimum
        back.schedule.validate()

    def test_round_trip_rejects_other_documents(self):
        with pytest.raises(ValueError):
            solve_report_from_dict({"format": "busytime-instance"})


class TestRegistryUpgrade:
    def test_capability_metadata_exposed(self):
        table = {info.name: info for info in algorithm_table()}
        assert set(table) == set(available_schedulers())
        assert table["bounded_length"].max_length_ratio == 8.0
        assert table["clique"].instance_classes == ("clique",)
        assert table["auto"].composite
        assert not table["first_fit_ls"].portfolio_member

    def test_handles_queries_capabilities(self):
        clique = get_scheduler("clique")
        assert clique.handles(clique_instance(10, g=2, seed=0))
        assert not clique.handles(
            Instance.from_intervals([(0, 1), (5, 6)], g=1)
        )
        bounded = get_scheduler("bounded_length")
        assert not bounded.handles(
            Instance.from_intervals([(0, 1), (2, 102)], g=1)
        )

    def test_register_scheduler_decorator(self):
        @register_scheduler(name="tmp_decorated", approximation_ratio=None)
        def tmp_decorated(instance):
            return first_fit(instance)

        try:
            assert "tmp_decorated" in available_schedulers()
            inst = uniform_random_instance(10, g=2, seed=0)
            # The decorated function stays a plain function...
            assert tmp_decorated(inst).total_busy_time == first_fit(inst).total_busy_time
            # ...and the registered wrapper produces the same schedules.
            sched = get_scheduler("tmp_decorated")(inst)
            sched.validate()
            assert tmp_decorated.scheduler is get_scheduler("tmp_decorated")
        finally:
            from busytime.algorithms.base import _REGISTRY

            _REGISTRY.pop("tmp_decorated", None)

    def test_decorator_requires_name(self):
        with pytest.raises(TypeError):
            register_scheduler(approximation_ratio=2.0)

    def test_selection_policy_matches_structure(self):
        policy = get_policy("best_ratio")
        assert policy.choose(clique_instance(20, g=2, seed=0)) == "clique"
        ranked = policy.rank(proper_instance(30, g=2, seed=1))
        assert ranked[0] == "proper_greedy"
        assert "first_fit" in ranked  # the guarantee of last resort always applies
