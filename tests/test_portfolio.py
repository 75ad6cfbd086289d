"""Tests for the portfolio layer: anytime racing.

Two contracts are pinned here:

* **Determinism** — repeated races on the same request produce bit-identical
  winning schedules, serially and under a real executor, because acceptance
  is resolved in rank order and ties break by ``(cost, rank)``.
* **Safety** — a poisoned candidate (raises, or returns an infeasible
  schedule) loses its own slot and nothing else; every race winner passes
  the independent :func:`verify_schedule` oracle.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from busytime import Engine, Instance, SolveRequest
from busytime import io as bio
from busytime.algorithms import get_scheduler
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import verify_schedule
from busytime.engine.policy import SINGLE_MACHINE, BestRatioPolicy, FirstFitPolicy
from busytime.engine.request import RequestValidationError
from busytime.generators import uniform_random_instance
from busytime.portfolio import race_candidates
from busytime.portfolio import racer as racer_module


def _busy_time_model():
    from busytime.core.objectives import get_cost_model

    return get_cost_model("busy_time")


def _schedule_signature(schedule):
    """A bit-level fingerprint of machine contents for equality checks."""
    return tuple(
        tuple((j.id, j.start, j.end) for j in m.jobs) for m in schedule.machines
    )


def _relabeled_shifted(instance: Instance, delta: float = 64.0) -> Instance:
    """Same instance up to relabeling and exact (dyadic) translation."""
    jobs = list(instance.jobs)[::-1]
    return Instance(
        jobs=tuple(
            Job(
                id=1000 + k,
                interval=Interval(j.start + delta, j.end + delta),
                weight=j.weight,
                tag=j.tag,
                demand=j.demand,
            )
            for k, j in enumerate(jobs)
        ),
        g=instance.g,
        name="variant",
    )


# ---------------------------------------------------------------------------
# Racing: determinism
# ---------------------------------------------------------------------------


class TestRaceDeterminism:
    def test_repeated_serial_races_are_bit_identical(self):
        inst = uniform_random_instance(35, 3, seed=7)
        request = SolveRequest(instance=inst, race=4)
        model = _busy_time_model()
        first = race_candidates(request, "best_ratio", model)
        for _ in range(3):
            again = race_candidates(request, "best_ratio", model)
            assert again.algorithm == first.algorithm
            assert _schedule_signature(again.schedule) == _schedule_signature(
                first.schedule
            )

    def test_executor_race_matches_serial_winner(self):
        inst = uniform_random_instance(35, 3, seed=8)
        request = SolveRequest(instance=inst, race=4)
        model = _busy_time_model()
        serial = race_candidates(request, "best_ratio", model)
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                raced = race_candidates(request, "best_ratio", model, executor=pool)
                assert raced.algorithm == serial.algorithm
                assert _schedule_signature(raced.schedule) == _schedule_signature(
                    serial.schedule
                )

    def test_race_through_engine_fills_the_report_tail(self):
        inst = uniform_random_instance(30, 3, seed=9)
        report = Engine().solve(SolveRequest(instance=inst, race=3))
        assert report.race is not None
        assert report.lower_bound > 0.0
        assert report.cost >= report.lower_bound - 1e-9
        assert report.race.decisive
        assert not report.budget_exhausted
        summary = report.summary()
        assert summary["raced"] == len(report.race.candidates)
        assert summary["race_decisive"] is True
        winner_rows = [c for c in report.race.candidates if c.winner]
        assert len(winner_rows) == 1
        assert winner_rows[0].algorithm == report.algorithm

    def test_single_machine_shortcut_is_a_one_candidate_race(self):
        inst = Instance(
            jobs=(Job(id=0, interval=Interval(0, 4)), Job(id=1, interval=Interval(1, 5))),
            g=3,
        )
        report = Engine().solve(SolveRequest(instance=inst, race=2))
        assert report.algorithm == SINGLE_MACHINE
        assert report.proven_ratio == 1.0
        assert len(report.race.candidates) == 1
        assert report.race.decisive

    def test_incumbent_timeline_is_strictly_decreasing(self):
        inst = uniform_random_instance(40, 3, seed=10)
        report = race_candidates(
            SolveRequest(instance=inst, race=4), "best_ratio", _busy_time_model()
        )
        costs = [cost for _, cost in report.race.incumbent_timeline]
        assert costs, "a decisive race books at least one incumbent"
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert costs[-1] == pytest.approx(report.cost)


# ---------------------------------------------------------------------------
# Racing: early acceptance, deadlines, fallback
# ---------------------------------------------------------------------------


class TestRaceBudgets:
    def test_generous_accept_factor_stops_at_rank_zero(self):
        inst = uniform_random_instance(30, 3, seed=11)
        request = SolveRequest(instance=inst, race=3)
        report = race_candidates(
            request, "best_ratio", _busy_time_model(), accept_factor=100.0
        )
        winner = next(c for c in report.race.candidates if c.winner)
        assert winner.rank == 0
        later = [c for c in report.race.candidates if c.rank > 0]
        assert later and all(c.status == "cancelled" for c in later)

    def test_generous_accept_factor_under_executor_still_picks_rank_zero(self):
        inst = uniform_random_instance(30, 3, seed=12)
        request = SolveRequest(instance=inst, race=3)
        with ThreadPoolExecutor(max_workers=3) as pool:
            report = race_candidates(
                request,
                "best_ratio",
                _busy_time_model(),
                executor=pool,
                accept_factor=100.0,
            )
        winner = next(c for c in report.race.candidates if c.winner)
        assert winner.rank == 0

    def test_zero_deadline_truncates_and_falls_back(self):
        inst = uniform_random_instance(30, 3, seed=13)
        request = SolveRequest(instance=inst, race=3, deadline=0.0)
        report = race_candidates(request, "best_ratio", _busy_time_model())
        assert report.budget_exhausted
        assert report.race.fallback
        assert not report.race.decisive
        assert report.algorithm == "first_fit"
        verify_schedule(report.schedule)
        fallback_rows = [c for c in report.race.candidates if c.winner]
        assert fallback_rows[0].status == "finished"

    def test_engine_deadline_kwarg_overrides_the_request(self):
        inst = uniform_random_instance(30, 3, seed=14)
        report = Engine().solve(
            SolveRequest(instance=inst), race=3, deadline=0.0
        )
        assert report.budget_exhausted
        assert report.race is not None and report.race.fallback


# ---------------------------------------------------------------------------
# Racing: safety under poisoned candidates
# ---------------------------------------------------------------------------


class _Poisoned:
    """Wraps a real scheduler: same metadata, raises when actually run."""

    def __init__(self, real):
        self._real = real

    def __call__(self, instance):
        raise RuntimeError("poisoned candidate")

    def schedule_under(self, instance, model=None):
        raise RuntimeError("poisoned candidate")

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestRaceSafety:
    def test_poisoned_top_candidate_loses_only_its_slot(self, monkeypatch):
        inst = uniform_random_instance(30, 3, seed=15)
        request = SolveRequest(instance=inst, race=3)
        model = _busy_time_model()
        clean = race_candidates(request, "best_ratio", model)
        target = BestRatioPolicy().rank(inst)[0]

        real_get = racer_module.get_scheduler

        def poisoned_get(name):
            scheduler = real_get(name)
            return _Poisoned(scheduler) if name == target else scheduler

        monkeypatch.setattr(racer_module, "get_scheduler", poisoned_get)
        report = race_candidates(request, "best_ratio", model)
        rows = {c.algorithm: c for c in report.race.candidates}
        assert rows[target].status == "failed"
        assert report.algorithm != target
        verify_schedule(report.schedule)
        # The poisoned candidate never pollutes the incumbent timeline.
        finished = [c for c in report.race.candidates if c.status == "finished"]
        assert report.cost == pytest.approx(min(c.cost for c in finished))
        assert report.cost >= clean.cost - 1e-9

    def test_poisoned_candidate_under_executor(self, monkeypatch):
        inst = uniform_random_instance(30, 3, seed=16)
        request = SolveRequest(instance=inst, race=3)
        model = _busy_time_model()
        target = BestRatioPolicy().rank(inst)[0]
        real_get = racer_module.get_scheduler

        def poisoned_get(name):
            scheduler = real_get(name)
            return _Poisoned(scheduler) if name == target else scheduler

        monkeypatch.setattr(racer_module, "get_scheduler", poisoned_get)
        with ThreadPoolExecutor(max_workers=3) as pool:
            report = race_candidates(request, "best_ratio", model, executor=pool)
        rows = {c.algorithm: c for c in report.race.candidates}
        assert rows[target].status == "failed"
        verify_schedule(report.schedule)


# ---------------------------------------------------------------------------
# Request validation and solve_many ordering
# ---------------------------------------------------------------------------


class TestRequestPlumbing:
    def test_race_of_one_is_rejected(self):
        inst = uniform_random_instance(10, 3, seed=0)
        with pytest.raises(RequestValidationError, match="race"):
            SolveRequest(instance=inst, race=1).validate()

    def test_race_with_forced_algorithm_is_rejected(self):
        inst = uniform_random_instance(10, 3, seed=0)
        with pytest.raises(RequestValidationError, match="incompatible"):
            SolveRequest(instance=inst, race=2, algorithm="first_fit").validate()

    def test_deadline_requires_racing(self):
        inst = uniform_random_instance(10, 3, seed=0)
        with pytest.raises(RequestValidationError, match="deadline"):
            SolveRequest(instance=inst, deadline=1.0).validate()

    def test_negative_deadline_is_rejected(self):
        inst = uniform_random_instance(10, 3, seed=0)
        with pytest.raises(RequestValidationError, match="deadline"):
            SolveRequest(instance=inst, race=2, deadline=-1.0).validate()

    def test_options_dict_carries_race_and_deadline(self):
        inst = uniform_random_instance(10, 3, seed=0)
        options = SolveRequest(instance=inst, race=3, deadline=2.5).options_dict()
        assert options["race"] == 3
        assert options["deadline"] == 2.5

    def test_solve_many_preserves_request_order_with_mixed_racing(self):
        engine = Engine()
        requests = []
        for i in range(6):
            inst = uniform_random_instance(10 + i, 3, seed=20 + i)
            requests.append(
                SolveRequest(instance=inst, race=2 if i % 2 else 0)
            )
        for max_workers in (None, 2):
            reports = engine.solve_many(requests, max_workers=max_workers)
            assert len(reports) == len(requests)
            for request, report in zip(requests, reports):
                assert report.schedule.instance.n == request.instance.n
                assert (report.race is not None) == (request.race >= 2)


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------


class TestRaceSerialization:
    def test_race_outcome_round_trips_with_timings(self):
        inst = uniform_random_instance(25, 3, seed=30)
        report = Engine().solve(SolveRequest(instance=inst, race=3))
        doc = bio.solve_report_to_dict(report, include_timings=True)
        assert "race" in doc
        back = bio.solve_report_from_dict(doc)
        assert back.race is not None
        assert back.race.candidates == report.race.candidates
        assert back.race.decisive == report.race.decisive
        assert back.race.incumbent_timeline == report.race.incumbent_timeline
        assert back.race.winner.algorithm == report.algorithm

    def test_store_serialization_drops_race_telemetry(self):
        inst = uniform_random_instance(25, 3, seed=31)
        report = Engine().solve(SolveRequest(instance=inst, race=3))
        doc = bio.solve_report_to_dict(report, include_timings=False)
        assert "race" not in doc
        back = bio.solve_report_from_dict(doc)
        assert back.race is None
        # The schedule itself still round-trips bit-exactly.
        assert _schedule_signature(back.schedule) == _schedule_signature(
            report.schedule
        )


# ---------------------------------------------------------------------------
# Policy capability coverage (demand-aware + objective filtering)
# ---------------------------------------------------------------------------


def _demand_instance() -> Instance:
    jobs = tuple(
        Job(id=i, interval=Interval(i * 0.5, i * 0.5 + 4.0), demand=2)
        for i in range(8)
    )
    return Instance(jobs=jobs, g=3)


class TestPolicyCapabilityCoverage:
    @pytest.mark.parametrize(
        "policy", [BestRatioPolicy(), FirstFitPolicy()]
    )
    def test_demand_instances_rank_only_demand_aware(self, policy):
        ranked = policy.rank(_demand_instance())
        assert ranked
        for name in ranked:
            assert get_scheduler(name).demand_aware

    @pytest.mark.parametrize(
        "policy", [BestRatioPolicy(), FirstFitPolicy()]
    )
    def test_objective_filtering(self, policy):
        inst = uniform_random_instance(25, 3, seed=70)
        ranked = policy.rank(inst, "machines_plus_busy")
        assert ranked
        for name in ranked:
            assert get_scheduler(name).supports_objective("machines_plus_busy")

    def test_racing_a_demand_instance_stays_feasible(self):
        report = Engine().solve(SolveRequest(instance=_demand_instance(), race=2))
        verify_schedule(report.schedule)
        # Ratio proofs cover the unit-demand model only.
        assert report.proven_ratio is None


# ---------------------------------------------------------------------------
# CLI: solve --race
# ---------------------------------------------------------------------------


class TestPortfolioCli:
    def test_solve_with_race_prints_the_race_columns(self, tmp_path, capsys):
        from busytime.cli import main
        from busytime.io import save_instance

        path = tmp_path / "inst.json"
        save_instance(uniform_random_instance(20, 3, seed=90), path)
        rc = main(["solve", str(path), "--race", "3", "--deadline", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "raced" in out
        assert "decisive" in out

    def test_race_of_one_is_a_one_line_cli_error(self, tmp_path, capsys):
        from busytime.cli import main
        from busytime.io import save_instance

        path = tmp_path / "inst.json"
        save_instance(uniform_random_instance(10, 3, seed=91), path)
        rc = main(["solve", str(path), "--race", "1"])
        assert rc == 2
        assert "race" in capsys.readouterr().err

    def test_submit_parser_accepts_race_and_deadline_ms(self):
        from busytime.cli import build_parser

        args = build_parser().parse_args(
            ["submit", "x.json", "--race", "3", "--deadline-ms", "250"]
        )
        assert args.race == 3
        assert args.deadline_ms == 250


# ---------------------------------------------------------------------------
# Service + HTTP frontend: racing behind admission control
# ---------------------------------------------------------------------------


class TestServiceRacing:
    def test_admission_caps_the_deadline(self):
        from busytime.service import AdmissionError, AdmissionLimits

        limits = AdmissionLimits(max_time_limit=5.0)
        inst = uniform_random_instance(10, 3, seed=80)
        with pytest.raises(AdmissionError, match="deadline"):
            limits.admit(SolveRequest(instance=inst, race=2, deadline=10.0))

    def test_admission_supplies_a_deadline_for_races(self):
        from busytime.service import AdmissionLimits

        limits = AdmissionLimits(max_time_limit=5.0)
        inst = uniform_random_instance(10, 3, seed=81)
        admitted = limits.admit(SolveRequest(instance=inst, race=2))
        assert admitted.deadline == 5.0

    def test_service_races_and_caches_decisive_results(self):
        from busytime.service import AdmissionLimits, SolveService

        service = SolveService(limits=AdmissionLimits(max_time_limit=30.0))
        try:
            inst = uniform_random_instance(25, 3, seed=82)
            first = service.solve(SolveRequest(instance=inst, race=3), timeout=30)
            assert first.race is not None
            assert len(first.race.candidates) >= 2
            verify_schedule(first.schedule)
            again = service.solve(SolveRequest(instance=inst, race=3), timeout=30)
            assert _schedule_signature(again.schedule) == _schedule_signature(
                first.schedule
            )
            assert service.store.stats()["hits"] >= 1
        finally:
            service.close()

    def test_raced_and_plain_solves_never_share_a_cache_line(self):
        from busytime.service import canonicalize, request_fingerprint

        inst = uniform_random_instance(15, 3, seed=83)
        form = canonicalize(inst)
        plain = request_fingerprint(SolveRequest(instance=inst), form=form)
        raced = request_fingerprint(SolveRequest(instance=inst, race=3), form=form)
        assert plain != raced

    def test_http_deadline_ms_option_races_end_to_end(self):
        import threading

        from busytime.service import (
            AdmissionLimits,
            SolveService,
            make_server,
            submit_instance,
        )

        service = SolveService(limits=AdmissionLimits(max_time_limit=30.0))
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            inst = uniform_random_instance(25, 3, seed=84)
            reply = submit_instance(
                url,
                bio.instance_to_dict(inst),
                options={"deadline_ms": 5000},
                wait=True,
            )
            assert reply["status"] == "done"
            report = bio.solve_report_from_dict(reply["report"])
            assert report.race is not None
            assert len(report.race.candidates) >= 2
            verify_schedule(report.schedule)
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_http_rejects_boolean_deadline(self):
        import threading

        from busytime.service import (
            AdmissionLimits,
            SolveService,
            make_server,
            submit_instance,
        )

        service = SolveService(limits=AdmissionLimits())
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            inst = uniform_random_instance(10, 3, seed=85)
            with pytest.raises(RuntimeError, match="deadline_ms"):
                submit_instance(
                    url,
                    bio.instance_to_dict(inst),
                    options={"deadline_ms": True},
                    wait=True,
                )
        finally:
            server.shutdown()
            server.server_close()
            service.close()
