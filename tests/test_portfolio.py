"""Tests for the portfolio layer: features, racing, the learned selector.

Three contracts are pinned here:

* **Determinism** — repeated races on the same request produce bit-identical
  winning schedules, serially and under a real executor, because acceptance
  is resolved in rank order and ties break by ``(cost, rank)``.
* **Safety** — a poisoned candidate (raises, or returns an infeasible
  schedule) loses its own slot and nothing else; every race winner passes
  the independent :func:`verify_schedule` oracle; the learned policy can
  reorder only *within* a guarantee class, so certificates never weaken.
* **Hardening** — mining a result store's history for training data skips
  corrupt and old-version entries with counted warnings, never an abort.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from busytime import Engine, Instance, SolveRequest
from busytime import io as bio
from busytime.algorithms import get_scheduler
from busytime.core.bounds import best_lower_bound
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import verify_schedule
from busytime.engine.policy import SINGLE_MACHINE, BestRatioPolicy, FirstFitPolicy
from busytime.engine.request import RequestValidationError
from busytime.generators import (
    bounded_length_instance,
    bursty_instance,
    poisson_arrivals_instance,
    proper_instance,
    uniform_random_instance,
    uniform_traffic,
)
from busytime.optical import traffic_to_instance
from busytime.portfolio import (
    FEATURE_VERSION,
    SELECTOR_ENV_VAR,
    LearnedPolicy,
    LearnedSelector,
    TrainingSample,
    extract_features,
    feature_names,
    features_document,
    learned_policy,
    race_candidates,
    train_from_store,
    train_selector,
)
from busytime.portfolio import racer as racer_module
from busytime.portfolio.selector import gather_training_samples
from busytime.service import ResultStore
from busytime.service.store import HistoryScan


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
# Features
# ---------------------------------------------------------------------------


class TestFeatures:
    def test_vector_matches_declared_names(self):
        inst = uniform_random_instance(20, 3, seed=0)
        values = extract_features(inst)
        assert len(values) == len(feature_names())
        assert all(isinstance(v, float) for v in values)

    def test_invariant_under_relabeling_and_translation(self):
        # Dyadic coordinates (multiples of 1/16) make the translation exact
        # in binary floating point, so equality is a property of the
        # features, not of lucky rounding.
        import random

        for seed in range(4):
            rng = random.Random(seed)
            jobs = []
            for i in range(25):
                start = rng.randrange(0, 512) / 16.0
                length = rng.randrange(1, 128) / 16.0
                jobs.append(Job(id=i, interval=Interval(start, start + length)))
            inst = Instance(jobs=tuple(jobs), g=3)
            assert extract_features(inst) == extract_features(
                _relabeled_shifted(inst)
            )

    def test_empty_instance_keeps_g(self):
        inst = Instance(jobs=(), g=5)
        values = dict(zip(feature_names(), extract_features(inst)))
        assert values["g"] == 5.0
        assert values["n"] == 0.0

    def test_zero_length_job_keeps_every_feature_finite(self):
        # E23's optical-uniform instance: the traffic reduction yields a
        # zero-length job, which made version 1's length_ratio infinite.
        inst = traffic_to_instance(uniform_traffic(10, 30, 3, seed=7))
        assert min(j.length for j in inst.jobs) == 0.0
        values = dict(zip(feature_names(), extract_features(inst)))
        assert all(math.isfinite(v) for v in values.values())
        positive = [j.length for j in inst.jobs if j.length > 0]
        assert values["length_ratio"] == max(positive) / min(positive)

    def test_document_carries_version(self):
        doc = features_document(uniform_random_instance(10, 2, seed=1))
        assert doc["version"] == FEATURE_VERSION
        assert doc["names"] == list(feature_names())
        assert len(doc["values"]) == len(doc["names"])


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
# Learned selector: training, persistence, ranking
# ---------------------------------------------------------------------------


def _training_corpus():
    return [
        uniform_random_instance(20, 3, seed=s) for s in range(3)
    ] + [bursty_instance(20, 3, seed=3), proper_instance(20, 3, seed=4)]


def _handcrafted_samples():
    samples = []
    for index, inst in enumerate(_training_corpus()):
        features = extract_features(inst)
        lb = max(best_lower_bound(inst), 1e-12)
        for name in ("first_fit", "first_fit_ls", "best_fit"):
            scheduler = get_scheduler(name)
            if not scheduler.handles(inst, "busy_time"):
                continue
            schedule = scheduler(inst)
            samples.append(
                TrainingSample(
                    fingerprint=f"fp{index}",
                    features=features,
                    algorithm=name,
                    cost_ratio=schedule.total_busy_time / lb,
                    wall_time=0.001 * (index + 1),
                )
            )
    return samples


def _history_samples():
    """Samples mined the way E23 trains (five families at disjoint seeds,
    solved into a store, every candidate replayed), with each measured wall
    time replaced by a reproducible stand-in proportional to n."""
    store = ResultStore(capacity=16)
    makers = (
        (uniform_random_instance, 3, 30),
        (poisson_arrivals_instance, 3, 30),
        (bursty_instance, 4, 30),
        (proper_instance, 3, 25),
        (bounded_length_instance, 3, 25),
    )
    engine = Engine()
    for index, (maker, g, n) in enumerate(makers):
        for seed in (100, 101):
            report = engine.solve(SolveRequest(instance=maker(n, g, seed=seed)))
            store.put(f"{index:032x}{seed:032x}", report)
    samples, _, _ = gather_training_samples(store)
    return [replace(s, wall_time=1e-4 * (1.0 + s.features[0])) for s in samples]


class TestLearnedSelector:
    def test_training_requires_samples(self):
        with pytest.raises(ValueError, match="no training samples"):
            train_selector([])

    def test_zero_length_job_ranking_ignores_wall_time_noise(self):
        """An infinite feature made every cost head predict infinity, so the
        time heads, fit on measured wall time, decided the ranking.  With
        finite features, selectors trained on the same samples with wall
        times jittered 0.5-2x rank the instance the same way."""
        import random

        inst = traffic_to_instance(uniform_traffic(10, 30, 3, seed=7))
        samples = _history_samples()
        rankings = set()
        for seed in range(6):
            rng = random.Random(seed)
            jittered = [
                replace(s, wall_time=s.wall_time * rng.uniform(0.5, 2.0))
                for s in samples
            ]
            rankings.add(tuple(LearnedPolicy(train_selector(jittered)).rank(inst)))
        assert len(rankings) == 1

    def test_save_load_ranks_identically(self, tmp_path):
        selector = train_selector(_handcrafted_samples())
        path = tmp_path / "selector.json"
        selector.save(path)
        loaded = LearnedSelector.load(path)
        assert loaded.compatible()
        fresh = [uniform_random_instance(30, 3, seed=s) for s in (40, 41, 42)]
        for inst in fresh:
            assert LearnedPolicy(selector).rank(inst) == LearnedPolicy(loaded).rank(
                inst
            )

    def test_registered_policy_round_trip(self, tmp_path):
        # Satellite: save -> load -> install into the *registered* policy ->
        # identical ranking to the in-memory model.
        selector = train_selector(_handcrafted_samples())
        path = tmp_path / "selector.json"
        selector.save(path)
        inst = uniform_random_instance(30, 3, seed=43)
        expected = LearnedPolicy(selector).rank(inst)
        policy = learned_policy()
        try:
            policy.set_selector(LearnedSelector.load(path))
            assert policy.rank(inst) == expected
        finally:
            policy.set_selector(None)
            policy._env_checked = True  # keep this test env-independent

    def test_untrained_policy_matches_best_ratio(self):
        fresh = LearnedPolicy()
        fresh._env_checked = True  # ignore any ambient BUSYTIME_SELECTOR
        for seed in (50, 51):
            inst = uniform_random_instance(25, 3, seed=seed)
            assert fresh.rank(inst) == BestRatioPolicy().rank(inst)

    def test_guarantee_first_never_weakens_certificates(self):
        selector = train_selector(_handcrafted_samples())
        policy = LearnedPolicy(selector)
        for seed in range(6):
            inst = uniform_random_instance(30, 3, seed=seed)
            ranked = policy.rank(inst)
            static = BestRatioPolicy().rank(inst)
            assert sorted(ranked) == sorted(static)
            best = get_scheduler(static[0]).approximation_ratio
            # The learned top pick always carries the best available ratio.
            assert get_scheduler(ranked[0]).approximation_ratio == best

    def test_incompatible_feature_version_falls_back(self):
        selector = train_selector(_handcrafted_samples())
        stale = LearnedSelector(
            heads=selector.heads,
            scale_mean=selector.scale_mean,
            scale_std=selector.scale_std,
            feature_version=FEATURE_VERSION + 1,
            names=selector.names,
        )
        inst = uniform_random_instance(25, 3, seed=60)
        assert LearnedPolicy(stale).rank(inst) == BestRatioPolicy().rank(inst)

    def test_non_ratio_preserving_objective_falls_back(self):
        selector = train_selector(_handcrafted_samples())
        inst = uniform_random_instance(25, 3, seed=61)
        assert LearnedPolicy(selector).rank(
            inst, "machines_plus_busy"
        ) == BestRatioPolicy().rank(inst, "machines_plus_busy")

    def test_env_var_loads_the_model_lazily(self, tmp_path, monkeypatch):
        selector = train_selector(_handcrafted_samples())
        path = tmp_path / "selector.json"
        selector.save(path)
        monkeypatch.setenv(SELECTOR_ENV_VAR, str(path))
        inst = uniform_random_instance(30, 3, seed=62)
        assert LearnedPolicy().rank(inst) == LearnedPolicy(selector).rank(inst)

    def test_unreadable_env_model_warns_and_falls_back(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        monkeypatch.setenv(SELECTOR_ENV_VAR, str(bad))
        inst = uniform_random_instance(25, 3, seed=63)
        policy = LearnedPolicy()
        with pytest.warns(UserWarning, match="could not load selector"):
            ranked = policy.rank(inst)
        assert ranked == BestRatioPolicy().rank(inst)

    def test_time_prediction_never_overflows(self):
        # A linear head extrapolating far out of distribution must clamp,
        # not raise OverflowError (regression: huge instances vs tiny
        # training sets).
        selector = train_selector(_handcrafted_samples())
        huge = uniform_random_instance(2000, 5, seed=64)
        features = extract_features(huge)
        for name in selector.heads:
            predicted = selector.predict_time(name, features)
            assert predicted is None or predicted >= 0.0

    def test_racing_with_learned_policy_matches_static_certificate(self):
        selector = train_selector(_handcrafted_samples())
        policy = learned_policy()
        inst = uniform_random_instance(30, 3, seed=65)
        static = Engine().solve(SolveRequest(instance=inst, race=3))
        try:
            policy.set_selector(selector)
            learned = Engine().solve(
                SolveRequest(instance=inst, race=3, policy="learned")
            )
        finally:
            policy.set_selector(None)
            policy._env_checked = True
        verify_schedule(learned.schedule)
        assert learned.proven_ratio == static.proven_ratio
        assert learned.cost <= static.cost + 1e-9


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
        "policy", [BestRatioPolicy(), FirstFitPolicy(), LearnedPolicy()]
    )
    def test_demand_instances_rank_only_demand_aware(self, policy):
        ranked = policy.rank(_demand_instance())
        assert ranked
        for name in ranked:
            assert get_scheduler(name).demand_aware

    @pytest.mark.parametrize(
        "policy", [BestRatioPolicy(), FirstFitPolicy(), LearnedPolicy()]
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
# Store history scanning (hardening satellite)
# ---------------------------------------------------------------------------


def _populate_store(store: ResultStore, count: int = 3) -> None:
    engine = Engine()
    for seed in range(count):
        inst = uniform_random_instance(12, 3, seed=seed)
        report = engine.solve(SolveRequest(instance=inst))
        store.put(f"{seed:064x}", report)


class TestHistoryScan:
    def test_memory_only_scan_returns_reports(self):
        store = ResultStore(capacity=8)
        _populate_store(store)
        scan = store.scan_history()
        assert len(scan.reports) == 3
        assert scan.skipped == 0

    def test_disk_scan_skips_corrupt_and_old_entries(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "store")
        _populate_store(store)
        root = store.directory
        # Corrupt: unparseable JSON, and a well-versioned document whose
        # body cannot be reconstructed.
        (root / "deadbeef.json").write_text("{this is not json")
        broken = {
            "format": "busytime-solve-report",
            "version": 3,
            "schedule": {"nope": True},
        }
        (root / "cafecafe.json").write_text(json.dumps(broken))
        # Wrong version / format: pre-v2, unknown-future, and a non-dict.
        sample = json.loads(
            next(root.glob("*/*.json")).read_text()
        )
        old = dict(sample, version=1)
        (root / "0ld0ld0ld.json").write_text(json.dumps(old))
        future = dict(sample, version=99)
        (root / "f0f0f0f0.json").write_text(json.dumps(future))
        (root / "11111111.json").write_text("[1, 2, 3]")

        scan = store.scan_history()
        assert isinstance(scan, HistoryScan)
        assert len(scan.reports) == 3
        assert scan.skipped_corrupt == 2
        assert scan.skipped_version == 3
        assert scan.scanned == 8
        for _, report in scan.reports:
            report.schedule.validate()

    def test_scan_limit_takes_newest_first(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "store")
        _populate_store(store, count=4)
        scan = store.scan_history(limit=2)
        assert len(scan.reports) == 2

    def test_training_warns_but_proceeds_over_bad_history(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "store")
        _populate_store(store)
        (store.directory / "deadbeef.json").write_text("{garbage")
        sample = json.loads(next(store.directory.glob("*/*.json")).read_text())
        (store.directory / "0ld0ld.json").write_text(
            json.dumps(dict(sample, version=1))
        )
        with pytest.warns(UserWarning, match=r"skipped 2 unusable store entries"):
            selector, stats = train_from_store(store)
        assert stats["skipped_corrupt"] == 1
        assert stats["skipped_version"] == 1
        assert stats["samples"] > 0
        assert selector.heads
        assert selector.compatible()

    def test_clean_history_trains_without_warnings(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "store")
        _populate_store(store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            selector, stats = train_from_store(store)
        assert stats["skipped_corrupt"] == 0
        assert stats["skipped_version"] == 0
        assert selector.heads


# ---------------------------------------------------------------------------
# CLI: solve --race / --selector and train-selector
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

    def test_train_selector_then_solve_with_it(self, tmp_path, capsys, monkeypatch):
        from busytime.cli import main
        from busytime.io import save_instance

        monkeypatch.delenv(SELECTOR_ENV_VAR, raising=False)
        store = ResultStore(capacity=8, directory=tmp_path / "store")
        _populate_store(store)
        model_path = tmp_path / "selector.json"
        rc = main(
            [
                "train-selector",
                "--store-dir", str(tmp_path / "store"),
                "--output", str(model_path),
                "--min-samples", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "selector trained" in out
        assert LearnedSelector.load(model_path).compatible()

        inst_path = tmp_path / "inst.json"
        save_instance(uniform_random_instance(20, 3, seed=92), inst_path)
        try:
            rc = main(
                [
                    "solve", str(inst_path),
                    "--policy", "learned",
                    "--selector", str(model_path),
                    "--race", "3",
                ]
            )
        finally:
            # The CLI exports the model path for pool workers; scrub it so
            # later tests see a pristine environment.
            import os

            os.environ.pop(SELECTOR_ENV_VAR, None)
            learned_policy().set_selector(None)
            learned_policy()._env_checked = True
        assert rc == 0
        assert "raced" in capsys.readouterr().out

    def test_train_selector_surfaces_skip_warnings(self, tmp_path, capsys):
        from busytime.cli import main

        store = ResultStore(capacity=8, directory=tmp_path / "store")
        _populate_store(store)
        (store.directory / "deadbeef.json").write_text("{garbage")
        rc = main(
            [
                "train-selector",
                "--store-dir", str(tmp_path / "store"),
                "--output", str(tmp_path / "selector.json"),
                "--min-samples", "2",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "unusable store entries" in captured.err

    def test_train_selector_empty_store_is_a_cli_error(self, tmp_path, capsys):
        from busytime.cli import main

        (tmp_path / "store").mkdir()
        rc = main(
            [
                "train-selector",
                "--store-dir", str(tmp_path / "store"),
                "--output", str(tmp_path / "selector.json"),
            ]
        )
        assert rc == 2
        assert "no training samples" in capsys.readouterr().err

    def test_missing_selector_file_is_a_cli_error(self, tmp_path, capsys, monkeypatch):
        from busytime.cli import main
        from busytime.io import save_instance

        monkeypatch.delenv(SELECTOR_ENV_VAR, raising=False)
        path = tmp_path / "inst.json"
        save_instance(uniform_random_instance(10, 3, seed=93), path)
        rc = main(["solve", str(path), "--selector", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "could not load selector" in capsys.readouterr().err

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
