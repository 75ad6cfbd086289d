"""Tests for the dynamic-workload subsystem.

Covers the trace model (:mod:`busytime.core.events`), the trace generators
(:mod:`busytime.generators.dynamic_traces`), the builder's ``unassign``
mutation path and the simulator with its three policies
(:mod:`busytime.extensions.dynamic`).
"""

from __future__ import annotations

import pytest

from busytime.core.events import (
    ARRIVE,
    DEPART,
    DynamicTrace,
    TraceEvent,
    TraceValidationError,
)
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job, span
from busytime.core.schedule import ScheduleBuilder, verify_schedule
from busytime.extensions.dynamic import (
    MigrationBudget,
    NeverMigrate,
    RollingHorizon,
    SimulationPolicy,
    Simulator,
    online_first_fit,
    simulate,
    standard_policies,
)
from busytime.generators import (
    DYNAMIC_TRACE_FAMILIES,
    adversarial_dynamic_trace,
    bursty_dynamic_trace,
    optical_dynamic_trace,
    poisson_dynamic_trace,
    trace_from_instance,
    uniform_dynamic_trace,
    uniform_random_instance,
)


def _job(jid: int, start: float, end: float) -> Job:
    return Job(id=jid, interval=Interval(start, end))


def _trace(events, g=2, name="t") -> DynamicTrace:
    return DynamicTrace(events=tuple(events), g=g, name=name)


class TestTraceModel:
    def test_events_order_arrivals_before_departures(self):
        job = _job(0, 1.0, 1.0)
        arrive = TraceEvent(time=1.0, kind=ARRIVE, job=job)
        depart = TraceEvent(time=1.0, kind=DEPART, job=job)
        assert arrive < depart

    def test_sorted_events_break_ties_by_job_id(self):
        # sorted() must yield exactly the order validate() demands, job ids
        # included — simultaneous same-kind events follow ids.
        a, b = _job(5, 0.0, 2.0), _job(1, 0.0, 3.0)
        events = sorted(
            [
                TraceEvent(0.0, ARRIVE, a),
                TraceEvent(0.0, ARRIVE, b),
                TraceEvent(2.0, DEPART, a),
                TraceEvent(3.0, DEPART, b),
            ]
        )
        assert [e.job.id for e in events] == [1, 5, 5, 1]
        _trace(events).validate()

    def test_validate_accepts_well_formed_trace(self):
        a, b = _job(0, 0.0, 4.0), _job(1, 1.0, 3.0)
        trace = _trace(
            [
                TraceEvent(0.0, ARRIVE, a),
                TraceEvent(1.0, ARRIVE, b),
                TraceEvent(2.0, DEPART, b),  # early cancellation
                TraceEvent(4.0, DEPART, a),
            ]
        )
        trace.validate()
        assert trace.num_jobs == 2
        assert trace.num_events == 4
        assert trace.horizon == (0.0, 4.0)

    @pytest.mark.parametrize(
        "events,message",
        [
            (
                [
                    TraceEvent(1.0, ARRIVE, _job(0, 1.0, 2.0)),
                    TraceEvent(0.5, DEPART, _job(0, 1.0, 2.0)),
                ],
                "out of order",
            ),
            (
                [
                    TraceEvent(0.0, ARRIVE, _job(0, 0.0, 2.0)),
                    TraceEvent(0.0, ARRIVE, _job(0, 0.0, 2.0)),
                ],
                "arrives twice",
            ),
            (
                [TraceEvent(1.0, DEPART, _job(0, 0.0, 2.0))],
                "departs before arriving",
            ),
            (
                [
                    TraceEvent(0.0, ARRIVE, _job(0, 0.0, 2.0)),
                    TraceEvent(3.0, DEPART, _job(0, 0.0, 2.0)),
                ],
                "outside",
            ),
            ([TraceEvent(0.5, ARRIVE, _job(0, 0.0, 2.0))], "starts at"),
            ([TraceEvent(0.0, ARRIVE, _job(0, 0.0, 2.0))], "never depart"),
        ],
        ids=["order", "double-arrive", "orphan-depart", "late-depart",
             "arrival-not-at-start", "never-departs"],
    )
    def test_validate_rejects_malformed_traces(self, events, message):
        with pytest.raises(TraceValidationError, match=message):
            _trace(events).validate()

    def test_effective_instance_truncates_early_departures(self):
        a, b = _job(0, 0.0, 4.0), _job(1, 1.0, 3.0)
        trace = _trace(
            [
                TraceEvent(0.0, ARRIVE, a),
                TraceEvent(1.0, ARRIVE, b),
                TraceEvent(2.0, DEPART, b),
                TraceEvent(4.0, DEPART, a),
            ]
        )
        effective = trace.effective_instance()
        assert effective.g == 2
        by_id = {j.id: j for j in effective.jobs}
        assert by_id[0].interval.as_tuple() == (0.0, 4.0)
        assert by_id[1].interval.as_tuple() == (1.0, 2.0)


class TestTraceGenerators:
    @pytest.mark.parametrize("family", sorted(DYNAMIC_TRACE_FAMILIES))
    def test_families_produce_valid_traces(self, family):
        trace = DYNAMIC_TRACE_FAMILIES[family](40, 3, 1, 0.3)
        trace.validate()  # raises on malformed traces
        assert trace.g == 3
        assert trace.num_events == 2 * trace.num_jobs

    def test_generators_deterministic_in_seed(self):
        t1 = poisson_dynamic_trace(30, 3, seed=9)
        t2 = poisson_dynamic_trace(30, 3, seed=9)
        assert [(e.time, e.kind, e.job.id) for e in t1] == [
            (e.time, e.kind, e.job.id) for e in t2
        ]

    def test_zero_churn_departs_on_time(self):
        inst = uniform_random_instance(20, 3, seed=0)
        trace = trace_from_instance(inst, early_departure_fraction=0.0, seed=0)
        assert all(e.time == e.job.end for e in trace if not e.is_arrival)
        assert trace.effective_instance().span == pytest.approx(inst.span)

    def test_full_churn_departs_early(self):
        inst = uniform_random_instance(20, 3, seed=0)
        trace = trace_from_instance(inst, early_departure_fraction=1.0, seed=0)
        early = [e for e in trace if not e.is_arrival and e.time < e.job.end]
        assert len(early) == 20

    def test_bad_fractions_rejected(self):
        inst = uniform_random_instance(5, 2, seed=0)
        with pytest.raises(ValueError):
            trace_from_instance(inst, early_departure_fraction=1.5)
        with pytest.raises(ValueError):
            trace_from_instance(inst, min_hold_fraction=-0.1)

    def test_adversarial_and_optical_families(self):
        adv = adversarial_dynamic_trace(3, seed=0)
        adv.validate()
        assert adv.num_jobs == 3 * 4  # g*(g+1) Fig. 4 jobs
        opt = optical_dynamic_trace(8, 30, 3, seed=0)
        opt.validate()
        assert opt.num_jobs == 30


class TestBuilderMutationPath:
    def test_unassign_inverse_of_assign(self, random_medium):
        builder = ScheduleBuilder(random_medium, algorithm="mutate")
        for job in random_medium.jobs:
            builder.assign_first_fit(job)
        victim = random_medium.jobs[7]
        idx = builder.machine_of(victim.id)
        before = builder.profile_of(idx).copy()
        builder.unassign(victim)
        assert victim.id not in builder.assigned_job_ids
        builder.assign(idx, victim)
        after = builder.profile_of(idx)
        assert after.count == before.count
        assert after.measure == pytest.approx(before.measure)
        assert after.max_load() == before.max_load()
        verify_schedule(builder.freeze())  # the slow-path oracle

    def test_unassign_unknown_job_raises(self, tiny_instance):
        builder = ScheduleBuilder(tiny_instance)
        with pytest.raises(KeyError):
            builder.unassign(tiny_instance.jobs[0])

    def test_freeze_partial_validates_survivors(self, random_medium):
        builder = ScheduleBuilder(random_medium, algorithm="partial")
        for job in random_medium.jobs:
            builder.assign_first_fit(job)
        for job in random_medium.jobs[::3]:
            builder.unassign(job)
        schedule = builder.freeze_partial()
        verify_schedule(schedule)
        survivor_ids = {j.id for j in random_medium.jobs} - {
            j.id for j in random_medium.jobs[::3]
        }
        assert set(schedule.instance.job_ids) == survivor_ids

    def test_marginal_busy_release_matches_span_difference(self, random_medium):
        builder = ScheduleBuilder(random_medium)
        for job in random_medium.jobs:
            builder.assign_first_fit(job)
        for job in random_medium.jobs[:10]:
            idx = builder.machine_of(job.id)
            jobs_on = builder.jobs_on(idx)
            others = [j for j in jobs_on if j.id != job.id]
            expected = span(jobs_on) - span(others)
            assert builder.marginal_busy_release(job) == pytest.approx(expected)
            # ...and the probe left the profile untouched.
            assert builder.machine_busy_time(idx) == pytest.approx(span(jobs_on))

    def test_machine_without_job(self, random_medium):
        schedule = online_first_fit(random_medium)
        machine = schedule.machines[0]
        victim = machine.jobs[0]
        _ = machine.profile  # force the cached profile so removal reuses it
        smaller = machine.without_job(victim.id)
        assert victim.id not in {j.id for j in smaller.jobs}
        assert smaller.busy_time == pytest.approx(span(smaller.jobs))
        assert smaller.peak_parallelism <= machine.peak_parallelism
        with pytest.raises(KeyError):
            machine.without_job(10_000)


class TestSimulator:
    def test_never_migrate_matches_online_first_fit_without_churn(self):
        inst = uniform_random_instance(80, 3, seed=5)
        trace = trace_from_instance(inst, early_departure_fraction=0.0, seed=5)
        report = Simulator(trace, NeverMigrate(), oracle_check_every=16).run()
        reference = online_first_fit(inst)
        assert report.realized_cost == pytest.approx(reference.total_busy_time)
        assert report.machines_opened == reference.num_machines
        assert report.migrations == 0
        assert report.early_departures == 0

    def test_early_departures_reduce_realized_cost(self):
        inst = uniform_random_instance(80, 3, seed=5)
        full = Simulator(
            trace_from_instance(inst, early_departure_fraction=0.0, seed=5),
            NeverMigrate(),
        ).run()
        churned = Simulator(
            trace_from_instance(inst, early_departure_fraction=0.6, seed=5),
            NeverMigrate(),
        ).run()
        assert churned.early_departures > 0
        assert churned.realized_cost < full.realized_cost

    def test_standard_panel_shapes(self):
        trace = poisson_dynamic_trace(60, 3, seed=2)
        reports = simulate(trace, oracle_check_every=32)
        assert [r.policy for r in reports] == [
            "never_migrate",
            "rolling_horizon",
            "migration_budget",
        ]
        for report in reports:
            assert report.arrivals == report.departures == 60
            assert report.realized_cost >= report.lower_bound - 1e-9
            assert report.oracle_checks >= 1
            assert report.offline_cost is not None and report.offline_cost > 0
            assert report.as_dict()["gap_vs_offline"] == report.gap_vs_offline

    def test_rolling_horizon_replans_and_migrates(self):
        trace = bursty_dynamic_trace(100, 3, early_departure_fraction=0.4, seed=0)
        lo, hi = trace.horizon
        report = Simulator(
            trace, RollingHorizon((hi - lo) / 8.0), oracle_check_every=None
        ).run()
        # The final mark can land past the last event, so 7 or 8 fire.
        assert report.replans >= 7
        assert report.migrations > 0

    def test_migration_budget_zero_never_migrates(self):
        trace = bursty_dynamic_trace(100, 3, early_departure_fraction=0.4, seed=1)
        lo, hi = trace.horizon
        budgeted = Simulator(
            trace,
            MigrationBudget((hi - lo) / 8.0, budget=0),
            oracle_check_every=None,
            compare_offline=False,
        ).run()
        never = Simulator(
            trace, NeverMigrate(), oracle_check_every=None, compare_offline=False
        ).run()
        assert budgeted.migrations == 0
        assert budgeted.realized_cost == pytest.approx(never.realized_cost)

    def test_migration_budget_caps_moves_per_replan(self):
        trace = bursty_dynamic_trace(100, 3, early_departure_fraction=0.4, seed=1)
        lo, hi = trace.horizon
        report = Simulator(
            trace,
            MigrationBudget((hi - lo) / 8.0, budget=2),
            oracle_check_every=None,
            compare_offline=False,
        ).run()
        assert report.migrations <= 2 * report.replans

    def test_simulator_is_single_use(self):
        trace = poisson_dynamic_trace(10, 2, seed=0)
        sim = Simulator(trace, NeverMigrate())
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_policy_parameter_validation(self):
        with pytest.raises(ValueError):
            RollingHorizon(0.0)
        with pytest.raises(ValueError):
            MigrationBudget(1.0, budget=-1)
        with pytest.raises(ValueError):
            SimulationPolicy(placement="nope")

    def test_empty_trace(self):
        trace = DynamicTrace(events=(), g=2, name="empty")
        report = Simulator(trace, NeverMigrate()).run()
        assert report.realized_cost == 0.0
        assert report.num_events == 0
        assert report.offline_cost is None

    def test_standard_policies_default_period(self):
        trace = poisson_dynamic_trace(40, 3, seed=0)
        lo, hi = trace.horizon
        policies = standard_policies(trace)
        assert policies[1].replan_period == pytest.approx((hi - lo) / 8.0)
        assert policies[2].budget == 4
