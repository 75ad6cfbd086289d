"""The tariff-aware placement subsystem: pricing, windows, site capacity.

Covers the value objects (:mod:`busytime.pricing.series`), the flex-window
extension of the core model, the window/site oracles in
``verify_schedule``, the placement algorithms, the engine routing, the
window-aware lower bounds, and the degeneration guarantees (unit tariff /
zero slack must be bit-for-bit the rigid model).
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from busytime.algorithms import (
    first_fit,
    get_scheduler,
    place_first_fit,
    tariff_local_search,
)
from busytime.core.instance import Instance, connected_components
from busytime.core.intervals import Interval, Job
from busytime.core.objectives import CostModel, get_cost_model
from busytime.core.schedule import (
    InfeasibleScheduleError,
    Machine,
    Schedule,
    ScheduleBuilder,
    verify_schedule,
)
from busytime.engine import solve
from busytime.engine.request import RequestValidationError, SolveRequest
from busytime.generators import (
    flex_window_instance,
    office_background,
    tariff_corpus,
    tou_tariff,
    uniform_random_instance,
)
from busytime.io import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from busytime.pricing import (
    BackgroundLoad,
    TariffSeries,
    band_demand_bound,
    tariff_lower_bound,
    tariff_parallelism_bound,
)
from busytime.service.canonical import request_fingerprint

TOU = TariffSeries((4.0, 8.0), (1.0, 5.0, 1.0), name="toy")


def tariff_model(tariff=TOU):
    return CostModel(objective="tariff_busy_time", tariff=tariff)


# ---------------------------------------------------------------------------
# TariffSeries / BackgroundLoad value objects
# ---------------------------------------------------------------------------


class TestTariffSeries:
    def test_rate_at_band_edges(self):
        assert TOU.rate_at(3.9) == 1.0
        assert TOU.rate_at(4.0) == 5.0  # closed-left bands
        assert TOU.rate_at(7.9) == 5.0
        assert TOU.rate_at(8.0) == 1.0
        assert TOU.rate_at(-100.0) == 1.0

    def test_bands_partition_the_window(self):
        bands = list(TOU.bands(2.0, 10.0))
        assert bands == [(2.0, 4.0, 1.0), (4.0, 8.0, 5.0), (8.0, 10.0, 1.0)]
        assert list(TOU.bands(5.0, 5.0)) == []

    def test_integrate_exact(self):
        assert TOU.integrate(0.0, 4.0) == 4.0
        assert TOU.integrate(4.0, 8.0) == 20.0
        assert TOU.integrate(2.0, 10.0) == 2.0 + 20.0 + 2.0
        assert TOU.integrate(9.0, 3.0) == 0.0

    def test_constant_tariff_is_flat(self):
        flat = TariffSeries((), (2.0,))
        assert flat.is_constant
        assert flat.integrate(0.0, 7.0) == 14.0
        assert not TOU.is_constant

    def test_min_rate_in(self):
        assert TOU.min_rate_in(5.0, 7.0) == 5.0
        assert TOU.min_rate_in(0.0, 12.0) == 1.0
        assert TOU.min_rate_in(6.0, 6.0) == 5.0

    def test_shift_round_trip(self):
        shifted = TOU.shifted(3.0)
        assert shifted.breakpoints == (7.0, 11.0)
        assert shifted.shifted(-3.0).breakpoints == TOU.breakpoints
        assert TOU.shifted(0.0) is TOU

    def test_dict_round_trip(self):
        doc = json.loads(json.dumps(TOU.to_dict()))
        assert TariffSeries.from_dict(doc) == TOU
        with pytest.raises(ValueError):
            TariffSeries.from_dict({"rates": [1.0], "bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            TariffSeries((2.0, 2.0), (1.0, 1.0, 1.0))  # not increasing
        with pytest.raises(ValueError):
            TariffSeries((1.0,), (1.0,))  # wrong rate count
        with pytest.raises(ValueError):
            TariffSeries((), (-1.0,))  # negative rate


class TestBackgroundLoad:
    BG = BackgroundLoad((0.0, 8.0, 20.0), (1, 3))

    def test_level_at_closed_bands(self):
        assert self.BG.level_at(-0.1) == 0
        assert self.BG.level_at(0.0) == 1
        assert self.BG.level_at(8.0) == 3  # closed: max of adjacent bands
        assert self.BG.level_at(20.0) == 3
        assert self.BG.level_at(20.1) == 0

    def test_bands_drop_zero_levels(self):
        bg = BackgroundLoad((0.0, 5.0, 10.0), (0, 2))
        assert list(bg.bands()) == [(5.0, 10.0, 2)]

    def test_round_trip_and_validation(self):
        assert BackgroundLoad.from_dict(self.BG.to_dict()) == self.BG
        with pytest.raises(ValueError):
            BackgroundLoad((0.0,), ())
        with pytest.raises(ValueError):
            BackgroundLoad((0.0, 1.0), (-1,))


# ---------------------------------------------------------------------------
# Flex windows on the core model
# ---------------------------------------------------------------------------


class TestJobWindows:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            Job(0, Interval(2.0, 4.0), release=3.0)  # release after start
        with pytest.raises(ValueError):
            Job(0, Interval(2.0, 4.0), deadline=3.0)  # deadline before end
        with pytest.raises(ValueError):
            Job(0, Interval(2.0, 4.0), release=float("nan"))

    def test_zero_slack_window_is_fixed(self):
        j = Job(0, Interval(2.0, 4.0), release=2.0, deadline=4.0)
        assert not j.has_window
        assert j.mandatory_interval() == j.interval

    def test_placed_at(self):
        j = Job(0, Interval(4.0, 6.0), release=0.0, deadline=12.0)
        assert j.has_window
        moved = j.placed_at(9.5)
        assert (moved.start, moved.end) == (9.5, 11.5)
        assert moved.release == 0.0 and moved.deadline == 12.0
        # clamped within tolerance, rejected outside
        assert j.placed_at(10.0 + 1e-12).end <= 12.0
        with pytest.raises(ValueError):
            j.placed_at(10.5)
        fixed = Job(1, Interval(4.0, 6.0))
        assert fixed.placed_at(4.0) is fixed
        with pytest.raises(ValueError):
            fixed.placed_at(5.0)

    def test_placed_at_deadline_ulp_snap(self):
        d = 50.11055713763697
        j = Job(0, Interval(d - 9.0, d - 1.0), release=0.0, deadline=d)
        latest = j.placed_at(d - j.length)
        assert latest.end <= d  # one-ulp overshoot is snapped

    def test_mandatory_interval(self):
        # slack >= length: no mandatory part
        wide = Job(1, Interval(4.0, 6.0), release=0.0, deadline=12.0)
        assert wide.mandatory_interval() is None
        tight = Job(2, Interval(4.0, 6.0), release=3.5, deadline=6.5)
        assert tight.mandatory_interval() == Interval(4.5, 5.5)


class TestInstanceFlex:
    def test_site_fields_validation(self):
        jobs = (Job(0, Interval(0.0, 1.0), demand=2),)
        with pytest.raises(ValueError):
            Instance(jobs=jobs, g=2, site_capacity=0)
        with pytest.raises(ValueError):
            Instance(jobs=jobs, g=2, site_capacity=1)  # demand exceeds cap
        Instance(jobs=jobs, g=2, site_capacity=2)

    def test_flex_instance_is_one_component(self):
        jobs = (
            Job(0, Interval(0.0, 1.0), release=0.0, deadline=10.0),
            Job(1, Interval(8.0, 9.0), release=0.0, deadline=10.0),
        )
        flex = Instance(jobs=jobs, g=1)
        assert flex.is_flex and flex.has_windows
        assert connected_components(flex) == [flex]
        rigid = Instance(jobs=(Job(0, Interval(0.0, 1.0)), Job(1, Interval(8.0, 9.0))), g=1)
        assert len(connected_components(rigid)) == 2


# ---------------------------------------------------------------------------
# verify_schedule oracles
# ---------------------------------------------------------------------------


class TestVerifyScheduleOracles:
    def _schedule(self, instance, machines):
        return Schedule(instance=instance, machines=machines, algorithm="manual")

    def test_moved_fixed_job_rejected(self):
        inst = Instance(jobs=(Job(0, Interval(0.0, 2.0)),), g=1)
        moved = Job(0, Interval(1.0, 3.0))
        sched = self._schedule(inst, (Machine(index=0, jobs=(moved,)),))
        with pytest.raises(InfeasibleScheduleError, match="fixed"):
            verify_schedule(sched)

    def test_window_violation_rejected(self):
        j = Job(0, Interval(4.0, 6.0), release=2.0, deadline=8.0)
        inst = Instance(jobs=(j,), g=1)
        outside = Job(0, Interval(0.0, 2.0), release=0.0, deadline=2.0)
        sched = self._schedule(inst, (Machine(index=0, jobs=(outside,)),))
        with pytest.raises(InfeasibleScheduleError):
            verify_schedule(sched)

    def test_site_capacity_violation_rejected(self):
        jobs = tuple(Job(i, Interval(0.0, 2.0), release=0.0, deadline=6.0) for i in range(2))
        inst = Instance(jobs=jobs, g=2, site_capacity=2,
                        background=BackgroundLoad((0.0, 6.0), (1,)))
        # both jobs at [0, 2] + background 1 = 3 > cap 2
        sched = self._schedule(inst, (Machine(index=0, jobs=jobs),))
        with pytest.raises(InfeasibleScheduleError, match="site"):
            verify_schedule(sched)
        # slide one job strictly clear (closed intervals touch at shared
        # endpoints, so a gap is needed): 1 + 1 = 2 <= cap
        slid = (jobs[0], jobs[1].placed_at(2.5))
        ok = self._schedule(inst, (Machine(index=0, jobs=slid),))
        verify_schedule(ok)

    def test_builder_site_fits(self):
        jobs = tuple(Job(i, Interval(0.0, 2.0), release=0.0, deadline=6.0) for i in range(3))
        inst = Instance(jobs=jobs, g=3, site_capacity=2)
        b = ScheduleBuilder(inst)
        idx = b.open_machine()
        b.assign(idx, jobs[0])
        b.assign(idx, jobs[1])
        assert not b.site_fits(jobs[2])
        assert b.site_fits(jobs[2].placed_at(3.0))


# ---------------------------------------------------------------------------
# Placement algorithms + degeneration
# ---------------------------------------------------------------------------


class TestPlacement:
    def test_zero_slack_degenerates_to_first_fit(self):
        inst = uniform_random_instance(30, 3, seed=7)
        base = first_fit(inst)
        for model in (None, tariff_model(), get_cost_model("busy_time")):
            placed = place_first_fit(inst, model)
            assert [
                [j.id for j in m.jobs] for m in placed.machines
            ] == [[j.id for j in m.jobs] for m in base.machines]
            assert placed.total_busy_time == base.total_busy_time

    def test_unit_tariff_costs_bit_for_bit(self):
        inst = uniform_random_instance(40, 3, seed=11)
        sched = first_fit(inst)
        unit = CostModel(objective="tariff_busy_time", tariff=TariffSeries((), (1.0,)))
        assert unit.schedule_cost(sched) == get_cost_model("busy_time").schedule_cost(sched)
        assert unit.schedule_cost(sched) == sched.total_busy_time

    def test_local_search_improves_on_tou(self):
        inst = flex_window_instance(24, 3, slack=10.0, seed=3)
        model = tariff_model(tou_tariff())
        pf = place_first_fit(inst, model)
        ls = tariff_local_search(inst, model)
        verify_schedule(pf)
        verify_schedule(ls)
        assert model.schedule_cost(ls) <= model.schedule_cost(pf) + 1e-9

    def test_corpus_feasible_and_bounded(self):
        for inst, model in tariff_corpus(seed=1)[:4]:
            sched = tariff_local_search(inst, model)
            verify_schedule(sched)
            assert model.lower_bound(inst) <= model.schedule_cost(sched) + 1e-9


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


class TestTariffBounds:
    def test_unit_tariff_matches_paper_bounds(self):
        inst = uniform_random_instance(20, 3, seed=2)
        unit = TariffSeries((), (1.0,))
        from busytime.core.bounds import parallelism_bound

        assert tariff_parallelism_bound(inst, unit) == pytest.approx(
            parallelism_bound(inst)
        )

    def test_bounds_hold_on_corpus(self):
        for inst, model in tariff_corpus(seed=2)[:6]:
            sched = place_first_fit(inst, model)
            bound = tariff_lower_bound(inst, model.tariff)
            assert bound <= model.schedule_cost(sched) + 1e-9

    def test_band_demand_bound_counts_mandatory_parts(self):
        # one job pinned (zero slack) on [4, 6] during the expensive band
        j = Job(0, Interval(4.0, 6.0))
        inst = Instance(jobs=(j,), g=1)
        assert band_demand_bound(inst, TOU) == pytest.approx(10.0)
        # wide window: no mandatory part, so only the parallelism bound bites
        wide = Instance(jobs=(Job(0, Interval(4.0, 6.0), release=0.0, deadline=12.0),), g=1)
        assert band_demand_bound(wide, TOU) == 0.0
        assert tariff_parallelism_bound(wide, TOU) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Engine routing
# ---------------------------------------------------------------------------


class TestEngineRouting:
    def _flex_request(self, **kw):
        inst = flex_window_instance(12, 2, slack=8.0, seed=9)
        return SolveRequest(
            instance=inst, objective="tariff_busy_time", cost_model=tariff_model(), **kw
        )

    def test_auto_routes_to_window_aware(self):
        report = solve(self._flex_request())
        assert report.algorithm in ("auto",)
        used = {d.algorithm for d in report.components}
        assert used <= {"placement_first_fit", "tariff_local_search"}
        verify_schedule(report.schedule)

    def test_forced_non_window_aware_rejected(self):
        inst = flex_window_instance(6, 2, slack=8.0, seed=9)
        with pytest.raises(RequestValidationError, match="window-aware"):
            solve(SolveRequest(instance=inst, algorithm="first_fit"))

    def test_race_on_flex_instance(self):
        report = solve(self._flex_request(race=2))
        assert report.race is not None
        verify_schedule(report.schedule)

    def test_no_proven_ratio_on_flex(self):
        report = solve(self._flex_request())
        assert report.proven_ratio is None

    def test_capability_flags_in_info(self):
        info = get_scheduler("tariff_local_search").info()
        assert info.window_aware and info.tariff_aware
        assert not get_scheduler("first_fit").info().window_aware


# ---------------------------------------------------------------------------
# Differential: constant tariff + zero slack == the seed, bit for bit
# ---------------------------------------------------------------------------


class TestDifferentialDegeneration:
    @pytest.mark.parametrize("seed", [0, 5, 23])
    def test_engine_solve_identical_under_unit_tariff(self, seed):
        inst = uniform_random_instance(25, 3, seed=seed)
        base = solve(SolveRequest(instance=inst))
        unit = CostModel(objective="tariff_busy_time", tariff=TariffSeries((), (1.0,)))
        priced = solve(
            SolveRequest(instance=inst, objective="tariff_busy_time", cost_model=unit)
        )
        assert priced.value == base.value
        assert priced.lower_bound == base.lower_bound
        assert [
            [j.id for j in m.jobs] for m in priced.schedule.machines
        ] == [[j.id for j in m.jobs] for m in base.schedule.machines]

    def test_explicit_zero_slack_windows_fingerprint_like_fixed(self):
        fixed = Instance(
            jobs=tuple(Job(i, Interval(float(i), float(i) + 2.0)) for i in range(5)), g=2
        )
        zslack = Instance(
            jobs=tuple(
                Job(i, Interval(float(i), float(i) + 2.0), release=float(i),
                    deadline=float(i) + 2.0)
                for i in range(5)
            ),
            g=2,
        )
        assert request_fingerprint(SolveRequest(instance=fixed)) == request_fingerprint(
            SolveRequest(instance=zslack)
        )

    def test_translation_equivariance_with_anchored_tariff(self):
        # dyadic coordinates keep every shift/anchor subtraction exact, so
        # bit-for-bit fingerprint equality is actually attainable
        inst = Instance(
            jobs=tuple(
                Job(i, Interval(0.25 + 1.5 * i, 2.75 + 1.5 * i),
                    release=0.25 * i, deadline=4.0 + 1.5 * i)
                for i in range(6)
            ),
            g=2,
        )
        model = tariff_model(tou_tariff())
        req = SolveRequest(instance=inst, objective="tariff_busy_time", cost_model=model)
        delta = 13.5  # dyadic: exact in binary floating point
        shifted_jobs = tuple(
            Job(
                id=j.id,
                interval=Interval(j.start + delta, j.end + delta),
                weight=j.weight,
                tag=j.tag,
                demand=j.demand,
                release=None if j.release is None else j.release + delta,
                deadline=None if j.deadline is None else j.deadline + delta,
            )
            for j in inst.jobs
        )
        shifted = Instance(jobs=shifted_jobs, g=inst.g)
        shifted_model = tariff_model(tou_tariff().shifted(delta))
        req_s = SolveRequest(
            instance=shifted, objective="tariff_busy_time", cost_model=shifted_model
        )
        assert request_fingerprint(req) == request_fingerprint(req_s)
        # a *non*-shifted tariff on the shifted instance is a different problem
        req_ns = SolveRequest(
            instance=shifted, objective="tariff_busy_time", cost_model=model
        )
        assert request_fingerprint(req) != request_fingerprint(req_ns)


# ---------------------------------------------------------------------------
# io round-trips
# ---------------------------------------------------------------------------


class TestFlexIO:
    def test_flex_instance_round_trip(self):
        inst = flex_window_instance(8, 2, slack=5.0, seed=6)
        capped = Instance(
            jobs=inst.jobs, g=2, site_capacity=9, background=office_background()
        )
        doc = json.loads(json.dumps(instance_to_dict(capped)))
        assert doc["version"] == 3
        back = instance_from_dict(doc)
        assert back.jobs == capped.jobs
        assert back.site_capacity == 9 and back.background == capped.background

    def test_placed_schedule_round_trip(self):
        inst = flex_window_instance(10, 2, slack=8.0, seed=2)
        model = tariff_model(tou_tariff())
        sched = tariff_local_search(inst, model)
        doc = json.loads(json.dumps(schedule_to_dict(sched)))
        back = schedule_from_dict(doc)
        assert [
            (j.id, j.start, j.end) for m in back.machines for j in m.jobs
        ] == [(j.id, j.start, j.end) for m in sched.machines for j in m.jobs]

    def test_placement_outside_window_rejected(self):
        j = Job(0, Interval(4.0, 6.0), release=2.0, deadline=8.0)
        inst = Instance(jobs=(j,), g=1)
        sched = Schedule(
            instance=inst, machines=(Machine(index=0, jobs=(j.placed_at(2.0),)),),
            algorithm="manual",
        )
        doc = schedule_to_dict(sched)
        doc["placements"][0]["start"] = 0.0
        doc["placements"][0]["end"] = 2.0
        with pytest.raises(ValueError):
            schedule_from_dict(doc)


# ---------------------------------------------------------------------------
# Hypothesis: profile-integrated pricing == brute force on dyadic grids
# ---------------------------------------------------------------------------

GRID = 0.25  # dyadic cell: exact in binary floating point

dyadic_coord = st.integers(min_value=0, max_value=127).map(lambda k: k * GRID)
dyadic_len = st.integers(min_value=1, max_value=40).map(lambda k: k * GRID)
dyadic_rate = st.integers(min_value=0, max_value=16).map(lambda k: k * GRID)


@st.composite
def dyadic_jobs(draw, max_jobs=12):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        start = draw(dyadic_coord)
        length = draw(dyadic_len)
        demand = draw(st.integers(min_value=1, max_value=3))
        jobs.append(Job(id=i, interval=Interval(start, start + length), demand=demand))
    return tuple(jobs)


@st.composite
def dyadic_tariffs(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=160), min_size=k, max_size=k, unique=True
        )
    )
    breakpoints = tuple(sorted(b * GRID for b in raw))
    rates = tuple(draw(dyadic_rate) for _ in range(k + 1))
    return TariffSeries(breakpoints, rates)


def brute_force_cost(schedule, tariff):
    """Per-cell reference: price each machine's covered dyadic cells."""
    total = 0.0
    for m in schedule.machines:
        if not m.jobs:
            continue
        lo = min(j.start for j in m.jobs)
        hi = max(j.end for j in m.jobs)
        cells = int(round((hi - lo) / GRID))
        for c in range(cells):
            a = lo + c * GRID
            b = a + GRID
            mid = (a + b) / 2.0
            if any(j.start < b and j.end > a for j in m.jobs):
                total += tariff.rate_at(mid) * GRID
    return total


class TestPricingFuzz:
    @given(jobs=dyadic_jobs(), tariff=dyadic_tariffs())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_integrated_cost_matches_brute_force(self, jobs, tariff):
        instance = Instance(jobs=jobs, g=4)
        model = CostModel(objective="tariff_busy_time", tariff=tariff)
        sched = first_fit(instance)
        cost = model.schedule_cost(sched)
        assert cost == pytest.approx(brute_force_cost(sched, tariff), abs=1e-6)

    @given(jobs=dyadic_jobs(max_jobs=8), tariff=dyadic_tariffs())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_weighted_model_scales_busy_rate(self, jobs, tariff):
        instance = Instance(jobs=jobs, g=4)
        base = CostModel(objective="tariff_busy_time", tariff=tariff)
        scaled = replace(base, busy_rate=2.0)
        sched = first_fit(instance)
        assert scaled.schedule_cost(sched) == pytest.approx(
            2.0 * base.schedule_cost(sched), rel=1e-12
        )
