"""Property-based tests for the extension modules (flexible, online, ring, io, local search)."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from busytime.algorithms import first_fit, improve
from busytime.algorithms.placement import anchor_first_fit
from busytime.core.bounds import best_lower_bound, combined_bound
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job
from busytime.extensions import online_best_fit, online_first_fit, online_next_fit
from busytime.io import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from busytime.optical.ring import RingLightpath, RingNetwork, RingTraffic, groom_ring

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

coord = st.floats(min_value=0.0, max_value=60.0, allow_nan=False, width=32)


@st.composite
def rigid_instances(draw, max_jobs=15):
    pairs = draw(
        st.lists(
            st.tuples(coord, st.floats(min_value=0.0, max_value=20.0, width=32)),
            min_size=0,
            max_size=max_jobs,
        )
    )
    g = draw(st.integers(min_value=1, max_value=4))
    return Instance.from_intervals(
        [(float(s), float(s + l)) for s, l in pairs], g=g
    )


@st.composite
def flexible_instances(draw, max_jobs=12):
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    g = draw(st.integers(min_value=1, max_value=4))
    jobs = []
    for i in range(n):
        release = draw(coord)
        processing = draw(st.floats(min_value=0.0, max_value=10.0, width=32))
        slack = draw(st.floats(min_value=0.0, max_value=10.0, width=32))
        demand = draw(st.integers(min_value=1, max_value=g))
        jobs.append(
            Job(
                id=i,
                interval=Interval(float(release), float(release + processing)),
                release=float(release),
                deadline=float(release + processing + slack),
                demand=demand,
            )
        )
    return Instance(jobs=tuple(jobs), g=g)


@st.composite
def ring_traffics(draw):
    num_nodes = draw(st.integers(min_value=3, max_value=20))
    n = draw(st.integers(min_value=1, max_value=20))
    g = draw(st.integers(min_value=1, max_value=3))
    paths = []
    for i in range(n):
        a = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if a == b:
            b = (b + 1) % num_nodes
        paths.append(RingLightpath(id=i, a=a, b=b, num_nodes=num_nodes))
    return RingTraffic(network=RingNetwork(num_nodes), lightpaths=tuple(paths), g=g)


class TestFlexibleProperties:
    @given(inst=flexible_instances())
    @RELAXED
    def test_two_phase_heuristic_feasible_and_bounded(self, inst):
        sched = anchor_first_fit(inst)
        sched.validate()
        assert sched.total_busy_time >= combined_bound(inst) - 1e-6
        # busy time never exceeds scheduling every job alone at its anchor
        assert sched.total_busy_time <= sum(j.length for j in inst.jobs) + 1e-6

    @given(inst=rigid_instances())
    @RELAXED
    def test_rigid_embedding_matches_first_fit(self, inst):
        sched = anchor_first_fit(inst)
        reference = first_fit(inst)
        assert [m.jobs for m in sched.machines] == [m.jobs for m in reference.machines]
        assert sched.total_busy_time == reference.total_busy_time


class TestOnlineProperties:
    @given(inst=rigid_instances())
    @RELAXED
    def test_online_algorithms_feasible(self, inst):
        for algorithm in (online_first_fit, online_best_fit, online_next_fit):
            sched = algorithm(inst)
            sched.validate()
            assert sched.total_busy_time >= best_lower_bound(inst) - 1e-6


class TestLocalSearchProperties:
    @given(inst=rigid_instances())
    @RELAXED
    def test_improvement_is_monotone_and_feasible(self, inst):
        base = first_fit(inst)
        improved = improve(base)
        improved.validate()
        assert improved.total_busy_time <= base.total_busy_time + 1e-6
        assert improved.total_busy_time >= best_lower_bound(inst) - 1e-6


class TestIoProperties:
    @given(inst=rigid_instances())
    @RELAXED
    def test_instance_round_trip(self, inst):
        back = instance_from_dict(instance_to_dict(inst))
        assert back.g == inst.g
        assert [(j.id, j.start, j.end) for j in back.jobs] == [
            (j.id, j.start, j.end) for j in inst.jobs
        ]

    @given(inst=rigid_instances())
    @RELAXED
    def test_schedule_round_trip_preserves_cost(self, inst):
        sched = first_fit(inst)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.total_busy_time == pytest.approx(sched.total_busy_time)
        assert back.assignment() == sched.assignment()


class TestRingProperties:
    @given(traffic=ring_traffics())
    @RELAXED
    def test_ring_grooming_valid_and_complete(self, traffic):
        assignment = groom_ring(traffic)
        assignment.validate()
        assert set(assignment.colors) == {p.id for p in traffic}
        assert assignment.regenerators() <= traffic.total_regenerator_demand()
