"""Tests for fix-then-pack on the core flex model (busytime.algorithms.placement)."""

import pytest

from busytime.algorithms import first_fit
from busytime.algorithms.base import available_schedulers
from busytime.algorithms.placement import anchor_first_fit, anchor_starts
from busytime.core.bounds import combined_bound
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job, max_point_demand, span
from busytime.core.schedule import (
    InfeasibleScheduleError,
    Machine,
    Schedule,
    verify_schedule,
)
from busytime.generators import uniform_random_instance


def _flex(rows, g, demands=None):
    """An instance from ``(release, deadline, length)`` rows."""
    demands = demands or [1] * len(rows)
    return Instance(
        jobs=tuple(
            Job(id=i, interval=Interval(r, r + p), release=r, deadline=d, demand=s)
            for i, ((r, d, p), s) in enumerate(zip(rows, demands))
        ),
        g=g,
    )


class TestWindowedJob:
    def test_basic_properties(self):
        j = Job(0, Interval(2, 5), release=2, deadline=10)
        assert j.window_deadline - j.window_release - j.length == 5
        assert j.has_window
        assert j.placed_at(4).interval.as_tuple() == (4, 7)

    def test_rigid_job(self):
        j = Job(0, Interval(2, 5), release=2, deadline=5)
        assert not j.has_window
        assert j.mandatory_interval() == Interval(2, 5)

    def test_mandatory_part(self):
        j = Job(0, Interval(0, 7), release=0, deadline=10)
        assert j.mandatory_interval() == Interval(3, 7)
        loose = Job(1, Interval(0, 4), release=0, deadline=10)
        assert loose.mandatory_interval() is None

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            Job(0, Interval(0, 3), release=0, deadline=2)

    def test_bad_demand(self):
        with pytest.raises(ValueError):
            Job(0, Interval(0, 1), release=0, deadline=2, demand=0)

    def test_start_outside_window(self):
        j = Job(0, Interval(2, 5), release=2, deadline=10)
        with pytest.raises(ValueError):
            j.placed_at(1)
        with pytest.raises(ValueError):
            j.placed_at(8)


class TestWindowedInstance:
    def test_from_tuples(self):
        inst = _flex([(0, 10, 3), (2, 8, 4)], g=2)
        assert inst.n == 2
        assert inst.has_windows
        assert inst.total_length == 7

    def test_demand_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError):
            _flex([(0, 10, 3)], g=2, demands=[5])

    def test_duplicate_ids_rejected(self):
        jobs = (
            Job(0, Interval(0, 1), release=0, deadline=5),
            Job(0, Interval(0, 1), release=0, deadline=5),
        )
        with pytest.raises(ValueError):
            Instance(jobs=jobs, g=1)

    def test_from_rigid_roundtrip(self):
        # Pinning each job's window to its interval leaves a fixed instance.
        rigid = uniform_random_instance(15, g=3, seed=2)
        pinned = Instance(
            jobs=tuple(
                Job(j.id, j.interval, release=j.start, deadline=j.end)
                for j in rigid.jobs
            ),
            g=rigid.g,
        )
        assert not pinned.is_flex
        assert pinned.n == rigid.n
        assert pinned.total_length == rigid.total_length


class TestDemandProfile:
    def test_peak(self):
        placed = [
            Job(0, Interval(0, 4), demand=2),
            Job(1, Interval(2, 6)),
            Job(2, Interval(5, 7), demand=3),
        ]
        assert max_point_demand(placed) == 4

    def test_empty(self):
        assert max_point_demand([]) == 0

    def test_touching_counts_both(self):
        assert max_point_demand([Job(0, Interval(0, 2)), Job(1, Interval(2, 4))]) == 2


class TestStartTimeFixing:
    def test_rigid_jobs_keep_their_interval(self):
        rigid = uniform_random_instance(10, g=2, seed=4)
        assert anchor_starts(rigid) == {job.id: job.start for job in rigid.jobs}

    def test_starts_respect_windows(self):
        inst = _flex([(0, 20, 5), (3, 9, 2), (10, 30, 8), (0, 40, 1)], g=2)
        starts = anchor_starts(inst)
        for job in inst.jobs:
            assert job.window_release <= starts[job.id]
            assert starts[job.id] + job.length <= job.window_deadline

    def test_flexibility_reduces_span(self):
        # Two jobs that CAN be made to overlap completely; anchoring should
        # stack them rather than spread them.
        inst = _flex([(0, 20, 5), (0, 20, 5)], g=2)
        starts = anchor_starts(inst)
        assert span([job.placed_at(starts[job.id]) for job in inst.jobs]) == 5.0


class TestFlexibleFirstFit:
    def test_feasible_and_bounded(self):
        inst = _flex(
            [(0, 10, 3), (2, 8, 4), (1, 20, 5), (0, 6, 2), (5, 25, 6)],
            g=2,
            demands=[1, 1, 2, 1, 1],
        )
        sched = anchor_first_fit(inst)
        verify_schedule(sched)
        assert sched.total_busy_time >= combined_bound(inst) - 1e-9

    def test_matches_rigid_first_fit_on_rigid_unit_demand(self):
        rigid = uniform_random_instance(20, g=3, seed=9)
        sched = anchor_first_fit(rigid)
        reference = first_fit(rigid)
        # same processing order, same fit rule, unmoved jobs -> same schedule
        assert [m.jobs for m in sched.machines] == [m.jobs for m in reference.machines]
        assert sched.total_busy_time == reference.total_busy_time

    def test_demands_respected(self):
        # three demand-2 jobs on capacity 3: no two may overlap on one machine
        inst = _flex([(0, 4, 4), (0, 4, 4), (0, 4, 4)], g=3, demands=[2, 2, 2])
        sched = anchor_first_fit(inst)
        verify_schedule(sched)
        assert sched.num_machines == 3

    def test_not_registered(self):
        # A registry entry would join every flex portfolio and race.
        assert "anchor_first_fit" not in available_schedulers()

    def test_validation_catches_window_violation(self):
        inst = _flex([(0, 10, 2)], g=1)
        bad = Schedule(
            instance=inst,
            machines=(Machine(index=0, jobs=(Job(0, Interval(9.5, 11.5)),)),),
        )
        with pytest.raises(InfeasibleScheduleError):
            verify_schedule(bad)

    def test_validation_catches_capacity_violation(self):
        inst = _flex([(0, 4, 4), (0, 4, 4)], g=3, demands=[2, 2])
        bad = Schedule(instance=inst, machines=(Machine(index=0, jobs=inst.jobs),))
        with pytest.raises(InfeasibleScheduleError):
            verify_schedule(bad)

    def test_to_rigid_schedule(self):
        # The placed jobs, stripped of their windows, are a valid schedule
        # of the fixed instance they form, at the same cost.
        inst = _flex([(0, 10, 3), (1, 12, 4)], g=2)
        sched = anchor_first_fit(inst)
        rigid_machines = tuple(
            Machine(index=m.index, jobs=tuple(Job(j.id, j.interval) for j in m.jobs))
            for m in sched.machines
        )
        rigid = Schedule(
            instance=Instance(
                jobs=tuple(j for m in rigid_machines for j in m.jobs), g=inst.g
            ),
            machines=rigid_machines,
        )
        verify_schedule(rigid)
        assert not rigid.instance.is_flex
        assert rigid.total_busy_time == sched.total_busy_time


class TestFlexibleLowerBound:
    def test_work_bound(self):
        inst = _flex([(0, 100, 10)] * 4, g=2)
        assert combined_bound(inst) >= 20.0 - 1e-9

    def test_mandatory_span_bound(self):
        inst = _flex([(0, 10, 9)], g=4)
        # mandatory part is [1, 9] of length 8
        assert combined_bound(inst) >= 8.0 - 1e-9

    def test_bound_below_heuristic(self):
        inst = _flex(
            [(0, 15, 4), (2, 9, 3), (5, 30, 7), (1, 6, 2), (8, 20, 5)], g=2
        )
        sched = anchor_first_fit(inst)
        assert combined_bound(inst) <= sched.total_busy_time + 1e-9
