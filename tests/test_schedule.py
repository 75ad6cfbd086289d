"""Unit tests for busytime.core.schedule."""

import json

import pytest

from busytime.algorithms import first_fit
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job
from busytime.core.events import SweepProfile
from busytime.core.schedule import (
    InfeasibleScheduleError,
    Machine,
    ProfileOracleMismatchError,
    Schedule,
    ScheduleBuilder,
    ScheduleRows,
    verify_schedule,
)
from busytime.generators import demand_loaded_instance


def _jobs(*pairs):
    return tuple(Job(id=i, interval=Interval(a, b)) for i, (a, b) in enumerate(pairs))


class TestMachine:
    def test_busy_time_contiguous(self):
        m = Machine(index=0, jobs=_jobs((0, 3), (2, 5)))
        assert m.busy_time == 5
        assert m.busy_interval == Interval(0, 5)

    def test_busy_time_with_gap_counts_union(self):
        m = Machine(index=0, jobs=_jobs((0, 1), (5, 7)))
        assert m.busy_time == 3  # union measure, not hull length
        assert m.busy_interval == Interval(0, 7)
        assert len(m.busy_intervals) == 2

    def test_empty_machine(self):
        m = Machine(index=0, jobs=())
        assert m.busy_time == 0
        assert m.busy_interval is None

    def test_peak_parallelism(self):
        m = Machine(index=0, jobs=_jobs((0, 4), (1, 5), (2, 6)))
        assert m.peak_parallelism == 3
        assert m.load == 3

    def test_is_feasible(self):
        m = Machine(index=0, jobs=_jobs((0, 4), (1, 5)))
        assert m.is_feasible(2)
        assert not m.is_feasible(1)

    def test_can_accommodate(self):
        jobs = _jobs((0, 4), (1, 5))
        m = Machine(index=0, jobs=jobs)
        new = Job(id=10, interval=Interval(2, 3))
        assert m.can_accommodate(new, g=3)
        assert not m.can_accommodate(new, g=2)
        disjoint = Job(id=11, interval=Interval(10, 12))
        assert m.can_accommodate(disjoint, g=1)

    def test_active_job_count(self):
        m = Machine(index=0, jobs=_jobs((0, 2), (1, 3)))
        assert m.active_job_count(1.5) == 2
        assert m.active_job_count(9) == 0


class TestSchedule:
    def _schedule(self, g=2):
        instance = Instance.from_intervals([(0, 3), (1, 4), (5, 8)], g=g)
        machines = (
            Machine(index=0, jobs=instance.jobs[:2]),
            Machine(index=1, jobs=instance.jobs[2:]),
        )
        return Schedule(instance=instance, machines=machines, algorithm="manual")

    def test_total_busy_time(self):
        s = self._schedule()
        assert s.total_busy_time == 4 + 3
        assert s.cost == s.total_busy_time

    def test_num_machines(self):
        assert self._schedule().num_machines == 2

    def test_machine_of_and_assignment(self):
        s = self._schedule()
        assert s.machine_of(0) == 0
        assert s.machine_of(2) == 1
        assert s.assignment() == {0: 0, 1: 0, 2: 1}
        with pytest.raises(KeyError):
            s.machine_of(99)

    def test_machines_active_at(self):
        s = self._schedule()
        assert s.machines_active_at(2) == 1
        assert s.machines_active_at(6) == 1
        assert s.machines_active_at(4.5) == 0

    def test_validate_ok(self):
        self._schedule().validate()

    def test_validate_detects_overload(self):
        instance = Instance.from_intervals([(0, 3), (1, 4)], g=1)
        machines = (Machine(index=0, jobs=instance.jobs),)
        sched = Schedule(instance=instance, machines=machines)
        with pytest.raises(InfeasibleScheduleError):
            sched.validate()
        assert not sched.is_feasible()

    def test_validate_detects_missing_job(self):
        instance = Instance.from_intervals([(0, 3), (5, 6)], g=1)
        machines = (Machine(index=0, jobs=instance.jobs[:1]),)
        with pytest.raises(InfeasibleScheduleError):
            verify_schedule(Schedule(instance=instance, machines=machines))

    def test_validate_detects_duplicate_job(self):
        instance = Instance.from_intervals([(0, 3)], g=1)
        machines = (
            Machine(index=0, jobs=instance.jobs),
            Machine(index=1, jobs=instance.jobs),
        )
        with pytest.raises(InfeasibleScheduleError):
            verify_schedule(Schedule(instance=instance, machines=machines))

    def test_validate_detects_foreign_job(self):
        instance = Instance.from_intervals([(0, 3)], g=1)
        foreign = Job(id=42, interval=Interval(0, 1))
        machines = (Machine(index=0, jobs=instance.jobs + (foreign,)),)
        with pytest.raises(InfeasibleScheduleError):
            verify_schedule(Schedule(instance=instance, machines=machines))

    def test_num_contiguous_machines(self):
        instance = Instance.from_intervals([(0, 1), (5, 6)], g=2)
        machines = (Machine(index=0, jobs=instance.jobs),)
        sched = Schedule(instance=instance, machines=machines)
        assert sched.num_machines == 1
        assert sched.num_contiguous_machines == 2
        # cost is unchanged by splitting at the idle gap
        assert sched.total_busy_time == 2

    def test_summary(self):
        summary = self._schedule().summary()
        assert summary["machines"] == 2
        assert summary["algorithm"] == "manual"


class TestScheduleBuilder:
    def test_first_fit_helpers(self):
        instance = Instance.from_intervals([(0, 3), (1, 4), (2, 5)], g=2)
        b = ScheduleBuilder(instance, algorithm="test")
        for job in instance.jobs:
            b.assign_first_fit(job)
        sched = b.freeze()
        assert sched.num_machines == 2
        sched.validate()

    def test_fits_respects_g(self):
        instance = Instance.from_intervals([(0, 3), (1, 4), (2, 5)], g=2)
        b = ScheduleBuilder(instance)
        m = b.open_machine()
        b.assign(m, instance.jobs[0])
        b.assign(m, instance.jobs[1])
        assert not b.fits(m, instance.jobs[2])

    def test_fits_disjoint_job_always(self):
        instance = Instance.from_intervals([(0, 3), (10, 12)], g=1)
        b = ScheduleBuilder(instance)
        m = b.open_machine()
        b.assign(m, instance.jobs[0])
        assert b.fits(m, instance.jobs[1])

    def test_double_assign_rejected(self):
        instance = Instance.from_intervals([(0, 3)], g=1)
        b = ScheduleBuilder(instance)
        m = b.open_machine()
        b.assign(m, instance.jobs[0])
        with pytest.raises(InfeasibleScheduleError):
            b.assign(m, instance.jobs[0])

    def test_assign_to_missing_machine(self):
        instance = Instance.from_intervals([(0, 3)], g=1)
        b = ScheduleBuilder(instance)
        with pytest.raises(IndexError):
            b.assign(0, instance.jobs[0])

    def test_empty_machines_dropped_on_freeze(self):
        instance = Instance.from_intervals([(0, 3)], g=1)
        b = ScheduleBuilder(instance)
        b.open_machine()
        b.assign_new_machine([instance.jobs[0]])
        sched = b.freeze()
        assert sched.num_machines == 1
        assert sched.machines[0].index == 0

    def test_first_fitting_machine_none(self):
        instance = Instance.from_intervals([(0, 3), (1, 4)], g=1)
        b = ScheduleBuilder(instance)
        m = b.open_machine()
        b.assign(m, instance.jobs[0])
        assert b.first_fitting_machine(instance.jobs[1]) is None

    def test_jobs_on(self):
        instance = Instance.from_intervals([(0, 3)], g=1)
        b = ScheduleBuilder(instance)
        m = b.assign_new_machine(instance.jobs)
        assert list(b.jobs_on(m)) == list(instance.jobs)


def _one_machine(instance, jobs=None):
    jobs = instance.jobs if jobs is None else tuple(jobs)
    return Schedule(instance=instance, machines=(Machine(index=0, jobs=jobs),))


def _overload():
    return _one_machine(Instance.from_intervals([(0, 3), (1, 4)], g=1))


def _demand_overload():
    jobs = [Job(id=i, interval=Interval(0, 2), demand=2) for i in range(2)]
    return _one_machine(Instance(jobs=jobs, g=3))


def _missing():
    instance = Instance.from_intervals([(0, 3), (5, 6)], g=1)
    return _one_machine(instance, instance.jobs[:1])


def _duplicate():
    instance = Instance.from_intervals([(0, 3)], g=1)
    machines = tuple(Machine(index=i, jobs=instance.jobs) for i in range(2))
    return Schedule(instance=instance, machines=machines)


def _foreign():
    instance = Instance.from_intervals([(0, 3)], g=1)
    foreign = Job(id=42, interval=Interval(0, 1))
    return _one_machine(instance, instance.jobs + (foreign,))


def _moved_fixed_job():
    instance = Instance.from_intervals([(0, 3)], g=1)
    return _one_machine(instance, [Job(id=0, interval=Interval(1, 4))])


def _stale_profile():
    schedule = _one_machine(Instance.from_intervals([(0, 3)], g=1))
    wrong = SweepProfile.from_intervals([Interval(0, 10)])
    object.__setattr__(schedule.machines[0], "_profile", wrong)
    return schedule


#: label -> (schedule factory, error class, message pattern).
_DEFECTS = {
    "overload": (_overload, InfeasibleScheduleError, "runs 2 jobs"),
    "demand-overload": (
        _demand_overload, InfeasibleScheduleError, "reaches total demand 4"
    ),
    "missing": (_missing, InfeasibleScheduleError, "never scheduled"),
    "duplicate": (_duplicate, InfeasibleScheduleError, "on machines 0 and 1"),
    "foreign": (_foreign, InfeasibleScheduleError, "unknown job id 42"),
    "moved-fixed-job": (_moved_fixed_job, InfeasibleScheduleError, "is fixed at"),
    "stale-profile": (_stale_profile, ProfileOracleMismatchError, "busy time"),
}


class TestBatchOracle:
    """``verify_schedule(mode="batch")`` keeps the full oracle's checks."""

    @pytest.mark.parametrize("label", list(_DEFECTS))
    def test_both_modes_reject(self, label):
        build, error, pattern = _DEFECTS[label]
        for mode in ("full", "batch"):
            with pytest.raises(error, match=pattern):
                verify_schedule(build(), mode=mode)

    def test_both_modes_accept_a_demand_schedule(self):
        schedule = first_fit(demand_loaded_instance(200, 4, max_demand=3, seed=3))
        assert schedule.instance.has_demands
        verify_schedule(schedule)
        verify_schedule(schedule, mode="batch")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="'full' or 'batch'"):
            verify_schedule(_overload(), mode="fast")


def _planted_entry(tmp_path, schedule):
    """``schedule`` written as a result-store entry; the store and the path."""
    from busytime.engine.report import SolveReport
    from busytime.io import solve_report_to_dict
    from busytime.service import ResultStore

    store = ResultStore(capacity=4, directory=tmp_path)
    report = SolveReport(
        schedule=ScheduleRows.from_schedule(schedule),
        algorithm="manual",
        policy="",
        portfolio=False,
        lower_bound=0.0,
    )
    fingerprint = "ab" + "0" * 62
    path = store._disk_path(fingerprint)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(solve_report_to_dict(report, include_timings=False)))
    return store, fingerprint, path


class TestFlatOracle:
    """One oracle: each defect, as flat columns and as a stored document,
    is refused like the object schedule."""

    @pytest.mark.parametrize("label", list(_DEFECTS))
    def test_flat_schedule_is_refused_like_the_object_one(self, label):
        build, error, pattern = _DEFECTS[label]
        for mode in ("full", "batch"):
            with pytest.raises(error, match=pattern) as from_objects:
                verify_schedule(build(), mode=mode)
            with pytest.raises(error, match=pattern) as from_rows:
                verify_schedule(ScheduleRows.from_schedule(build()), mode=mode)
            if label != "stale-profile":
                assert str(from_rows.value) == str(from_objects.value)

    @pytest.mark.parametrize("label", list(_DEFECTS))
    def test_planted_disk_entry_is_refused_like_the_object_one(self, tmp_path, label):
        """The disk reader's steps (parse the columns, one oracle pass)
        raise the object schedule's error; the store misses and ``warm``
        skips the entry."""
        from busytime.io import solve_report_rows_from_dict

        build, error, pattern = _DEFECTS[label]
        with pytest.raises(error, match=pattern) as from_objects:
            verify_schedule(build())
        store, fingerprint, path = _planted_entry(tmp_path, build())
        with pytest.raises(error, match=pattern) as from_disk:
            verify_schedule(solve_report_rows_from_dict(json.loads(path.read_text())).schedule)
        if label != "stale-profile":
            assert str(from_disk.value) == str(from_objects.value)
        assert store.get(fingerprint) is None
        assert store.warm([fingerprint[:2]]) == 0

    def test_stale_profile_has_a_stated_busy_time_in_flat_form(self):
        """Flat columns hold no profile: their fast-path answer is the busy
        time the producer stated, checked against the machines' spans."""
        rows = ScheduleRows.from_schedule(_stale_profile())
        assert rows.total_busy_time == 10.0
        with pytest.raises(ProfileOracleMismatchError) as mismatch:
            verify_schedule(rows)
        assert str(mismatch.value) == (
            "stated total busy time 10 disagrees with oracle span 3.0"
        )

    def test_stated_busy_time_must_be_a_number(self):
        instance = ScheduleRows.from_schedule(_one_machine(Instance.from_intervals([(0, 3)], g=1))).instance
        rows = ScheduleRows(instance, [0], [0, 1], [0], total_busy_time=float("nan"))
        with pytest.raises(ProfileOracleMismatchError, match="stated total busy time nan"):
            verify_schedule(rows)

    def test_flat_schedule_round_trips_to_the_same_objects(self):
        schedule = first_fit(demand_loaded_instance(200, 4, max_demand=3, seed=3))
        rows = ScheduleRows.from_schedule(schedule)
        verify_schedule(rows)
        verify_schedule(rows, mode="batch")
        rebuilt = rows.to_schedule()
        assert rebuilt.instance == schedule.instance
        assert [m.jobs for m in rebuilt.machines] == [m.jobs for m in schedule.machines]
        # The stated cost is the builder's; rebuilt profiles sum the same
        # spans in another order.
        assert rows.total_busy_time == schedule.total_busy_time
        assert rebuilt.total_busy_time == pytest.approx(schedule.total_busy_time, rel=1e-12)
        assert not any(isinstance(v, (Job, Machine)) for v in rows.job_ids)

    def test_bounds_must_partition_the_ids(self):
        instance = Instance.from_intervals([(0, 3), (1, 4)], g=2)
        rows = ScheduleRows.from_schedule(_one_machine(instance)).instance
        with pytest.raises(ValueError, match="machine bounds"):
            ScheduleRows(rows, [0], [0, 1], [0, 1])
        with pytest.raises(ValueError, match="must not precede"):
            ScheduleRows(rows, [0], [0, 2], [0, 1], placements={0: (2.0, 1.0)})
