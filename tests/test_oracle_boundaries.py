"""Where the oracle runs: once at each trust boundary, nowhere else.

:func:`verify_schedule` is the independent check behind every guarantee the
paper proves, so it must run where a schedule is handed to someone who
trusts it, and only there.  Scheduling code (every registered algorithm,
the exact solvers, ``ScheduleBuilder.freeze``) returns unverified
schedules; the boundaries verify exactly once:

* ``Engine.solve`` on the schedule of a forced or dispatched solve;
* the racer on every candidate that finishes, including the
  single-machine shortcut and the deadline fallback (no second pass on
  the winner);
* ``io.schedule_from_dict`` on decoded bytes, hence on every disk hit;
* the Simulator's oracle cadence;
* the offline checks of handed-in or reference schedules
  (``analysis.ratio.measure``, the Fig. 4 reference schedule).

The counts are taken by swapping a counting wrapper into every loaded
``busytime`` module that binds ``verify_schedule``.
"""

from __future__ import annotations

import sys

import pytest

import busytime.core.schedule as schedule_module
from busytime import Engine, SolveRequest
from busytime.algorithms.base import available_schedulers, get_scheduler
from busytime.analysis.ratio import measure
from busytime.core.instance import Instance
from busytime.exact import (
    branch_and_bound_optimum,
    brute_force_optimum,
    minimize_machine_count,
)
from busytime.extensions.dynamic import NeverMigrate, Simulator
from busytime.generators import (
    firstfit_lower_bound_instance,
    fig4_reference_schedule,
    uniform_random_instance,
)
from busytime.generators.dynamic_traces import uniform_dynamic_trace
from busytime.service import ResultStore, SolveService

from test_differential_corpus import CORPUS

_ORIGINAL = schedule_module.verify_schedule


@pytest.fixture()
def oracle_calls(monkeypatch):
    """The schedules ``verify_schedule`` was called on, in call order."""
    calls = []

    def counting(schedule, mode="full"):
        calls.append(schedule)
        return _ORIGINAL(schedule, mode)

    for name, module in list(sys.modules.items()):
        if name.startswith("busytime") and (
            getattr(module, "verify_schedule", None) is _ORIGINAL
        ):
            monkeypatch.setattr(module, "verify_schedule", counting)
    return calls


_DIRECT = [n for n in available_schedulers() if not get_scheduler(n).composite]


@pytest.mark.parametrize("name", _DIRECT)
@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_registered_schedulers_do_not_verify(oracle_calls, name, label, instance):
    scheduler = get_scheduler(name)
    if not scheduler.handles(instance):
        pytest.skip(f"{name} does not declare {label}'s instance class")
    schedule = scheduler(instance)
    assert oracle_calls == []
    _ORIGINAL(schedule)  # ...and what they return is still feasible


@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_exact_solvers_do_not_verify(oracle_calls, label, instance):
    """The machine-count solver on the whole instance; branch and bound and
    brute force on its first seven jobs, which keeps them tier-1 fast."""
    prefix = Instance(jobs=instance.jobs[:7], g=instance.g)
    schedules = [
        minimize_machine_count(instance),
        branch_and_bound_optimum(prefix),
        brute_force_optimum(prefix),
    ]
    assert oracle_calls == []
    for schedule in schedules:
        _ORIGINAL(schedule)


def test_forced_solve_verifies_once(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    report = Engine().solve(SolveRequest(instance=instance, algorithm="first_fit"))
    assert oracle_calls == [report.schedule]


def test_dispatched_portfolio_solve_verifies_once(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    report = Engine().solve(SolveRequest(instance=instance, portfolio=True))
    assert len(report.components) >= 2
    assert oracle_calls == [report.schedule]


def test_composite_scheduler_is_an_engine_solve(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    schedule = get_scheduler("auto")(instance)
    assert oracle_calls == [schedule]


def test_race_verifies_each_finished_candidate_once(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    report = Engine().solve(SolveRequest(instance=instance, race=3))
    finished = [c for c in report.race.candidates if c.status == "finished"]
    assert len(finished) == len(report.race.candidates) >= 2
    assert len(oracle_calls) == len(finished)
    assert any(s is report.schedule for s in oracle_calls)


def test_race_single_machine_shortcut_verifies_once(oracle_calls):
    instance = Instance.from_intervals([(0, 4), (1, 5), (6, 9)], g=2)
    report = Engine().solve(SolveRequest(instance=instance, race=3))
    assert report.algorithm == "single_machine"
    assert oracle_calls == [report.schedule]


def test_race_deadline_fallback_verifies_once(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    report = Engine().solve(SolveRequest(instance=instance, race=3, deadline=0.0))
    assert report.race.fallback
    assert oracle_calls == [report.schedule]


def test_service_cold_solve_and_memory_hit(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    with SolveService() as service:
        service.solve(SolveRequest(instance=instance), timeout=30)
        assert len(oracle_calls) == 1
        hit = service.solve(SolveRequest(instance=instance), timeout=30)
        assert len(oracle_calls) == 1
        assert service.store.stats()["hits"] == 1
    assert hit.schedule.machines


def test_service_disk_hit_verifies_once(oracle_calls, tmp_path):
    instance = uniform_random_instance(40, 3, seed=0)
    with SolveService(store=ResultStore(directory=tmp_path)) as service:
        service.solve(SolveRequest(instance=instance), timeout=30)
    del oracle_calls[:]
    store = ResultStore(directory=tmp_path)
    with SolveService(store=store) as service:
        service.solve(SolveRequest(instance=instance), timeout=30)
    assert store.stats()["disk_hits"] == 1
    assert len(oracle_calls) == 1


def test_simulator_cadence_is_the_only_pass(oracle_calls):
    trace = uniform_dynamic_trace(n=40, g=3, seed=13)
    report = Simulator(
        trace, NeverMigrate(), oracle_check_every=16, compare_offline=False
    ).run()
    assert report.oracle_checks >= 2
    assert len(oracle_calls) == report.oracle_checks


def test_offline_checks_of_handed_in_schedules(oracle_calls):
    instance = uniform_random_instance(40, 3, seed=0)
    measure(instance, get_scheduler("first_fit"))
    assert len(oracle_calls) == 1
    reference = fig4_reference_schedule(firstfit_lower_bound_instance(4))
    assert oracle_calls[1:] == [reference]
