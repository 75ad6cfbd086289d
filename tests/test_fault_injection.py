"""Fault injection: lies and tampering are rejected where a schedule is trusted.

The paper's guarantees (Theorem 2.1's factor 4 for FirstFit, Theorem 3.1's
factor 2 for the proper-instance greedy) hold only for schedules that run
at most ``g`` jobs at once on every machine, schedule every job exactly
once and, on flex instances, keep every job inside its window.
:func:`verify_schedule` is the independent check of those rules.  Each test
here plants one fault and asserts that the boundary a caller trusts turns
it away:

* a registered "liar" algorithm that returns an overloaded machine, drops
  a job, duplicates a job, or places a flex job outside its window.
  Forced and dispatched ``Engine.solve`` raise, a race gives the liar's
  slot away and nothing else, ``SolveService`` (in process and over HTTP)
  fails the job and caches nothing, and a session whose replans use the
  liar adopts none of them;
* a tampered disk entry in the result store, which reads as a miss and is
  re-solved.

Instances use integer coordinates, so costs compare exactly: a lie that
costs no more than FirstFit wins the engine's cheapest-candidate pick (ties
go to the better-ranked liar) and so reaches the check.
"""

from __future__ import annotations

import contextlib
import json
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from busytime import Engine, SolveRequest
from busytime import io as bio
from busytime.algorithms import first_fit, get_scheduler
from busytime.algorithms.base import _REGISTRY, FunctionScheduler, register_scheduler
from busytime.core.instance import Instance
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import (
    InfeasibleScheduleError,
    Machine,
    Schedule,
    verify_schedule,
)
from busytime.extensions.dynamic import Simulator
from busytime.generators.dynamic_traces import uniform_dynamic_trace
from busytime.io import trace_event_to_dict
from busytime.service import (
    ResultStore,
    SessionConfig,
    SessionManager,
    SolveService,
)
from busytime.service.frontend import make_server
from busytime.service.service import JobFailedError

LIAR = "liar"

#: One connected component, clique number 4 > g: no single-machine shortcut.
RIGID = Instance.from_intervals(
    [(0, 4), (1, 5), (2, 6), (3, 7), (6, 9), (8, 12), (10, 13), (11, 14)],
    g=2,
    name="liar-rigid",
)

#: Windowed jobs as ``(release, deadline, length)``.
FLEX = Instance(
    jobs=tuple(
        Job(id=i, interval=Interval(r, r + p), release=r, deadline=d)
        for i, (r, d, p) in enumerate(
            [(0, 6, 3), (1, 8, 4), (2, 9, 3), (4, 12, 5), (6, 14, 4)]
        )
    ),
    g=2,
    name="liar-flex",
)


def _with_first_machine(schedule: Schedule, jobs) -> Schedule:
    machines = list(schedule.machines)
    machines[0] = Machine(index=machines[0].index, jobs=tuple(jobs))
    return Schedule(
        instance=schedule.instance,
        machines=tuple(m for m in machines if m.jobs),
        algorithm=LIAR,
    )


def _overloaded(instance: Instance) -> Schedule:
    """Every job on one machine: cost span(J), more than g jobs at once."""
    return Schedule(
        instance=instance,
        machines=(Machine(index=0, jobs=instance.jobs),),
        algorithm=LIAR,
    )


def _dropped(instance: Instance) -> Schedule:
    """FirstFit without its first job."""
    schedule = first_fit(instance)
    return _with_first_machine(schedule, schedule.machines[0].jobs[1:])


def _duplicated(instance: Instance) -> Schedule:
    """FirstFit with one job listed twice on its machine (same cost)."""
    schedule = first_fit(instance)
    jobs = schedule.machines[0].jobs
    return _with_first_machine(schedule, jobs + jobs[:1])


def _window_violation(instance: Instance) -> Schedule:
    """Window-aware FirstFit with one job moved past its deadline."""
    schedule = get_scheduler("placement_first_fit")(instance)
    jobs = schedule.machines[0].jobs
    ref = next(j for j in instance.jobs if j.id == jobs[0].id)
    late = Job(
        id=ref.id,
        interval=Interval(ref.window_deadline, ref.window_deadline + ref.length),
    )
    return _with_first_machine(schedule, (late,) + jobs[1:])


#: lie -> (liar function, the instance it lies about)
LIES = {
    "overloaded": (_overloaded, RIGID),
    "dropped": (_dropped, RIGID),
    "duplicated": (_duplicated, RIGID),
    "window": (_window_violation, FLEX),
}


@contextlib.contextmanager
def registered_liar(lie: str):
    """Register the liar as the best-ranked algorithm; yields its instance."""
    func, instance = LIES[lie]
    register_scheduler(
        FunctionScheduler(
            func,
            name=LIAR,
            approximation_ratio=1.0,
            selection_priority=0,
            demand_aware=True,
            window_aware=True,
        )
    )
    try:
        yield instance
    finally:
        _REGISTRY.pop(LIAR, None)


@pytest.mark.parametrize("lie", sorted(LIES))
class TestEngine:
    def test_forced_solve_raises(self, lie):
        with registered_liar(lie) as instance:
            with pytest.raises(InfeasibleScheduleError):
                Engine().solve(SolveRequest(instance=instance, algorithm=LIAR))

    def test_dispatched_solve_raises(self, lie):
        with registered_liar(lie) as instance:
            with pytest.raises(InfeasibleScheduleError):
                Engine().solve(SolveRequest(instance=instance, portfolio=False))


@pytest.mark.parametrize("lie", sorted(LIES))
@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "threaded"])
def test_race_gives_away_only_the_liars_slot(lie, threaded):
    """The liar ranks first; the other two candidates race as they would
    alone, so the winner is the one a width-2 race without the liar picks."""
    _, instance = LIES[lie]
    clean = Engine().solve(SolveRequest(instance=instance, race=2))
    with registered_liar(lie):
        request = SolveRequest(instance=instance, race=3)
        if threaded:
            with ThreadPoolExecutor(max_workers=3) as pool:
                report = Engine().solve(request, executor=pool)
        else:
            report = Engine().solve(request)
    rows = {c.algorithm: c for c in report.race.candidates}
    assert rows[LIAR].status == "failed"
    assert report.algorithm == clean.algorithm != LIAR
    verify_schedule(report.schedule)
    assert [tuple(j.id for j in m.jobs) for m in report.schedule.machines] == [
        tuple(j.id for j in m.jobs) for m in clean.schedule.machines
    ]


@pytest.mark.parametrize("lie", sorted(LIES))
def test_service_fails_the_job_and_caches_nothing(lie):
    with registered_liar(lie) as instance, SolveService() as service:
        job_id = service.submit(SolveRequest(instance=instance, algorithm=LIAR))
        with pytest.raises(JobFailedError, match="InfeasibleScheduleError"):
            service.result(job_id, timeout=30)
        assert service.poll(job_id)["status"] == "failed"
        assert service.store.stats()["puts"] == 0
        assert len(service.store) == 0


@pytest.mark.parametrize("lie", sorted(LIES))
def test_http_solve_fails_and_caches_nothing(lie):
    with registered_liar(lie) as instance, SolveService() as service:
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            body = {
                "instance": bio.instance_to_dict(instance),
                "options": {"algorithm": LIAR},
                "wait": True,
            }
            request = urllib.request.Request(
                f"http://{host}:{port}/solve",
                data=json.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                payload = json.loads(reply.read().decode("utf-8"))
        finally:
            server.shutdown()
            server.server_close()
    assert payload["status"] == "failed"
    assert "InfeasibleScheduleError" in payload["error"]
    assert "report" not in payload
    assert service.store.stats()["puts"] == 0


def test_session_replan_with_the_liar_adopts_nothing():
    """A replan whose engine solve raises adopts nothing: the batch is
    acked, the live assignment passes the oracle, and the session matches
    the offline replay, which never migrates."""
    trace = uniform_dynamic_trace(n=30, g=2, seed=3)
    rows = [trace_event_to_dict(e) for e in trace.events]
    config = SessionConfig(
        g=trace.g,
        horizon=trace.horizon,
        policy="rolling_horizon",
        replan_period=4.0,
        algorithm=LIAR,
    )
    with registered_liar("dropped"):
        offline = Simulator(
            trace, config.make_policy(), oracle_check_every=None,
            compare_offline=False,
        ).run()
        manager = SessionManager()
        session = manager.create(config, session_id="liar")
        for first in range(0, len(rows), 5):
            ack = manager.apply_events("liar", rows[first:first + 5], first_offset=first)
            assert ack["applied"] == min(first + 5, len(rows))
            verify_schedule(session.sim.builder.freeze_partial())
        final = manager.close_session("liar")
    assert offline.replans > 0 and offline.migrations == 0
    assert final["replans"] == offline.replans
    assert final["migrations"] == 0
    assert final["realized_cost"] == offline.realized_cost
    # Every replan failed, and the counts say so.
    assert final["failed_replans"] == final["replans"] == offline.failed_replans > 0


def _overload_entry(machines):
    machines[0]["job_ids"] = [i for m in machines for i in m["job_ids"]]
    del machines[1:]


def _drop_from_entry(machines):
    machines[0]["job_ids"] = machines[0]["job_ids"][1:]


def _duplicate_in_entry(machines):
    machines[1]["job_ids"].append(machines[0]["job_ids"][0])


@pytest.mark.parametrize(
    "tamper",
    [_overload_entry, _drop_from_entry, _duplicate_in_entry],
    ids=["overloaded", "dropped", "duplicated"],
)
def test_tampered_disk_entry_is_a_miss(tmp_path, tamper):
    request = SolveRequest(instance=RIGID)
    with SolveService(store=ResultStore(directory=tmp_path)) as service:
        service.solve(request, timeout=30)
    [path] = tmp_path.glob("*/*.json")
    doc = json.loads(path.read_text())
    tamper(doc["schedule"]["machines"])
    path.write_text(json.dumps(doc))

    store = ResultStore(directory=tmp_path)
    assert store.get(path.stem) is None
    assert store.stats()["disk_hits"] == 0
    # The service re-solves the miss and overwrites the entry.
    with SolveService(store=store) as service:
        report = service.solve(request, timeout=30)
    verify_schedule(report.schedule)
    assert ResultStore(directory=tmp_path).get(path.stem) is not None
