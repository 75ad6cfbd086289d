"""Streaming-session battery: differential, fault-injection, soak, admission.

The tentpole guarantees under test:

* **Differential** — streaming a fuzzed arrive/depart trace through a
  session, event by event and in arbitrary batch sizes, yields
  *bit-identical* assignments and realized cost to the offline
  :class:`busytime.extensions.dynamic.Simulator` replay of the same trace,
  under all three migration policies; a mid-stream checkpoint/resume (a
  fresh manager over the same store) changes nothing.
* **Fault injection** — killing a :class:`LocalCluster` worker mid-session
  loses zero acknowledged events on the failover owner and never
  double-applies one (idempotent event offsets).
* **Concurrency soak** — N threads posting interleaved events to shared
  and distinct sessions: no lost updates, monotone event offsets, and the
  ``verify_schedule`` oracle passes at every checkpoint cadence.
* **Admission control** — per-tenant rate/size caps answer 429 with
  ``Retry-After``, a draining service answers 503, and an over-cap or
  malformed batch never partially applies.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from busytime.core.events import (
    ARRIVE,
    DEPART,
    DynamicTrace,
    TraceEvent,
    TraceValidationError,
    TraceValidator,
)
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import verify_schedule
from busytime.extensions.dynamic import Simulator
from busytime.generators.dynamic_traces import uniform_dynamic_trace
from busytime.io import dynamic_trace_from_dict, dynamic_trace_to_dict, trace_event_to_dict
from busytime.service import (
    LocalCluster,
    ResultStore,
    SessionConfig,
    SessionConflictError,
    SessionLimitError,
    SessionLimits,
    SessionManager,
    SessionNotFoundError,
    SessionValidationError,
    SolveService,
)
from busytime.service.frontend import SessionHTTPError, make_server, session_call
from busytime.service.sessions import Session, session_policy

# ---------------------------------------------------------------------------
# Helpers and strategies
# ---------------------------------------------------------------------------

#: (policy, replan_period, budget) triples covering the whole policy panel.
POLICY_CASES = (
    ("never_migrate", None, 4),
    ("rolling_horizon", 7.5, 4),
    ("migration_budget", 7.5, 2),
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

finite_start = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False, width=32
)
finite_length = st.floats(
    min_value=0.25, max_value=20.0, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def dynamic_traces(draw, max_jobs=18):
    """A well-formed fuzzed trace: every job arrives once and departs once,
    possibly early (anywhere inside its interval, including instantly)."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    g = draw(st.integers(min_value=1, max_value=4))
    events = []
    for job_id in range(n):
        start = float(draw(finite_start))
        length = float(draw(finite_length))
        job = Job(id=job_id, interval=Interval(start, start + length))
        fraction = draw(
            st.one_of(
                st.just(1.0),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
            )
        )
        depart = start + float(fraction) * length
        events.append(TraceEvent(time=start, kind=ARRIVE, job=job))
        events.append(TraceEvent(time=min(depart, job.end), kind=DEPART, job=job))
    events.sort(key=lambda e: e.sort_key)
    return DynamicTrace(events=tuple(events), g=g)


def offline_replay(trace, policy_name, period, budget):
    """The offline reference: one Simulator.run() over the whole trace."""
    policy = session_policy(policy_name, period, budget, "first_fit", "first_fit")
    sim = Simulator(trace, policy, oracle_check_every=None, compare_offline=False)
    report = sim.run()
    return sim, report


def stream_config(trace, policy_name, period, budget, **overrides):
    return SessionConfig(
        g=trace.g,
        horizon=trace.horizon,
        policy=policy_name,
        replan_period=period,
        budget=budget,
        **overrides,
    )


def http_post(url, path, body):
    """Raw POST returning (status, payload, headers) — errors included."""
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8")), dict(reply.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8")), dict(exc.headers)


@pytest.fixture()
def http_server():
    """A served SolveService; yields (base_url, server, service)."""
    service = SolveService(start_worker=False)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", server, service
    server.shutdown()
    server.server_close()
    service.close()


# ---------------------------------------------------------------------------
# Differential: session replay == offline simulator, bit for bit
# ---------------------------------------------------------------------------


class TestDifferential:
    @given(
        trace=dynamic_traces(),
        batch=st.integers(min_value=1, max_value=7),
        case=st.sampled_from(POLICY_CASES),
    )
    @RELAXED
    def test_streamed_replay_is_bit_identical_to_offline(self, trace, batch, case):
        policy_name, period, budget = case
        offline_sim, offline = offline_replay(trace, policy_name, period, budget)

        manager = SessionManager()
        manager.create(
            stream_config(trace, policy_name, period, budget), session_id="diff"
        )
        rows = [trace_event_to_dict(e) for e in trace.events]
        for i in range(0, len(rows), batch):
            manager.apply_events("diff", rows[i:i + batch], first_offset=i)

        live = manager.assignment("diff")
        assert live["applied"] == trace.num_events
        assert live["assignment"] == {
            str(job_id): machine
            for job_id, machine in offline_sim.live_assignment().items()
        }
        final = manager.close_session("diff")
        # Bit-identical, not approximately equal: the session runs the very
        # same accrual sequence the offline replay does.
        assert final["realized_cost"] == offline.realized_cost
        assert final["migrations"] == offline.migrations
        assert final["replans"] == offline.replans
        assert final["machines_opened"] == offline.machines_opened
        assert final["arrivals"] == offline.arrivals
        assert final["departures"] == offline.departures
        assert final["early_departures"] == offline.early_departures

    @given(
        trace=dynamic_traces(),
        cut=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        case=st.sampled_from(POLICY_CASES),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def test_checkpoint_resume_mid_stream_changes_nothing(self, trace, cut, case):
        """A worker handoff at any point of the stream is invisible."""
        policy_name, period, budget = case
        _, offline = offline_replay(trace, policy_name, period, budget)

        store = ResultStore()
        rows = [trace_event_to_dict(e) for e in trace.events]
        split = int(round(cut * len(rows)))

        first = SessionManager(store=store)
        first.create(
            stream_config(trace, policy_name, period, budget), session_id="handoff"
        )
        if split:
            first.apply_events("handoff", rows[:split], first_offset=0)

        # A different manager (the failover owner) resumes from the shared
        # checkpoint store and finishes the stream.
        second = SessionManager(store=store)
        second.apply_events("handoff", rows[split:], first_offset=split)
        final = second.close_session("handoff")
        assert final["realized_cost"] == offline.realized_cost
        assert final["migrations"] == offline.migrations
        assert final["machines_opened"] == offline.machines_opened
        assert second.stats()["resumed"] == 1

    def test_run_equals_begin_feed_settle(self):
        """The offline run() is literally the stepwise core in a loop."""
        trace = uniform_dynamic_trace(n=40, g=3, seed=13)
        _, via_run = offline_replay(trace, "migration_budget", 5.0, 2)
        policy = session_policy("migration_budget", 5.0, 2, "first_fit", "first_fit")
        stepped = Simulator(trace, policy, oracle_check_every=None, compare_offline=False)
        stepped.begin()
        for event in trace.events:
            stepped.feed(event)
        report = stepped.settle()
        assert report.realized_cost == via_run.realized_cost
        assert report.migrations == via_run.migrations
        assert report.machines_opened == via_run.machines_opened


# ---------------------------------------------------------------------------
# Fault injection: kill a cluster worker mid-session
# ---------------------------------------------------------------------------


class TestKillDrill:
    def _drill(self, store_dir):
        trace = uniform_dynamic_trace(n=50, g=3, seed=17)
        _, offline = offline_replay(trace, "migration_budget", 4.0, 2)
        rows = [trace_event_to_dict(e) for e in trace.events]
        with LocalCluster(
            workers=3,
            store_dir=store_dir,
            router_kwargs={"probe_interval": None},
        ) as cluster:
            url = cluster.url
            created = session_call(
                url,
                "/sessions",
                {
                    "g": trace.g,
                    "horizon": list(trace.horizon),
                    "policy": "migration_budget",
                    "replan_period": 4.0,
                    "budget": 2,
                },
            )
            sid = created["session_id"]
            half = len(rows) // 2
            ack1 = session_call(
                url, f"/sessions/{sid}/events",
                {"events": rows[:half], "first_offset": 0},
            )
            assert ack1["applied"] == half  # acknowledged

            # Kill the session's pinned owner, no drain, no warning.
            owner = cluster.router.shard_map.primary(sid)
            cluster.kill_worker(cluster.worker_urls.index(owner))

            # The client's at-least-once retry redelivers the *acknowledged*
            # first half: the failover owner must skip every duplicate.
            redelivered = session_call(
                url, f"/sessions/{sid}/events",
                {"events": rows[:half], "first_offset": 0}, retries=3,
            )
            assert redelivered["accepted"] == 0
            assert redelivered["duplicates"] == half
            assert redelivered["applied"] == half  # nothing lost, nothing doubled

            ack2 = session_call(
                url, f"/sessions/{sid}/events",
                {"events": rows[half:], "first_offset": half}, retries=3,
            )
            assert ack2["applied"] == len(rows)
            final = session_call(url, f"/sessions/{sid}/close", {}, retries=3)
            # Bit-identical to the offline replay: the kill lost zero
            # acknowledged events and double-applied none.
            assert final["realized_cost"] == offline.realized_cost
            assert final["migrations"] == offline.migrations
            assert final["machines_opened"] == offline.machines_opened

    def test_kill_worker_mid_session_memory_store(self):
        self._drill(store_dir=None)

    def test_kill_worker_mid_session_disk_store(self, tmp_path):
        self._drill(store_dir=str(tmp_path))

    def test_gap_after_failover_is_a_409_with_resync_offset(self):
        trace = uniform_dynamic_trace(n=20, g=3, seed=3)
        rows = [trace_event_to_dict(e) for e in trace.events]
        with LocalCluster(workers=2, router_kwargs={"probe_interval": None}) as cluster:
            created = session_call(
                cluster.url, "/sessions",
                {"g": trace.g, "horizon": list(trace.horizon)},
            )
            sid = created["session_id"]
            session_call(
                cluster.url, f"/sessions/{sid}/events",
                {"events": rows[:10], "first_offset": 0},
            )
            with pytest.raises(SessionHTTPError) as err:
                session_call(
                    cluster.url, f"/sessions/{sid}/events",
                    {"events": rows[12:], "first_offset": 12},
                )
            assert err.value.status == 409
            assert err.value.payload["expected_offset"] == 10


# ---------------------------------------------------------------------------
# Concurrency soak
# ---------------------------------------------------------------------------


class TestConcurrencySoak:
    def test_interleaved_posters_shared_and_distinct_sessions(self):
        threads_n = 4
        trace = uniform_dynamic_trace(n=60, g=3, seed=21)
        rows = [trace_event_to_dict(e) for e in trace.events]
        _, offline = offline_replay(trace, "never_migrate", None, 4)

        manager = SessionManager()
        config = stream_config(
            trace, "never_migrate", None, 4,
            oracle_check_every=8,   # verify_schedule every 8 applied events
            checkpoint_every=4,
        )
        manager.create(config, session_id="shared")
        batch = 5
        batches = [(i, rows[i:i + batch]) for i in range(0, len(rows), batch)]
        acks = {tid: [] for tid in range(threads_n)}
        errors = []

        def poster(tid):
            try:
                own_id = f"own-{tid}"
                manager.create(config, session_id=own_id)
                for offset, chunk in batches:
                    # Shared session: every thread delivers every batch
                    # (at-least-once, many deliverers).  A thread ahead of
                    # the shared offset parks on the 409 until a peer
                    # catches up; duplicates are skipped by offset.
                    deadline = time.monotonic() + 30
                    while True:
                        try:
                            ack = manager.apply_events(
                                "shared", chunk, first_offset=offset
                            )
                            acks[tid].append(ack["applied"])
                            break
                        except SessionConflictError:
                            if time.monotonic() > deadline:
                                raise
                            time.sleep(0.001)
                    manager.apply_events(own_id, chunk, first_offset=offset)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        workers = [
            threading.Thread(target=poster, args=(tid,)) for tid in range(threads_n)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not errors, errors

        # Monotone offsets per thread: later acks never regress.
        for tid, seen in acks.items():
            assert seen == sorted(seen), f"thread {tid} saw regressing offsets"

        # No lost updates and no double-applies: the shared session accepted
        # each event exactly once across 4 competing deliverers...
        shared_final = manager.close_session("shared")
        assert shared_final["applied"] == len(rows)
        assert shared_final["realized_cost"] == offline.realized_cost
        # ... and the manager-wide accepted-event counter proves it (any
        # double-apply would overshoot, any loss undershoot).
        assert manager.stats()["events_applied"] == len(rows) * (threads_n + 1)

        # Every private session independently matches the offline replay,
        # and its live sub-schedule passes the slow-path oracle.
        for tid in range(threads_n):
            session = manager.get(f"own-{tid}")
            verify_schedule(session.sim.builder.freeze_partial())
            final = manager.close_session(f"own-{tid}")
            assert final["realized_cost"] == offline.realized_cost
        assert manager.stats()["checkpoints"] >= len(batches)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_event_rate_cap_is_a_token_bucket_with_retry_hint(self):
        clock = [0.0]
        manager = SessionManager(
            limits=SessionLimits(events_per_second=10.0, burst=20.0),
            time_fn=lambda: clock[0],
        )
        trace = uniform_dynamic_trace(n=30, g=3, seed=7)
        rows = [trace_event_to_dict(e) for e in trace.events]
        manager.create(stream_config(trace, "never_migrate", None, 4), session_id="rl")

        manager.apply_events("rl", rows[:20], first_offset=0)  # drains the burst
        with pytest.raises(SessionLimitError) as err:
            manager.apply_events("rl", rows[20:30], first_offset=20)
        assert err.value.retry_after == pytest.approx(1.0)  # 10 events at 10/s
        before = manager.assignment("rl")
        assert before["applied"] == 20  # the refused batch applied nothing

        clock[0] += 1.0  # refill exactly the 10 tokens the batch needs
        ack = manager.apply_events("rl", rows[20:30], first_offset=20)
        assert ack["applied"] == 30

    def test_rate_caps_are_per_tenant(self):
        clock = [0.0]
        manager = SessionManager(
            limits=SessionLimits(events_per_second=1.0, burst=10.0),
            time_fn=lambda: clock[0],
        )
        trace = uniform_dynamic_trace(n=10, g=3, seed=8)
        rows = [trace_event_to_dict(e) for e in trace.events]
        manager.create(
            stream_config(trace, "never_migrate", None, 4, tenant="a"),
            session_id="sa",
        )
        manager.create(
            stream_config(trace, "never_migrate", None, 4, tenant="b"),
            session_id="sb",
        )
        manager.apply_events("sa", rows[:10], first_offset=0)
        with pytest.raises(SessionLimitError):
            manager.apply_events("sa", rows[10:], first_offset=10)
        # Tenant b has its own untouched bucket.
        assert manager.apply_events("sb", rows[:10], first_offset=0)["applied"] == 10

    def test_session_count_caps_global_and_per_tenant(self):
        manager = SessionManager(
            limits=SessionLimits(max_sessions=3, max_sessions_per_tenant=2)
        )
        config = SessionConfig(g=2, horizon=(0.0, 10.0))
        manager.create(config, session_id="t1")
        manager.create(config, session_id="t2")
        with pytest.raises(SessionLimitError, match="tenant"):
            manager.create(config, session_id="t3")
        other = SessionConfig(g=2, horizon=(0.0, 10.0), tenant="other")
        manager.create(other, session_id="o1")
        with pytest.raises(SessionLimitError, match="cap of 3"):
            manager.create(
                SessionConfig(g=2, horizon=(0.0, 10.0), tenant="third"),
                session_id="x1",
            )
        # Closing a session frees its slot.
        manager.close_session("t1")
        manager.create(
            SessionConfig(g=2, horizon=(0.0, 10.0), tenant="third"),
            session_id="x1",
        )

    def test_http_rate_cap_answers_429_with_retry_after(self):
        service = SolveService(start_worker=False)
        manager = SessionManager(
            service,
            limits=SessionLimits(events_per_second=5.0, burst=5.0),
        )
        server = make_server(service, sessions=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            trace = uniform_dynamic_trace(n=20, g=3, seed=5)
            rows = [trace_event_to_dict(e) for e in trace.events]
            status, created, _ = http_post(
                url, "/sessions", {"g": trace.g, "horizon": list(trace.horizon)}
            )
            assert status == 201
            sid = created["session_id"]
            status, _, _ = http_post(
                url, f"/sessions/{sid}/events",
                {"events": rows[:5], "first_offset": 0},
            )
            assert status == 200
            status, payload, headers = http_post(
                url, f"/sessions/{sid}/events",
                {"events": rows[5:], "first_offset": 5},
            )
            assert status == 429
            assert "rate" in payload["error"]
            assert float(headers["Retry-After"]) > 0
            # The shed batch never partially applied.
            assignment = session_call(url, f"/sessions/{sid}/assignment")
            assert assignment["applied"] == 5
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_draining_service_answers_503_for_sessions(self, http_server):
        url, _, service = http_server
        status, created, _ = http_post(url, "/sessions", {"g": 2, "horizon": [0, 10]})
        assert status == 201
        service.drain(timeout=0.0)
        status, payload, headers = http_post(url, "/sessions", {"g": 2, "horizon": [0, 10]})
        assert status == 503
        assert "Retry-After" in headers
        status, _, _ = http_post(
            url, f"/sessions/{created['session_id']}/events",
            {"events": [], "first_offset": 0},
        )
        assert status == 503

    def test_over_cap_batch_never_partially_applies(self):
        manager = SessionManager(limits=SessionLimits(max_events_per_batch=8))
        trace = uniform_dynamic_trace(n=10, g=3, seed=4)
        rows = [trace_event_to_dict(e) for e in trace.events]
        manager.create(stream_config(trace, "never_migrate", None, 4), session_id="cap")
        with pytest.raises(SessionLimitError, match="per-batch cap"):
            manager.apply_events("cap", rows, first_offset=0)  # 20 > 8
        assert manager.assignment("cap")["applied"] == 0
        for i in range(0, len(rows), 8):
            manager.apply_events("cap", rows[i:i + 8], first_offset=i)
        assert manager.assignment("cap")["applied"] == len(rows)

    def test_malformed_batch_never_partially_applies(self, http_server):
        url, server, _ = http_server
        trace = uniform_dynamic_trace(n=10, g=3, seed=6)
        rows = [trace_event_to_dict(e) for e in trace.events]
        created = session_call(url, "/sessions", {"g": trace.g, "horizon": list(trace.horizon)})
        sid = created["session_id"]
        poisoned = rows[:5] + [{"time": "not-a-number", "kind": "arrive"}]
        status, payload, _ = http_post(
            url, f"/sessions/{sid}/events", {"events": poisoned, "first_offset": 0}
        )
        assert status == 400
        assert session_call(url, f"/sessions/{sid}/assignment")["applied"] == 0
        # Rows that are not objects are refused the same way, and the live
        # session survives them (nothing resumes from the checkpoint).
        for bad in ([1, 2, 3], "x", None):
            status, payload, _ = http_post(
                url, f"/sessions/{sid}/events", {"events": rows[:5] + [bad], "first_offset": 0}
            )
            assert status == 400
            assert "event row must be a JSON object" in payload["error"]
        assert session_call(url, f"/sessions/{sid}/assignment")["applied"] == 0
        assert server.sessions.stats()["resumed"] == 0
        # The same five valid rows then apply cleanly from offset 0.
        ack = session_call(
            url, f"/sessions/{sid}/events", {"events": rows[:5], "first_offset": 0}
        )
        assert ack["applied"] == 5

    def test_out_of_order_batch_is_rejected_atomically(self):
        manager = SessionManager()
        trace = uniform_dynamic_trace(n=8, g=2, seed=9)
        rows = [trace_event_to_dict(e) for e in trace.events]
        manager.create(stream_config(trace, "never_migrate", None, 4), session_id="ooo")
        backwards = [rows[3], rows[0]]  # violates event ordering
        with pytest.raises(SessionValidationError):
            manager.apply_events("ooo", backwards, first_offset=0)
        assert manager.assignment("ooo")["applied"] == 0


# ---------------------------------------------------------------------------
# Unit coverage: validator, step API, checkpoints, store documents, HTTP
# ---------------------------------------------------------------------------


class TestTraceValidator:
    def _trace(self):
        return uniform_dynamic_trace(n=10, g=2, seed=1)

    def test_incremental_matches_batch_validate(self):
        trace = self._trace()
        validator = TraceValidator()
        for event in trace.events:
            validator.feed(event)
        validator.finish()
        assert validator.live_job_ids == frozenset()
        assert validator.events_seen == trace.num_events

    def test_copy_isolates_the_probe(self):
        trace = self._trace()
        validator = TraceValidator()
        validator.feed(trace.events[0])
        probe = validator.copy()
        for event in trace.events[1:]:
            probe.feed(event)
        # The original saw only the first event.
        assert validator.events_seen == 1
        assert probe.events_seen == trace.num_events

    def test_double_arrival_and_unknown_departure_rejected(self):
        job = Job(id=1, interval=Interval(0.0, 5.0))
        validator = TraceValidator()
        validator.feed(TraceEvent(time=0.0, kind=ARRIVE, job=job))
        with pytest.raises(TraceValidationError):
            validator.copy().feed(TraceEvent(time=0.0, kind=ARRIVE, job=job))
        with pytest.raises(TraceValidationError):
            TraceValidator().feed(TraceEvent(time=1.0, kind=DEPART, job=job))

    def test_finish_requires_every_arrival_to_depart(self):
        job = Job(id=1, interval=Interval(0.0, 5.0))
        validator = TraceValidator()
        validator.feed(TraceEvent(time=0.0, kind=ARRIVE, job=job))
        with pytest.raises(TraceValidationError, match="never depart"):
            validator.finish()


class TestStepAPI:
    def test_streaming_simulator_guards(self):
        policy = session_policy("never_migrate", None, 4, "first_fit", "first_fit")
        sim = Simulator.streaming(g=2, policy=policy, horizon=(0.0, 10.0))
        with pytest.raises(RuntimeError, match="begun"):
            sim.begin()  # streaming() already called begin()
        with pytest.raises(RuntimeError, match="feed"):
            sim.run()  # trace-less simulators are fed, not run
        job = Job(id=1, interval=Interval(0.0, 4.0))
        sim.feed(TraceEvent(time=0.0, kind=ARRIVE, job=job))
        assert sim.live_assignment() == {1: 0}
        sim.feed(TraceEvent(time=4.0, kind=DEPART, job=job))
        report = sim.settle()
        assert report.realized_cost == pytest.approx(4.0)
        with pytest.raises(RuntimeError, match="settled"):
            sim.settle()
        with pytest.raises(RuntimeError):
            sim.feed(TraceEvent(time=5.0, kind=ARRIVE, job=job))

    def test_streaming_requires_g_and_horizon(self):
        policy = session_policy("never_migrate", None, 4, "first_fit", "first_fit")
        with pytest.raises(ValueError, match="explicit g and horizon"):
            Simulator(None, policy)

    def test_realized_cost_so_far_is_read_only_and_converges(self):
        trace = uniform_dynamic_trace(n=20, g=3, seed=2)
        policy = session_policy("never_migrate", None, 4, "first_fit", "first_fit")
        sim = Simulator(trace, policy, oracle_check_every=None, compare_offline=False)
        sim.begin()
        snapshots = []
        for event in trace.events:
            sim.feed(event)
            snapshots.append(sim.realized_cost_so_far())
            # Reading twice must not change the answer (no accrual mutation).
            assert sim.realized_cost_so_far() == snapshots[-1]
        assert snapshots == sorted(snapshots)  # cost only grows
        report = sim.settle()
        assert snapshots[-1] <= report.realized_cost


class TestCheckpoints:
    def test_checkpoint_document_roundtrip(self):
        trace = uniform_dynamic_trace(n=12, g=2, seed=10)
        manager = SessionManager()
        manager.create(
            stream_config(trace, "never_migrate", None, 4), session_id="ckpt"
        )
        rows = [trace_event_to_dict(e) for e in trace.events]
        manager.apply_events("ckpt", rows, first_offset=0)
        doc = manager.get("ckpt").checkpoint_document()
        # The embedded event log is a loadable busytime trace payload.
        rebuilt = dynamic_trace_from_dict(
            {"format": "busytime-trace", "version": 1, "g": trace.g, "events": doc["events"]}
        )
        assert rebuilt.events == trace.events

    def test_unknown_session_is_not_found(self):
        manager = SessionManager()
        with pytest.raises(SessionNotFoundError):
            manager.get("never-created")

    def test_closed_session_survives_resume(self):
        store = ResultStore()
        first = SessionManager(store=store)
        first.create(SessionConfig(g=2, horizon=(0.0, 5.0)), session_id="done")
        first.close_session("done")
        second = SessionManager(store=store)
        status = second.status("done")
        assert status["closed"] is True
        with pytest.raises(SessionValidationError, match="closed"):
            second.apply_events("done", [], first_offset=None)

    def test_checkpoint_cadence_defers_durability(self):
        store = ResultStore()
        manager = SessionManager(store=store)
        trace = uniform_dynamic_trace(n=10, g=2, seed=11)
        rows = [trace_event_to_dict(e) for e in trace.events]
        manager.create(
            stream_config(trace, "never_migrate", None, 4, checkpoint_every=50),
            session_id="lazy",
        )
        manager.apply_events("lazy", rows[:10], first_offset=0)
        doc = store.get_document("session-lazy")
        assert doc["applied"] == 0  # under the cadence: only the create checkpoint
        manager.apply_events("lazy", rows[10:], first_offset=10)
        # All 20 events applied, still under the 50-event cadence: durability
        # lags acknowledgement — exactly the documented trade-off.
        assert store.get_document("session-lazy")["applied"] == 0
        manager.close_session("lazy")  # closing always checkpoints
        assert store.get_document("session-lazy")["applied"] == 20


class TestStoreDocuments:
    def test_memory_roundtrip_and_isolation(self):
        store = ResultStore()
        store.put_document("doc-1", {"a": [1, 2]})
        loaded = store.get_document("doc-1")
        assert loaded == {"a": [1, 2]}
        loaded["a"].append(3)  # caller mutation must not leak back
        assert store.get_document("doc-1") == {"a": [1, 2]}
        assert store.list_documents() == ["doc-1"]
        store.delete_document("doc-1")
        assert store.get_document("doc-1") is None

    def test_disk_documents_are_shared_between_stores(self, tmp_path):
        writer = ResultStore(directory=tmp_path)
        reader = ResultStore(directory=tmp_path)
        writer.put_document("shared-doc", {"v": 1})
        assert reader.get_document("shared-doc") == {"v": 1}
        writer.put_document("shared-doc", {"v": 2})  # reads are never stale
        assert reader.get_document("shared-doc") == {"v": 2}
        assert reader.list_documents("shared") == ["shared-doc"]
        reader.delete_document("shared-doc")
        assert writer.get_document("shared-doc") is None

    def test_documents_do_not_count_against_report_budget(self, tmp_path):
        store = ResultStore(directory=tmp_path, max_disk_entries=1)
        for index in range(5):
            store.put_document(f"doc-{index}", {"i": index})
        assert store.disk_entries() == 0  # the report tier never saw them
        assert len(store.list_documents()) == 5

    def test_invalid_keys_are_rejected(self):
        store = ResultStore()
        with pytest.raises(ValueError):
            store.put_document("../escape", {})
        assert store.get_document("../escape") is None


class TestCLISession:
    def test_streams_generated_trace_and_settles(self, http_server, capsys):
        from busytime.cli import main

        url, _, _ = http_server
        code = main([
            "session", "--url", url, "--family", "uniform", "--n", "24",
            "--seed", "5", "--policy", "migration_budget", "--period", "20",
            "--budget", "3", "--batch", "16",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "streamed" in out and "realized_cost" in out

    def test_streams_saved_trace_with_transcript(self, http_server, tmp_path, capsys):
        from busytime.cli import main
        from busytime.io import save_dynamic_trace

        url, _, _ = http_server
        trace = uniform_dynamic_trace(n=16, g=2, seed=6)
        _, offline = offline_replay(trace, "never_migrate", None, 4)
        trace_path = tmp_path / "trace.json"
        save_dynamic_trace(trace, trace_path)
        transcript_path = tmp_path / "transcript.json"
        code = main([
            "session", "--url", url, "--trace", str(trace_path),
            "--batch", "7", "--output", str(transcript_path),
        ])
        assert code == 0
        assert "transcript written" in capsys.readouterr().out
        transcript = json.loads(transcript_path.read_text())
        assert transcript["final"]["realized_cost"] == offline.realized_cost
        assert transcript["assignment"]["applied"] == trace.num_events

    def test_keep_open_leaves_session_live(self, http_server, capsys):
        from busytime.cli import main

        url, _, _ = http_server
        code = main([
            "session", "--url", url, "--family", "uniform", "--n", "8",
            "--keep-open",
        ])
        assert code == 0
        capsys.readouterr()
        listing = session_call(url, "/sessions")
        assert listing["stats"]["live"] == 1


class TestHTTPEndpoints:
    def test_create_stream_assignment_close_roundtrip(self, http_server):
        url, _, _ = http_server
        trace = uniform_dynamic_trace(n=16, g=2, seed=12)
        rows = [trace_event_to_dict(e) for e in trace.events]
        _, offline = offline_replay(trace, "never_migrate", None, 4)
        status, created, _ = http_post(
            url, "/sessions",
            {"g": trace.g, "horizon": list(trace.horizon), "session_id": "http-rt"},
        )
        assert status == 201 and created["session_id"] == "http-rt"
        ack = session_call(url, "/sessions/http-rt/events", {"events": rows})
        assert ack["applied"] == len(rows)
        listing = session_call(url, "/sessions")
        assert listing["stats"]["sessions"] == 1
        final = session_call(url, "/sessions/http-rt/close", {})
        assert final["realized_cost"] == offline.realized_cost
        # Closing is idempotent over HTTP too.
        assert session_call(url, "/sessions/http-rt/close", {}) == final

    def test_batch_failing_mid_apply_is_a_500_and_resumes(self, http_server):
        """An error inside ``Simulator.feed`` answers 500 with its message
        instead of dropping the connection, and the half-applied live copy
        is dropped: the next request resumes at the checkpointed offset,
        and resending the batch finishes the stream as if nothing failed."""
        url, server, _ = http_server
        trace = uniform_dynamic_trace(n=12, g=2, seed=14)
        rows = [trace_event_to_dict(e) for e in trace.events]
        _, offline = offline_replay(trace, "never_migrate", None, 4)
        status, _, _ = http_post(
            url, "/sessions",
            {"g": trace.g, "horizon": list(trace.horizon), "session_id": "flaky"},
        )
        assert status == 201
        session_call(url, "/sessions/flaky/events", {"events": rows[:5]})

        session = server.sessions.get("flaky")
        real_feed = session.sim.feed
        fed = []

        def flaky_feed(event):
            if len(fed) == 2:
                raise RuntimeError("feed failed mid-batch")
            fed.append(event)
            real_feed(event)

        session.sim.feed = flaky_feed
        status, payload, _ = http_post(
            url, "/sessions/flaky/events", {"events": rows[5:], "first_offset": 5}
        )
        assert status == 500
        assert "feed failed mid-batch" in payload["error"]

        assert session_call(url, "/sessions/flaky")["applied"] == 5
        assert server.sessions.stats()["resumed"] == 1
        ack = session_call(
            url, "/sessions/flaky/events", {"events": rows[5:], "first_offset": 5}
        )
        assert ack["applied"] == len(rows)
        final = session_call(url, "/sessions/flaky/close", {})
        assert final["realized_cost"] == offline.realized_cost

    def test_honest_replans_report_no_failures(self, http_server):
        url, _, _ = http_server
        trace = uniform_dynamic_trace(n=20, g=2, seed=8)
        rows = [trace_event_to_dict(e) for e in trace.events]
        created = session_call(
            url,
            "/sessions",
            {
                "g": trace.g,
                "horizon": list(trace.horizon),
                "policy": "rolling_horizon",
                "replan_period": 3.0,
            },
        )
        sid = created["session_id"]
        session_call(url, f"/sessions/{sid}/events", {"events": rows})
        live = session_call(url, f"/sessions/{sid}/assignment")
        assert live["replans"] > 0 and live["failed_replans"] == 0
        final = session_call(url, f"/sessions/{sid}/close", {})
        assert final["replans"] > 0 and final["failed_replans"] == 0

    def test_damaged_checkpoints_are_a_400(self, http_server):
        """A checkpoint that does not replay (no config, a non-object event
        row) is refused with a 400 by both GETs and the POST, on one
        keep-alive connection, instead of a dropped connection or a 500."""
        import http.client

        url, server, _ = http_server
        trace = uniform_dynamic_trace(n=4, g=2, seed=2)
        good = Session(
            "template", stream_config(trace, "never_migrate", None, 4)
        ).checkpoint_document()
        no_config = dict(good, session_id="no-config")
        del no_config["config"]
        bad_row = dict(good, session_id="bad-row", events=[[1, 2, 3]], applied=1)
        store = server.sessions.store
        for doc in (no_config, bad_row):
            store.put_document(server.sessions._checkpoint_key(doc["session_id"]), doc)
        conn = http.client.HTTPConnection("127.0.0.1", int(url.rsplit(":", 1)[1]))
        try:
            for sid in ("no-config", "bad-row"):
                for method, path, body in (
                    ("GET", f"/sessions/{sid}", None),
                    ("GET", f"/sessions/{sid}/assignment", None),
                    ("POST", f"/sessions/{sid}/events", {"events": []}),
                ):
                    payload = None if body is None else json.dumps(body)
                    conn.request(method, path, payload, {"Content-Type": "application/json"})
                    reply = conn.getresponse()
                    answer = json.loads(reply.read())
                    assert reply.status == 400, (method, path, answer)
                    assert f"checkpoint of session '{sid}' does not replay" in answer["error"]
        finally:
            conn.close()
        assert server.sessions.stats()["resumed"] == 0

    def test_unexpected_read_error_is_a_500(self, http_server, monkeypatch):
        """A GET that fails unexpectedly answers 500 with the error, like the
        POST side, instead of dropping the connection."""
        url, server, _ = http_server

        def broken(session_id):
            raise RuntimeError("status store unreachable")

        monkeypatch.setattr(server.sessions, "status", broken)
        with pytest.raises(SessionHTTPError) as info:
            session_call(url, "/sessions/anything")
        assert info.value.status == 500
        assert info.value.payload["error"] == "RuntimeError: status store unreachable"

    def test_bad_config_is_a_400(self, http_server):
        url, _, _ = http_server
        for body in (
            {"horizon": [0, 10]},                       # missing g
            {"g": 2, "horizon": [10, 0]},               # inverted horizon
            {"g": 2, "horizon": [0, 10], "policy": "??"},
            {"g": 2, "horizon": [0, 10], "bogus": 1},   # unknown field
            {"g": 2, "horizon": [0, 10], "policy": "rolling_horizon"},  # no period
        ):
            status, payload, _ = http_post(url, "/sessions", body)
            assert status == 400, body
            assert "error" in payload

    def test_policy_constructor_refusals_are_a_400(self, http_server, capsys):
        # The policy constructors' own ValueErrors must surface as a 400
        # with their message, not as a dropped connection and a traceback.
        url, _, _ = http_server
        for extra, message in (
            ({"placement": "nope"}, "unknown placement 'nope'"),
            (
                {"policy": "rolling_horizon", "replan_period": -1},
                "replan period must be positive",
            ),
            (
                {"policy": "migration_budget", "replan_period": 5, "budget": -1},
                "migration budget must be non-negative",
            ),
        ):
            body = {"g": 2, "horizon": [0, 10], **extra}
            status, payload, _ = http_post(url, "/sessions", body)
            assert status == 400, body
            assert message in payload["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_options_are_a_400(self, http_server):
        # NaN fails no "<= 0" check: a NaN replan period would create a
        # session that never replans and checkpoint NaN into its config.
        url, _, _ = http_server
        for extra, message in (
            (
                {"policy": "rolling_horizon", "replan_period": float("nan")},
                "replan period must be positive, got nan",
            ),
            ({"latency_slo_ms": float("nan")}, "latency_slo_ms must be positive"),
        ):
            body = {"g": 2, "horizon": [0, 10], **extra}
            status, payload, _ = http_post(url, "/sessions", body)
            assert status == 400, body
            assert message in payload["error"]

    def test_unknown_session_paths_are_404(self, http_server):
        url, _, _ = http_server
        status, _, _ = http_post(url, "/sessions/ghost/events", {"events": []})
        assert status == 404
        with pytest.raises(SessionHTTPError) as err:
            session_call(url, "/sessions/ghost/assignment")
        assert err.value.status == 404
