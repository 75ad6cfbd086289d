"""Tests for the benchmark's own logic (not for busytime itself)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from busytime import Engine, SolveRequest
from busytime import io as bio
from busytime.generators import uniform_random_instance
from busytime.service.canonical import canonicalize

from perfbench import gate, layers, run, stats
from perfbench import workloads as wl
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPIN_THEN_SLEEP = (
    "import time\n"
    "t = time.process_time()\n"
    "while time.process_time() - t < 0.2: pass\n"
    "print('slept', flush=True)\n"
    "time.sleep(30)\n"
)


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(10_000, 99.9), (9_999, 99.0), (1000, 99.0), (999, 95.0), (800, 95.0),
     (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    p = stats.choose_tail_percentile(samples)
    assert p == expected
    assert stats.samples_beyond(samples, p) >= stats.TAIL_BEYOND
    values = [float(v) for v in range(samples)]
    assert sum(v > stats.percentile(values, p) for v in values) >= stats.TAIL_BEYOND
    higher = [q for q in stats.TAIL_LADDER if q > p]
    assert all(stats.samples_beyond(samples, q) < stats.TAIL_BEYOND for q in higher)


def test_committed_run_length_leaves_ten_samples_beyond_each_tail():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in run.WORKLOADS.values():
        samples = workload.units(seconds) * workload.unit_samples
        assert stats.samples_beyond(samples, workload.tail(seconds)) >= stats.TAIL_BEYOND


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.choose_tail_percentile(39)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values, 99.9) == 100.0
    assert stats.percentile([3.0], 98) == 3.0


# -- self time ------------------------------------------------------------------


def _traced_calls(tmp_path):
    """outer() calls inner() twice; both wrapped by a real Tracer."""
    tracer = Tracer()
    ns = types.SimpleNamespace()

    def inner():
        return sum(range(20_000))

    def outer():
        total = sum(range(50_000))
        return total + ns.inner() + ns.inner()

    ns.inner, ns.outer = inner, outer
    tracer.wrap(ns, "inner", "core.inner")
    tracer.wrap(ns, "outer", "engine.outer", context=lambda: {"rid": "op-1"})
    ns.outer()
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    return layers.load_spans(path)


def test_self_time_is_span_minus_children(tmp_path):
    spans = _traced_calls(tmp_path)
    grouped = layers.link(spans)
    outer = next(s for s in spans if s.name == "engine.outer")
    inners = [s for s in spans if s.name == "core.inner"]
    assert len(inners) == 2 and all(s.parent == outer.id for s in inners)
    assert outer.self_time == outer.duration - sum(s.duration for s in inners)
    assert all(s.self_time == s.duration for s in inners)
    # the request id set on the outer span reaches its children
    assert {s.rid for s in grouped["op-1"]} == {"op-1"} and len(grouped["op-1"]) == 3


def test_worker_spans_join_their_request_by_fingerprint():
    def span(name, start, end, sid, parent=None, rid=None, fp=None, attrs=None):
        return layers.Span(name, start, end, sid, parent, 1 if rid else 2, rid, fp, attrs or {})

    spans = [
        span("frontend.request", 0, 100, 1, rid="op-7"),
        span("canonical.fingerprint", 5, 10, 2, parent=1, rid="op-7", attrs={"fp": "ab"}),
        span("service.wait", 20, 90, 3, parent=1, rid="op-7"),
        span("service.solve_batch", 30, 80, 4, fp="ab"),
        span("engine.solve", 35, 75, 5, parent=4, fp="ab"),
        # an earlier request minted the same fingerprint: not the owner
        span("canonical.fingerprint", -50, -40, 6, rid="op-3", attrs={"fp": "ab"}),
    ]
    grouped = layers.link(spans)
    assert {s.name for s in grouped["op-7"]} >= {"service.solve_batch", "engine.solve"}
    wait = spans[2]
    assert wait.self_time == 70 - 50  # the worker's solve is the wait's child
    op = layers.OpTrace(latency_ms=0.000150, spans=grouped["op-7"])
    by_layer = op.self_by_layer()
    assert by_layer["engine"] == pytest.approx(40 / 1e6)
    assert by_layer["service"] == pytest.approx((20 + 10) / 1e6)
    assert by_layer["unaccounted"] == pytest.approx(50 / 1e6)


def test_design_check_fails_a_drifted_layer_mix():
    shares = {layer: 0.0 for layer in layers.LAYERS + ("unaccounted",)}
    shares.update(frontend=0.5, canonical=0.2, store=0.2, unaccounted=0.1)
    assert run.design_check("solve_hot", shares)[0]
    shares.update(engine=0.05, frontend=0.45)  # the engine shows up on cache hits
    ok, text = run.design_check("solve_hot", shares)
    assert not ok and ": NO --" in text


# -- accounting -------------------------------------------------------------------


def test_tally_cost_ratio_and_success_rate():
    tally = stats.Tally()
    tally.record(True)
    tally.record(False, ops=5)
    tally.record(True, ops=4)
    tally.add_cost(12.0, 10.0)
    tally.add_cost(18.0, 15.0)
    assert (tally.attempted, tally.failed) == (10, 5)
    assert tally.success_rate == 0.5
    assert tally.cost_ratio == 30.0 / 25.0
    with pytest.raises(ValueError):
        stats.Tally().cost_ratio


def test_spread_matches_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, mid, q3 = stats.quartiles(values)
    assert stats.spread(values) == (q3 - q1) / mid


# -- the correctness gate ------------------------------------------------------------


def _reply(instance):
    report = Engine().solve(SolveRequest(instance=instance))
    doc = {"job_id": "job-1", "status": "done", "report": bio.solve_report_to_dict(report)}
    return json.dumps(doc).encode("utf-8"), report.schedule.total_busy_time


def _overload_one_job(raw: bytes, g: int) -> bytes:
    """Move one job onto a machine already running ``g`` jobs at its start."""
    reply = json.loads(raw.decode("utf-8"))
    doc = reply["report"]["schedule"]
    spans = {row["id"]: (row["start"], row["end"]) for row in doc["instance"]["jobs"]}
    for target in doc["machines"]:
        for source in doc["machines"]:
            if source is target:
                continue
            for job_id in source["job_ids"]:
                start = spans[job_id][0]
                load = sum(1 for other in target["job_ids"]
                           if spans[other][0] <= start < spans[other][1])
                if load >= g:
                    source["job_ids"].remove(job_id)
                    target["job_ids"].append(job_id)
                    return json.dumps(reply).encode("utf-8")
    raise AssertionError("no saturated machine to overload")


def test_gate_accepts_an_honest_reply_and_checks_hit_cost():
    instance = uniform_random_instance(120, 3, seed=4)
    raw, cost = _reply(instance)
    assert gate.check_solve(raw, instance) == cost
    assert gate.check_solve(raw, instance, expected_cost=cost) == cost
    with pytest.raises(gate.GateError):
        gate.check_solve(raw, instance, expected_cost=cost + 1.0)


def test_gate_rejects_a_job_moved_onto_an_overloaded_machine():
    instance = uniform_random_instance(120, 3, seed=4)
    raw, _ = _reply(instance)
    with pytest.raises(gate.GateError, match="oracle rejected"):
        gate.check_solve(_overload_one_job(raw, instance.g), instance)


def test_gate_rejects_unknown_and_unfinished_replies():
    instance = uniform_random_instance(40, 2, seed=5)
    raw, _ = _reply(instance)
    other = uniform_random_instance(40, 2, seed=6)
    with pytest.raises(gate.GateError):
        gate.check_solve(raw, other)  # same ids, different intervals: cost differs
    reply = json.loads(raw)
    reply["report"]["schedule"]["machines"][0]["job_ids"].append(10_000)
    with pytest.raises(gate.GateError, match="unknown job"):
        gate.check_solve(json.dumps(reply).encode(), instance)
    with pytest.raises(gate.GateError, match="not done"):
        gate.check_solve(b'{"status": "failed", "error": "boom"}', instance)


# -- the committed benchmark definition ------------------------------------------------


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, _ in layers.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "scaled_cpu_p50_ms", "scaled_cpu_tail_ms", "scaled_ops_per_cpu_s", "cost_ratio",
        "success_rate", "setup_s", "peak_rss_mb",
    }
    assert {w["name"] for w in spec["workloads"]} == {"solve_cold", "solve_hot", "session_long"}


# -- timings and inputs ------------------------------------------------------------------


def test_process_cpu_clock_reads_another_process_and_skips_its_sleep():
    child = subprocess.Popen([sys.executable, "-c", SPIN_THEN_SLEEP], stdout=subprocess.PIPE)
    try:
        clock = run.process_cpu_clock(child.pid)
        child.stdout.readline()  # spun 0.2 s of CPU, now sleeping
        before = time.clock_gettime(clock)
        time.sleep(0.3)
        after = time.clock_gettime(clock)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert before >= 0.15
    assert after - before < 0.05


def test_timings_are_scaled_to_reference_speed():
    phase = run.Phase(server_cpu=2.0, setup_times=[3.0, 1.0, 2.0],
                      references=[run.REFERENCE_MS * 2e-3] * 3)
    for _ in range(4):
        phase.record("op", run.Reply(200, b"", 0.02, 0.01), True)
    phase.tally.add_cost(12.0, 10.0)
    assert phase.slowdown == pytest.approx(2.0)
    metrics = run.end_to_end(90.0, phase)
    assert metrics["scaled_cpu_p50_ms"]["value"] == pytest.approx(5.0)
    assert metrics["scaled_ops_per_cpu_s"]["value"] == pytest.approx(4 / 2.0 * 2.0)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)


def test_seeds_disguise_the_same_work():
    one, two = wl.cold_op(1, 5), wl.cold_op(2, 5)
    assert one.body != two.body
    forms = canonicalize(one.instance), canonicalize(two.instance)
    assert forms[0].rows == forms[1].rows and forms[0].g == forms[1].g
    first, second = wl.session_generation(1, 0, jobs=20), wl.session_generation(2, 0, jobs=20)
    assert [s.rows for s in first] != [s.rows for s in second]
    for a, b in zip(first, second):
        assert a.trace.effective_instance().g == b.trace.effective_instance().g
        assert [e.time for e in a.trace.events] == [e.time for e in b.trace.events]
        assert [e.job.id - b.trace.events[k].job.id for k, e in enumerate(a.trace.events)] \
            == [a.trace.events[0].job.id - b.trace.events[0].job.id] * len(a.trace.events)
