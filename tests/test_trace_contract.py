"""The names a traced benchmark server wraps stay where it finds them.

``perfbench/tracer.py`` wraps public names under ``src/`` with a strict
``getattr`` and joins the batch worker's spans to their request by
fingerprint, hanging them under the request's ``SolveService.result`` span
(``service.wait``).  A rename, or a miss that waits anywhere else, shows up
only as a broken ``--trace 1`` run.  This test installs the tracer, read
only, in a subprocess over an in-process ``SolveService`` + ``make_server``
with a disk store, sends one cold solve, one disguised repeat (a memory
hit), another disguise after the memory tier is cleared (a disk hit), a
session create and one event batch, links the spans with
``perfbench.layers.link`` and checks:

* every wrapped name resolved (``install`` raised nothing);
* the cold request's ``engine.solve`` span sits under its ``service.wait``;
* neither repeat holds an ``engine.*`` span, and their ``store.get`` spans
  read tier ``memory`` and tier ``disk``;
* the cold request's and the disk hit's layer self-times sum to no more
  than their latency;
* the batch holds ``sessions.*`` spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import http.client
import json
import random
import tempfile
import threading
import time

from perfbench import layers, workloads
from perfbench.tracer import OP_HEADER, Tracer, install

tracer = Tracer()
install(tracer)

from busytime import io as bio
from busytime.generators import dynamic_traces, uniform_random_instance
from busytime.service import ResultStore, SolveService, make_server

# On perfbench's dyadic grid a disguise (relabel + shift) is exact, so the
# repeats hit the cold request's cache line.
base = workloads.quantized(uniform_random_instance(60, 3, seed=11))
repeat = workloads.disguised(base, random.Random(1))
from_disk = workloads.disguised(base, random.Random(2))
trace = dynamic_traces.uniform_dynamic_trace(n=6, g=2, seed=3)

work = tempfile.TemporaryDirectory()
service = SolveService(store=ResultStore(directory=work.name))
server = make_server(service)
loop = threading.Thread(target=server.serve_forever, daemon=True)
loop.start()
conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
latency = {}


def call(op, path, doc):
    body = json.dumps(doc).encode("utf-8")
    started = time.perf_counter()
    conn.request("POST", path, body, {"Content-Type": "application/json", OP_HEADER: op})
    reply = conn.getresponse()
    data = json.loads(reply.read())
    latency[op] = (time.perf_counter() - started) * 1e3
    assert reply.status in (200, 201), (op, reply.status, data)
    return data


cold = call("cold", "/solve", {"instance": bio.instance_to_dict(base), "wait": True})
hot = call("hot", "/solve", {"instance": bio.instance_to_dict(repeat), "wait": True})
service.store.clear_memory()
disk = call("disk", "/solve", {"instance": bio.instance_to_dict(from_disk), "wait": True})
created = call("create", "/sessions", {"g": trace.g, "horizon": list(trace.horizon)})
rows = [bio.trace_event_to_dict(e) for e in trace.events[:4]]
call("batch", "/sessions/%s/events" % created["session_id"], {"events": rows, "first_offset": 0})
conn.close()
server.shutdown()
server.server_close()
service.close()
work.cleanup()

spans = [layers.Span(*span) for span in tracer.spans]
grouped = layers.link(spans)
parent_of = {}
for span in spans:
    for child in span.children:
        parent_of[child.id] = span


def ancestors(span):
    names = []
    while span.id in parent_of:
        span = parent_of[span.id]
        names.append(span.name)
    return names


summary = {
    "cached": [cold["cached"], hot["cached"], disk["cached"]],
    "latency": latency,
    "ops": {},
}
for op, op_spans in grouped.items():
    trace_of = layers.OpTrace(latency[op], op_spans)
    by_layer = trace_of.self_by_layer()
    summary["ops"][op] = {
        "names": sorted({s.name for s in op_spans}),
        "engine_ancestors": [ancestors(s) for s in op_spans if s.name == "engine.solve"],
        "tiers": [s.attrs.get("tier") for s in op_spans if s.name == "store.get"],
        "self_ms": sum(v for k, v in by_layer.items() if k != "unaccounted"),
    }
print(json.dumps(summary))
"""


def test_traced_server_keeps_the_span_contract():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["cached"] == [False, True, True]
    ops = summary["ops"]

    cold = ops["cold"]
    for name in (
        "frontend.request",
        "frontend.build_request",
        "service.submit",
        "canonical.canonicalize",
        "canonical.fingerprint",
        "store.get",
        "service.wait",
        "service.solve_batch",
        "engine.solve",
        "service.finish_job",
    ):
        assert name in cold["names"], name
    assert cold["engine_ancestors"], cold
    assert all("service.wait" in chain for chain in cold["engine_ancestors"])
    assert cold["self_ms"] <= summary["latency"]["cold"]

    hot = ops["hot"]
    assert "canonical.fingerprint" in hot["names"] and hot["tiers"] == ["memory"]
    assert not [name for name in hot["names"] if name.startswith("engine.")]

    disk = ops["disk"]
    assert "canonical.fingerprint" in disk["names"] and disk["tiers"] == ["disk"]
    assert not [name for name in disk["names"] if name.startswith("engine.")]
    assert disk["self_ms"] <= summary["latency"]["disk"]

    assert [name for name in ops["batch"]["names"] if name.startswith("sessions.")]
