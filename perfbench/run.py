"""Served-path benchmark for the busytime HTTP service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 15 --trace 0

Each run starts the busytime server in its own process (see
``perfbench/server.py``), drives it from one client thread over one
keep-alive connection in a closed loop, checks every reply, and prints a
human-readable report followed by one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--seconds`` fixes the work: the whole units (request cycles, session
generations) that take that long on a 2-vCPU box.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the work untraced and half
against a traced server and reports the per-layer metrics.

The timings are the server's CPU time per operation, read from the server
process's CPU clock around each request.  On a shared host that clock
leaves out the time the hypervisor or other processes took the CPU away,
which client-observed latency does not; the report still prints the
client-observed latencies.  See ``perfbench/README.md`` for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "busytime").is_dir():
    # Never fall back to some other installed copy: the benchmark measures
    # the source tree it ships with.
    sys.exit(f"perfbench: no busytime sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from busytime.core.bounds import best_lower_bound  # noqa: E402

from perfbench import gate, layers, stats  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.reference import reference_seconds  # noqa: E402
from perfbench.tracer import OP_HEADER  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The generation number of the warm-up session (timed generations count from 0).
WARM_GENERATION = -1
#: Reference passes run before each chunk and after the last one.
REFERENCE_PASSES = 2
#: The speed every timing is scaled to: a host that runs one reference pass
#: in this much CPU time (about what a quiet 2-vCPU VM takes on Python 3.11).
REFERENCE_MS = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: wall time of one unit on a 2-vCPU box; ``--seconds`` buys whole units
    unit_seconds: float
    #: latency samples (requests or event batches) in one unit
    unit_samples: int
    #: operations sent between two pauses of the clock
    chunk: int

    def units(self, seconds: float) -> int:
        """How many units a run of ``seconds`` sends, however fast the host."""
        return max(1, round(seconds / self.unit_seconds))

    def tail(self, seconds: float) -> float:
        """The percentile reported as ``cpu_tail_ms`` (see README.md)."""
        return stats.choose_tail_percentile(self.units(seconds) * self.unit_samples)


#: A run is made of whole units: a cycle of requests on the solve workloads,
#: a generation of sessions on session_long.  ``cost_ratio`` covers the first.
WORKLOADS = {
    "solve_cold": Workload("solve_cold", unit_seconds=3.3, unit_samples=wl.COLD_CYCLE,
                           chunk=wl.COLD_CYCLE // 3),
    "solve_hot": Workload("solve_hot", unit_seconds=0.55, unit_samples=wl.HOT_POOL,
                          chunk=wl.HOT_POOL),
    "session_long": Workload(
        "session_long", unit_seconds=20.0,
        unit_samples=len(wl.SESSION_POLICIES) * 2 * wl.SESSION_JOBS // wl.SESSION_BATCH,
        chunk=40),
}


# ---------------------------------------------------------------------------
# server process and client connection
# ---------------------------------------------------------------------------


def process_cpu_clock(pid: int) -> int:
    """The clock id of process ``pid``'s CPU-time clock (Linux).

    This is what ``clock_getcpuclockid(3)`` returns: ``CPUCLOCK_SCHED`` of
    the process, all threads included.  The kernel charges it only while a
    thread runs, and with paravirtual steal accounting it leaves out time a
    hypervisor took from the VM.
    """
    clock = ((~pid) << 3) | 2
    time.clock_gettime_ns(clock)  # raises OSError where there is no such clock
    return clock


class ServerProcess:
    """One ``perfbench.server`` child process."""

    def __init__(self, work: Path, label: str, trace: bool) -> None:
        self.trace_path = work / f"spans-{label}.jsonl" if trace else None
        command = [sys.executable, "-m", "perfbench.server", "--store", str(work / f"store-{label}")]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            line = self._readline(120.0)
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.cpu_clock = process_cpu_clock(self.proc.pid)
        except BaseException:
            self.kill()
            raise
        host, _, port = line.split()[1].removeprefix("http://").partition(":")
        self.address = (host, int(port))

    def cpu_seconds(self) -> float:
        """CPU time the server process has used so far."""
        return time.clock_gettime_ns(self.cpu_clock) / 1e9

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server sent nothing")
        return self.proc.stdout.readline().strip()

    def stop(self) -> Dict[str, float]:
        """Shut the server down; its exit report (peak RSS)."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            report = json.loads(self._readline(120.0))
            self.proc.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


@dataclass
class Reply:
    status: int  # 0 on a transport error
    data: bytes
    seconds: float  # client-observed
    cpu_seconds: float  # the server's


class Client:
    """One keep-alive HTTP connection to ``server``."""

    def __init__(self, server: ServerProcess) -> None:
        self.conn = http.client.HTTPConnection(*server.address, timeout=170)
        self.server_cpu = server.cpu_seconds

    def call(self, path: str, body: Optional[bytes] = None, op: str = "") -> Reply:
        headers = {"Content-Type": "application/json", OP_HEADER: op}
        method = "GET" if body is None else "POST"
        cpu = self.server_cpu()
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            status, data = 0, str(exc).encode()
        seconds = time.perf_counter() - started
        return Reply(status, data, seconds, self.server_cpu() - cpu)

    def json(self, path: str, body: Optional[Dict[str, object]] = None, op: str = "") -> Dict[str, object]:
        reply = self.call(path, None if body is None else json.dumps(body).encode(), op)
        status, data = reply.status, reply.data
        if status not in (200, 201):
            raise gate.GateError(f"{path}: HTTP {status}: {data[:200]!r}")
        return json.loads(data.decode("utf-8"))

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# one run's state
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    op: str
    latency_ms: float  # client-observed
    cpu_ms: float  # server CPU time
    ok: bool
    events: int = 1
    session: str = ""


@dataclass
class Phase:
    """The timed part of a run against one server."""

    #: wall time and server CPU time while the clock ran
    elapsed: float = 0.0
    server_cpu: float = 0.0
    #: CPU seconds of every reference pass, run before each set-up and
    #: chunk and after the last chunk
    references: List[float] = field(default_factory=list)
    #: whether chunks are gauged (not in the warm-up session)
    gauged: bool = True
    samples: List[Sample] = field(default_factory=list)
    tally: stats.Tally = field(default_factory=stats.Tally)
    errors: List[str] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: the store counters of ``GET /stats`` before and after timing
    store_before: Dict[str, object] = field(default_factory=dict)
    store_after: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def record(self, label: str, reply: Reply, ok: bool, events: int = 1, session: str = "") -> None:
        self.tally.record(ok, ops=events)
        self.samples.append(
            Sample(label, reply.seconds * 1e3, reply.cpu_seconds * 1e3, ok, events, session))

    @property
    def latencies(self) -> List[float]:
        return [s.latency_ms for s in self.samples if s.ok]

    @property
    def cpu_times(self) -> List[float]:
        return [s.cpu_ms for s in self.samples if s.ok]

    def gauge(self) -> None:
        """Time the reference work (outside the clock)."""
        self.references.extend(reference_seconds() for _ in range(REFERENCE_PASSES))

    @property
    def slowdown(self) -> float:
        """How much slower than ``REFERENCE_MS`` the host ran during the run."""
        return stats.median(self.references) * 1e3 / REFERENCE_MS


@contextmanager
def clocked(phase: Phase, client: Client):
    """Add the block's wall time and server CPU time to ``phase``.

    The client's own garbage collector is held off meanwhile, so that a
    collection in the client never lands inside a measured latency.  The
    reference work runs just before.
    """
    if phase.gauged:
        phase.gauge()
    gc.disable()
    cpu = client.server_cpu()
    started = time.perf_counter()
    try:
        yield
    finally:
        phase.elapsed += time.perf_counter() - started
        phase.server_cpu += client.server_cpu() - cpu
        gc.enable()


def _solve_checked(client: Client, op: wl.SolveOp, label: str, expected: Optional[float] = None) -> float:
    reply = client.call("/solve", op.body, label)
    if reply.status != 200:
        raise gate.GateError(f"{label}: HTTP {reply.status}: {reply.data[:200]!r}")
    return gate.check_solve(reply.data, op.instance, expected)


def _open_sessions(client: Client, specs: List[wl.SessionSpec]) -> None:
    for spec in specs:
        client.json("/sessions", spec.config(), "create")


class Run:
    """Set-up, timed loop and post-timing checks for one workload."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.servers = 0
        if workload.name == "solve_hot":
            self.pool = wl.hot_pool()
            self.pool_lb = [gate.lower_bound(instance) for instance in self.pool]
            self.pool_cost: List[float] = []

    def setup(self, trace: bool = False) -> Tuple[ServerProcess, Client, float]:
        """Start a fresh server, warm it up and pre-populate it (timed)."""
        started = time.perf_counter()
        self.servers += 1
        server = ServerProcess(self.work, f"{self.servers}", trace)
        client = Client(server)
        try:
            for k, op in enumerate(wl.warmup_ops(self.seed)):
                _solve_checked(client, op, f"warm-{k}")
            self._warm_session(client)
            if self.workload.name == "solve_hot":
                self.pool_cost = [
                    _solve_checked(client, wl.SolveOp(k, inst, wl.solve_body(inst)), f"pool-{k}")
                    for k, inst in enumerate(self.pool)
                ]
            elif self.workload.name == "session_long":
                self.generation = wl.session_generation(self.seed, 0)
                _open_sessions(client, self.generation)
        except BaseException:
            client.close()
            server.kill()
            raise
        return server, client, time.perf_counter() - started

    def _warm_session(self, client: Client) -> None:
        """One short replanning session, fed and closed like a timed one."""
        specs = [spec for spec in wl.session_generation(self.seed, WARM_GENERATION, jobs=20)
                 if spec.policy == "rolling_horizon"]
        warm = Phase(gauged=False)
        _open_sessions(client, specs)
        self._stream_generation(client, warm, specs, quality=False)
        if warm.errors:
            raise gate.GateError(f"warm-up session: {warm.errors[0]}")

    # -- the timed loops ---------------------------------------------------

    def drive(self, client: Client, phase: Phase, units: int) -> None:
        if self.workload.name == "session_long":
            self._drive_sessions(client, phase, units)
        else:
            self._drive_solves(client, phase, units)

    def _solve_op(self, index: int) -> wl.SolveOp:
        if self.workload.name == "solve_hot":
            return wl.hot_op(self.seed, index, self.pool)
        return wl.cold_op(self.seed, index)

    def _drive_solves(self, client: Client, phase: Phase, units: int) -> None:
        if self.workload.name == "solve_hot":
            # Every hit must cost exactly what its pool entry cost, so the
            # pool is what the run serves, each distinct instance once.
            phase.tally.add_cost(sum(self.pool_cost), sum(self.pool_lb))
        total, size = units * self.workload.unit_samples, self.workload.chunk
        for first in range(0, total, size):
            ops = [self._solve_op(index) for index in range(first, min(first + size, total))]
            with clocked(phase, client):
                sent = [(op, client.call("/solve", op.body, f"op-{op.index}")) for op in ops]
            for op, reply in sent:
                ok = reply.status == 200
                cost = 0.0
                if ok:
                    expected = self.pool_cost[op.base] if op.base >= 0 else None
                    try:
                        cost = gate.check_solve(reply.data, op.instance, expected)
                    except gate.GateError as exc:
                        ok = False
                        phase.fail(f"op-{op.index}: {exc}")
                else:
                    phase.fail(f"op-{op.index}: HTTP {reply.status}: {reply.data[:200]!r}")
                phase.record(f"op-{op.index}", reply, ok)
                if ok and op.base < 0 and op.index < wl.COLD_CYCLE:
                    phase.tally.add_cost(cost, gate.lower_bound(op.instance))

    def _drive_sessions(self, client: Client, phase: Phase, units: int) -> None:
        """``units`` whole generations of sessions.

        A generation is never cut short: per-batch cost grows with each
        session's history, so only whole generations keep the cost mix.
        """
        specs = self.generation
        for generation in range(units):
            if generation:
                specs = wl.session_generation(self.seed, generation)
                _open_sessions(client, specs)
            self._stream_generation(client, phase, specs, quality=generation == 0)

    def _stream_generation(self, client: Client, phase: Phase, specs, quality: bool) -> None:
        """Feed every event of ``specs`` (open sessions) and close them."""
        for batches in self._session_chunks(specs):
            sent = []
            with clocked(phase, client):
                for spec, offset, count, body in batches:
                    label = f"op-{spec.session_id}-{offset}"
                    sent.append((spec, offset, count, label,
                                 client.call(f"/sessions/{spec.session_id}/events", body, label)))
            for spec, offset, count, label, reply in sent:
                ok = reply.status == 200
                if ok:
                    try:
                        gate.check_ack(reply.data, spec, offset, count)
                    except gate.GateError as exc:
                        ok = False
                        phase.fail(f"{label}: {exc}")
                else:
                    phase.fail(f"{label}: HTTP {reply.status}: {reply.data[:200]!r}")
                phase.record(label, reply, ok, count, spec.session_id)
        self._close_sessions(client, phase, specs, quality)

    def _session_chunks(self, specs: List[wl.SessionSpec]):
        """Event batches, round-robin across the sessions, a chunk at a time.

        Session ``k`` starts ``k / len(specs)`` of the way into the first
        session's stream.  A batch costs more the longer its session's
        history, so with staggered starts batches of every cost are spread
        over the whole run, and no percentile rests on the few seconds in
        which all sessions would pass the same point of their history.
        Every body is encoded before the generation starts, outside the clock.
        """
        steps = -(-len(specs[0].rows) // wl.SESSION_BATCH)
        order = []
        for k, spec in enumerate(specs):
            for offset in range(0, len(spec.rows), wl.SESSION_BATCH):
                rows = spec.rows[offset:offset + wl.SESSION_BATCH]
                body = json.dumps({"events": rows, "first_offset": offset}).encode()
                step = offset // wl.SESSION_BATCH + k * steps // len(specs)
                order.append((step, k, spec, offset, len(rows), body))
        order = [batch[2:] for batch in sorted(order, key=lambda batch: batch[:2])]
        size = self.workload.chunk
        for k in range(0, len(order), size):
            yield order[k:k + size]

    def _close_sessions(self, client: Client, phase: Phase, specs, quality: bool) -> None:
        """Close (outside the clock) and check every session of a generation."""
        for spec in specs:
            reply = client.call(f"/sessions/{spec.session_id}/close", b"{}", "close")
            try:
                if reply.status != 200:
                    raise gate.GateError(f"HTTP {reply.status}: {reply.data[:200]!r}")
                cost = gate.check_close(reply.data, spec)
            except gate.GateError as exc:
                phase.fail(f"close {spec.session_id}: {exc}")
                phase.tally.record(False)
                continue
            if quality:
                phase.tally.add_cost(cost, best_lower_bound(spec.trace.effective_instance()))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def completed(phase: Phase) -> int:
    """Operations completed: requests, or events on session_long."""
    return sum(s.events for s in phase.samples if s.ok)


def client_view(tail: float, phase: Phase) -> Dict[str, float]:
    """What the client saw: wall-clock latency and throughput.

    Reported beside the end-to-end metrics and in the traced run, but not
    bounded: on a shared host they move with the CPU the host leaves the VM.
    """
    lat = phase.latencies
    return {
        "latency_p50_ms": stats.percentile(lat, 50.0),
        "latency_tail_ms": stats.percentile(lat, tail),
        "throughput_per_s": completed(phase) / phase.elapsed,
    }


def session_deciles(samples: List[Sample]) -> List[Tuple[List[Sample], List[Sample]]]:
    """First and last decile of the batches of every session with 20 or more."""
    deciles = []
    for session in sorted({s.session for s in samples if s.session}):
        own = [s for s in samples if s.session == session and s.ok]
        tenth = len(own) // 10
        if tenth >= 2:
            deciles.append((own[:tenth], own[-tenth:]))
    return deciles


def growth_ratio(samples: List[Sample]) -> float:
    """Median over sessions of last-decile / first-decile median batch latency."""
    return stats.median(
        stats.median(s.latency_ms for s in last) / stats.median(s.latency_ms for s in first)
        for first, last in session_deciles(samples)
    )


def timed_phase(run: Run, seconds: float, setups: int, trace: bool = False) -> Phase:
    """Set up ``setups`` times, time the last server, stop it."""
    phase = Phase()
    server = client = None
    try:
        for k in range(setups):
            phase.gauge()
            server, client, seconds_taken = run.setup(trace=trace)
            phase.setup_times.append(seconds_taken)
            if k < setups - 1:
                client.close()
                server.stop()
        phase.store_before = client.json("/stats")["store"]
        run.drive(client, phase, run.workload.units(seconds))
        phase.gauge()
        phase.store_after = client.json("/stats")["store"]
        client.close()
        phase.peak_rss_mb = server.stop()["peak_rss_mb"]
        return phase
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.kill()


def server_cost(tail: float, phase: Phase, slowdown: float = 1.0) -> Dict[str, float]:
    """The server's CPU time per operation, operations per CPU second and
    the set-up time, each divided by ``slowdown``."""
    cpu = phase.cpu_times
    return {
        "cpu_p50_ms": stats.percentile(cpu, 50.0) / slowdown,
        "cpu_tail_ms": stats.percentile(cpu, tail) / slowdown,
        "ops_per_cpu_s": completed(phase) / phase.server_cpu * slowdown,
        "setup_s": stats.median(phase.setup_times) / slowdown,
    }


def end_to_end(tail: float, phase: Phase) -> Dict[str, object]:
    """The end-to-end metrics; every timing is scaled to reference speed."""
    scaled = server_cost(tail, phase, phase.slowdown)
    return {
        "scaled_cpu_p50_ms": stats.metric(scaled["cpu_p50_ms"], "ms"),
        "scaled_cpu_tail_ms": stats.metric(scaled["cpu_tail_ms"], "ms"),
        "scaled_ops_per_cpu_s": stats.metric(scaled["ops_per_cpu_s"], "1/s"),
        "cost_ratio": stats.metric(phase.tally.cost_ratio, "ratio"),
        "success_rate": stats.metric(phase.tally.success_rate, "ratio"),
        "setup_s": stats.metric(scaled["setup_s"], "s"),
        "peak_rss_mb": stats.metric(phase.peak_rss_mb, "MB"),
    }


def traced_metrics(run: Run, phase: Phase, untraced: Phase, tail: float,
                   report) -> Tuple[Dict[str, object], bool]:
    """The per-layer metrics, and whether the design check passed."""
    grouped = layers.link(layers.load_spans(run.work / f"spans-{run.servers}.jsonl"))
    traced = {s.op: layers.OpTrace(s.latency_ms, grouped.get(s.op, []))
              for s in phase.samples if s.ok}
    if run.workload.name == "session_long":
        shares_of = [traced[s.op] for _, last in session_deciles(phase.samples) for s in last]
    else:
        shares_of = list(traced.values())
    values = layers.per_layer_metrics(list(traced.values()), shares_of)
    before, after = phase.store_before, phase.store_after
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    values["store.hit_rate"] = hits / lookups if lookups else 0.0
    values["sessions.growth_ratio"] = growth_ratio(phase.samples)
    values["trace.overhead"] = (
        server_cost(tail, phase, phase.slowdown)["cpu_p50_ms"]
        / server_cost(tail, untraced, untraced.slowdown)["cpu_p50_ms"] - 1.0)
    seen = client_view(tail, untraced)
    values.update((f"client.{name}", value) for name, value in seen.items())
    shares ={k[len("share."):]: v for k, v in values.items() if k.startswith("share.")}
    designed, text = design_check(run.workload.name, shares)
    report(text)
    metrics = {name: stats.metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
    return metrics, designed


def design_check(workload: str, shares: Dict[str, float]) -> Tuple[bool, str]:
    """Does the traced run show the layer mix the workload was built for?"""
    groups = {
        "engine+algorithms+core": shares["engine"] + shares["algorithms"] + shares["core"],
        "frontend+canonical+store": shares["frontend"] + shares["canonical"] + shares["store"],
        "service": shares["service"] + shares["portfolio"],
        "sessions+dynamic": shares["sessions"] + shares["dynamic"],
        "unaccounted": shares["unaccounted"],
    }
    text = ", ".join(f"{k} {v:.1%}" for k, v in groups.items())
    if workload == "solve_cold":
        ok = max(groups, key=groups.get) == "engine+algorithms+core"
        claim = "engine+algorithms+core has the largest self-time share"
    elif workload == "solve_hot":
        ok = shares["engine"] == 0 and shares["algorithms"] == 0 and \
            groups["frontend+canonical+store"] > 0.5
        claim = "engine and algorithms take no time; frontend+canonical+store carry most"
    else:
        ok = groups["sessions+dynamic"] + shares["store"] > 0.5
        claim = "sessions + store documents carry most of the late-history batches"
    return ok, f"design check ({claim}): {'yes' if ok else 'NO'} -- {text}"


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, report: Callable[[str], None]):
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    report(
        f"# workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"platform={platform.platform()} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    try:
        run = Run(workload, seed, work)
        designed = True
        if trace:
            seconds /= 2.0
        tail = workload.tail(seconds)
        if not trace:
            phase = timed_phase(run, seconds, SETUPS)
            metrics = end_to_end(tail, phase)
            seen = client_view(tail, phase)
        else:
            base = timed_phase(run, seconds, 1)
            phase = timed_phase(run, seconds, 1, trace=True)
            metrics, designed = traced_metrics(run, phase, base, tail, report)
            seen = client_view(tail, base)
            phase.tally.attempted += base.tally.attempted
            phase.tally.failed += base.tally.failed
            phase.errors += base.errors
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    count = len(phase.cpu_times)
    beyond = stats.samples_beyond(count, tail)
    report(
        f"# {len(phase.samples)} operations in {phase.elapsed:.2f}s timed, "
        f"{phase.server_cpu:.2f}s of server CPU; the tail is p{tail:g} of {count} "
        f"samples ({beyond} beyond)"
        + ("" if beyond >= stats.TAIL_BEYOND else " -- FEWER THAN 10 BEYOND")
    )
    report("# client-observed" + ("" if not trace else ", untraced half") + ": "
           + ", ".join(f"{name} {value:.6g}" for name, value in seen.items()))
    report(f"# reference pass: median {stats.median(phase.references) * 1e3:.4g} ms of "
           f"{len(phase.references)}, slowdown {phase.slowdown:.4g}; unscaled: "
           + ", ".join(f"{name} {value:.6g}" for name, value in server_cost(tail, phase).items()))
    for message in phase.errors:
        report(f"# FAILED {message}")
    if not designed:
        report("# FAILED design check: the traced layer mix is not the one this workload is built for")
    for key, value in metrics.items():
        report(f"{key:34s} {value['value']:.6g} {value['unit']}")
    return {
        # a traced run whose layer mix drifted from the design is not correct
        "correct": phase.tally.failed == 0 and designed,
        "attempted": phase.tally.attempted,
        "failed": phase.tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # A termination signal unwinds like an error, so the servers still stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="served-path benchmark for busytime")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        lambda line: print(line, flush=True),
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
