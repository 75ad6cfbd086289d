"""In-process span recorder for a traced benchmark server.

:func:`install` replaces, for the life of the server process, the public
function or method each layer's caller looks up with a wrapper that records
one span per call: name, start and end (``perf_counter_ns``), span id,
parent span id, thread, request id and fingerprint, plus a few attributes
(cache tier, bytes written, algorithm name).  Nothing under ``src/``
changes; an untraced server never imports this module.

Request ids come from the ``X-Perfbench-Op`` header the client sends.  The
batch worker thread never sees that header, so its spans carry the request
fingerprint instead and are joined to their request afterwards (see
:mod:`perfbench.layers`).  Spans stay in memory and are written out once,
at shutdown, as JSON lines.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

OP_HEADER = "X-Perfbench-Op"


class Tracer:
    """Thread-aware span stack plus the list of finished spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
            local.fp = None
        return local

    def wrap(
        self,
        owner,
        attr: str,
        name,
        context: Optional[Callable[..., Dict[str, object]]] = None,
        attrs: Optional[Callable[..., Dict[str, object]]] = None,
        before: Optional[Callable[..., object]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable of the call's arguments
        returning it.  ``context(*args)`` may set ``rid``/``fp`` for the
        span and everything under it.  ``attrs(result, token, *args)`` adds
        attributes once the call returns, where ``token`` is what
        ``before(*args)`` returned just before the call (``None`` without
        a ``before``).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._state()
            saved = (state.rid, state.fp)
            if context is not None:
                for key, value in context(*args, **kwargs).items():
                    setattr(state, key, value)
            token = before(*args, **kwargs) if before is not None else None
            span_id = next(tracer._ids)
            parent = state.stack[-1] if state.stack else None
            state.stack.append(span_id)
            start = time.perf_counter_ns()
            extra: Dict[str, object] = {}
            try:
                result = original(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(result, token, *args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                state.stack.pop()
                label = name(*args, **kwargs) if callable(name) else name
                tracer.spans.append(
                    [label, start, end, span_id, parent, threading.get_ident(),
                     state.rid, state.fp, extra]
                )
                state.rid, state.fp = saved

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


class _JsonProxy:
    """Stands in for the ``json`` module inside the frontend only."""

    def __init__(self, tracer: Tracer) -> None:
        import json as real

        self._real = real
        self.loads = real.loads
        self.dumps = real.dumps
        tracer.wrap(self, "loads", "frontend.decode")
        tracer.wrap(self, "dumps", "frontend.encode")

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _file_bytes(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from busytime import io as bio
    from busytime.algorithms.base import Scheduler
    from busytime.core.objectives import CostModel
    from busytime.core.schedule import Schedule
    from busytime.engine.core import Engine
    from busytime.extensions.dynamic import MigrationBudget, RollingHorizon, Simulator
    from busytime.portfolio import racer
    from busytime.service import frontend, service, sessions
    from busytime.service.store import ResultStore

    wrap = tracer.wrap

    # frontend: the handler entry point is the root span of every request
    wrap(frontend._ServiceHandler, "do_POST", "frontend.request",
         context=lambda handler: {"rid": handler.headers.get(OP_HEADER), "fp": None})
    frontend.json = _JsonProxy(tracer)
    wrap(frontend, "_request_from_document", "frontend.build_request")
    wrap(bio, "solve_report_to_dict", "frontend.to_dict")

    # service + the canonical names service.py imported
    wrap(service.SolveService, "submit", "service.submit")
    wrap(service.SolveService, "result", "service.wait")
    wrap(service.SolveService, "_solve_batch", "service.solve_batch",
         context=lambda svc, flights: {"fp": flights[0][0]} if len(flights) == 1 else {},
         attrs=lambda result, _, svc, flights: {"fps": [fp for fp, _ in flights]})
    wrap(service.SolveService, "_finish_job", "service.finish_job",
         context=lambda svc, job, report: {"fp": job.fingerprint})
    wrap(service, "canonicalize", "canonical.canonicalize")
    wrap(service, "request_fingerprint", "canonical.fingerprint",
         attrs=lambda fp, _, *args, **kwargs: {"fp": fp})
    wrap(service, "canonical_request", "canonical.canonical_request")
    wrap(service, "decanonicalize_report", "canonical.decanonicalize")

    # store: reads by tier (a disk hit bumps the store's disk_hits counter),
    # writes and checkpoint documents with their size on disk
    def get_tier(result, disk_hits_before, store, fingerprint):
        if result is None:
            return {"tier": "miss"}
        disk = store.stats()["disk_hits"] > disk_hits_before
        return {"tier": "disk" if disk else "memory"}

    wrap(ResultStore, "get", "store.get",
         before=lambda store, fingerprint: store.stats()["disk_hits"], attrs=get_tier)
    wrap(ResultStore, "peek", "store.peek")
    wrap(ResultStore, "put", "store.put",
         context=lambda store, fp, report: {"fp": fp},
         attrs=lambda result, _, store, fp, report: {
             "bytes": _file_bytes(store._disk_path(fp)) if store.directory else 0})
    wrap(ResultStore, "get_document", "store.get_document",
         attrs=lambda doc, _, store, key: {
             "bytes": _file_bytes(store._document_path(key)) if store.directory else 0})
    wrap(ResultStore, "put_document", "store.put_document",
         attrs=lambda result, _, store, key, document: {
             "bytes": _file_bytes(store._document_path(key)) if store.directory else 0})

    # engine, algorithms, the oracle and the racer
    wrap(Engine, "solve", "engine.solve")
    wrap(CostModel, "lower_bound", "engine.lower_bound")
    wrap(Scheduler, "schedule_under", lambda scheduler, *a, **k: f"algorithms.{scheduler.name}")
    wrap(Schedule, "validate", "core.verify")
    wrap(racer, "verify_schedule", "core.verify")
    wrap(racer, "race_candidates", "portfolio.race",
         attrs=lambda report, _, request, *a, **k: {
             "candidates": len(report.race.candidates) if report.race else 0})

    # sessions and the simulator behind them
    wrap(sessions.Session, "prepare", "sessions.probe")
    wrap(sessions.SessionManager, "apply_events", "sessions.apply_events")
    wrap(sessions.SessionManager, "get", "sessions.get")
    wrap(sessions.SessionManager, "_write_checkpoint", "sessions.checkpoint")
    wrap(sessions.SessionManager, "close_session", "sessions.close")
    wrap(Simulator, "feed", "dynamic.feed")
    wrap(RollingHorizon, "replan", "dynamic.replan")
    wrap(MigrationBudget, "replan", "dynamic.replan")
