"""Stdlib-only HTTP frontend for :class:`~busytime.service.SolveService`.

A deliberately small JSON API over ``http.server`` (no framework, nothing
to install):

``POST /solve``
    body ``{"instance": <busytime-instance doc>, "options": {...},
    "wait": bool}``.  Options are the :class:`~busytime.engine.SolveRequest`
    knobs (``algorithm``, ``policy``, ``objective``, ``cost_model``,
    ``portfolio``, ``time_limit``, ``compute_optimum``, ``tags``); instance
    documents may carry per-job capacity ``demand`` fields (format version
    2), and ``cost_model`` is a JSON object of
    :meth:`~busytime.core.objectives.CostModel.to_dict` shape.  Returns
    ``{"job_id", "status", ...}``; with ``"wait": true`` the response blocks
    on the solve and embeds the full ``busytime-solve-report`` document.
``GET /jobs/<id>``
    status snapshot of one submission, plus the report once done.
``GET /stats``
    service + result-store counters (hit rate, batches, dedupes, ...).
``GET /healthz``
    cheap liveness probe: drain state, queue depth vs the ``max_pending``
    cap, uptime and a small store summary.  This is what the cluster
    router polls to decide routing and shedding, and what an external
    load balancer should health-check — but it is useful standalone too.
``GET /algorithms``
    the registered-algorithm capability table.
``POST /warm``
    body ``{"prefixes": ["ab", ...], "limit": 64}``: pre-load the store's
    disk entries under those fingerprint prefixes into the memory tier
    (the cluster's cross-worker cache warming; see
    :meth:`~busytime.service.store.ResultStore.warm`).
``POST /sessions`` / ``POST /sessions/<id>/events`` / ``.../close`` and
``GET /sessions[/<id>[/assignment]]``
    the streaming-session API (:mod:`busytime.service.sessions`): create a
    stateful session, stream arrive/depart event batches through it with
    idempotent offsets (duplicate batches skip, gaps answer **409** with
    the expected offset), read the live assignment + realized cost, and
    settle it.  Per-tenant admission caps answer **429** with
    ``Retry-After``; a draining service refuses new sessions/events with
    **503**.

Overload and shutdown map onto status codes clients can act on: a service
at its ``max_pending`` queue-depth cap sheds the request with **429** and
a ``Retry-After`` hint; a draining service (graceful shutdown in
progress) answers **503** with ``Retry-After`` — and
:func:`submit_instance` honours both by retrying with exponential backoff
and jitter, so worker drains and restarts are invisible to callers.

Every handler thread shares the one service (``ThreadingHTTPServer``), so
concurrent clients exercise exactly the dedupe/batch path the service
implements.  :func:`make_server` binds (port 0 picks a free port) without
serving, so tests and the CLI can control the loop; :func:`serve` is the
blocking convenience the ``busytime serve`` command uses.

The module also carries the matching client helper (:func:`submit_instance`,
on ``urllib``) so ``busytime submit`` needs no extra dependency either.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import traceback
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Tuple

from .. import io as bio
from ..algorithms import algorithm_table
from ..core.objectives import CostModel
from ..engine import RequestValidationError, SolveRequest
from .service import (
    AdmissionError,
    JobFailedError,
    ServiceClosedError,
    ServiceDrainingError,
    ServiceOverloadedError,
    SolveService,
)
from .sessions import (
    SessionConflictError,
    SessionLimitError,
    SessionManager,
    SessionNotFoundError,
    SessionValidationError,
)

__all__ = [
    "SessionHTTPError",
    "make_server",
    "serve",
    "session_call",
    "submit_instance",
]

#: Hint clients receive with a 429 (shed) or draining 503: short, because
#: overload is bursty and drains precede an imminent replacement worker.
RETRY_AFTER_SECONDS = 1

#: SolveRequest options settable over the wire (tags and cost_model are
#: handled separately), with the JSON types each accepts — checked before
#: the request is built so a mistyped value is a 400, not a crashed handler
#: thread.
_REQUEST_OPTIONS = {
    "algorithm": (str, type(None)),
    "policy": (str, type(None)),
    "objective": (str,),
    "portfolio": (bool,),
    "time_limit": (int, float, type(None)),
    "race": (int,),
    "compute_optimum": (bool,),
    "max_jobs_for_optimum": (int,),
}

#: Default race width when a client sets ``deadline_ms`` without ``race``:
#: a deadline asks for anytime behaviour, which needs candidates to race.
_DEFAULT_RACE_WIDTH = 4


def _request_from_document(doc: Mapping[str, object]) -> SolveRequest:
    """Build a :class:`SolveRequest` from a ``POST /solve`` body.

    The request's instance is the document's flat, validated
    :class:`~busytime.core.instance.InstanceRows`: the service fingerprints
    and answers cache hits from them without building job objects.
    """
    if not isinstance(doc, Mapping) or "instance" not in doc:
        raise ValueError('body must be a JSON object with an "instance" field')
    instance = bio.instance_rows_from_dict(doc["instance"])
    options = doc.get("options") or {}
    if not isinstance(options, Mapping):
        raise ValueError('"options" must be a JSON object')
    unknown = (
        set(options) - set(_REQUEST_OPTIONS) - {"tags", "cost_model", "deadline_ms"}
    )
    if unknown:
        raise ValueError(
            f"unknown options: {sorted(unknown)}; supported: "
            f"{sorted(_REQUEST_OPTIONS) + ['cost_model', 'deadline_ms', 'tags']}"
        )
    kwargs = {}
    for key, allowed in _REQUEST_OPTIONS.items():
        if key not in options:
            continue
        value = options[key]
        # bool is an int subclass: reject true where a number is wanted.
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            names = "/".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ValueError(
                f'option "{key}" must be {names}, got {type(value).__name__}'
            )
        kwargs[key] = value
    if "deadline_ms" in options and options["deadline_ms"] is not None:
        # Wire clients speak milliseconds (the natural unit for request
        # deadlines); the engine's SolveRequest speaks seconds.
        deadline_ms = options["deadline_ms"]
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ValueError(
                f'option "deadline_ms" must be int/float/null, '
                f"got {type(deadline_ms).__name__}"
            )
        kwargs["deadline"] = float(deadline_ms) / 1000.0
        # A deadline implies racing: default the width when the client did
        # not pick one (SolveRequest.validate rejects deadline without it).
        kwargs.setdefault("race", _DEFAULT_RACE_WIDTH)
    if "cost_model" in options and options["cost_model"] is not None:
        # CostModel.from_dict validates keys and numeric types; its
        # ValueError surfaces as a 400 like every other option error.  A
        # model naming an objective pins the request's objective unless the
        # caller also set (a then necessarily matching) "objective".
        model = CostModel.from_dict(options["cost_model"])
        kwargs["cost_model"] = model
        kwargs.setdefault("objective", model.objective)
    tags = options.get("tags") or {}
    if not isinstance(tags, Mapping):
        raise ValueError('"tags" must be a JSON object')
    return SolveRequest(instance=instance, tags=dict(tags), **kwargs)


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Shared HTTP plumbing for the JSON services in this package.

    Carries the request/response conventions every busytime endpoint needs
    — JSON replies with correct framing, refusals that close the keep-alive
    connection whenever the request body was not drained, a bounded body
    reader — so the single-worker frontend (:class:`_ServiceHandler`) and
    the cluster router (:mod:`busytime.service.cluster`) implement routing,
    not transport.
    """

    protocol_version = "HTTP/1.1"
    # Socket timeout (socketserver applies it in setup()): a client that
    # advertises a Content-Length and then under-sends would otherwise pin
    # this handler thread in rfile.read forever.
    timeout = 60.0
    # The response is written as two sends (header block, then body); with
    # Nagle on, the second would wait for the peer's delayed ACK of the
    # first — a ~40ms stall per request that dwarfs a cache hit.
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            if self.close_connection:
                # Advertise what we are about to do (set on refusals whose
                # request body was never drained — see _read_body).
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:
            # The client hung up mid-exchange (e.g. disconnected while
            # sending its body).  Nobody is listening for this reply, and a
            # handler-thread traceback would be the only effect of raising.
            self.close_connection = True

    def _send_error_json(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> None:
        self._send_json(status, {"error": message}, retry_after=retry_after)

    def _read_body(self, max_bytes: int) -> Optional[bytes]:
        """Read the request body, or send the refusal and return ``None``.

        Every refusal here leaves the body undrained, so the keep-alive
        connection is closed with it — stale body bytes would otherwise
        parse as the connection's next request line.
        """
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            # No Content-Length to bound or drain by; refuse and close.
            self.close_connection = True
            self._send_error_json(
                411, "chunked request bodies are not supported; send Content-Length"
            )
            return None
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                # A negative length would turn read(length) into
                # read-until-EOF — an unbounded buffer behind the body cap.
                raise ValueError
        except ValueError:
            self.close_connection = True
            self._send_error_json(400, "invalid Content-Length header")
            return None
        if length > max_bytes:
            # Refuse before reading: the admission limits must hold at the
            # socket too, or one oversized body buys an unbounded allocation.
            self.close_connection = True
            self._send_error_json(
                413,
                f"request body of {length} bytes is above the service "
                f"limit of {max_bytes}",
            )
            return None
        return self.rfile.read(length)


class _ServiceHandler(JsonRequestHandler):
    """Routes the worker endpoints onto the shared :class:`SolveService`."""

    server: "ServiceServer"

    # -- plumbing -------------------------------------------------------------

    def _job_payload(self, job_id: str, include_report: bool) -> Dict[str, object]:
        service = self.server.service
        payload: Dict[str, object] = service.poll(job_id)
        if include_report and payload["status"] == "done":
            payload["report"] = service.report_document(job_id)
        return payload

    # -- endpoints ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if path == "/warm":
            self._do_warm()
            return
        if path == "/sessions" or path.startswith("/sessions/"):
            self._do_sessions_post(path)
            return
        if path != "/solve":
            # The body (if any) is never drained on this path, so the
            # keep-alive connection must close with the refusal — stale
            # body bytes would otherwise parse as the next request line.
            self.close_connection = True
            self._send_error_json(404, f"no such endpoint: POST {self.path}")
            return
        raw = self._read_body(self.server.max_body_bytes)
        if raw is None:
            return
        try:
            doc = json.loads(raw.decode("utf-8"))
            request = _request_from_document(doc)
        except (ValueError, KeyError, TypeError) as exc:
            self._send_error_json(400, str(exc))
            return
        service = self.server.service
        try:
            job_id = service.submit(request)
        except AdmissionError as exc:
            self._send_error_json(413, str(exc))
            return
        except ServiceOverloadedError as exc:
            # Load shedding, not failure: the queue is at max_pending.  The
            # Retry-After hint tells well-behaved clients (and the cluster
            # router) to back off instead of hammering.
            self._send_error_json(429, str(exc), retry_after=RETRY_AFTER_SECONDS)
            return
        except ServiceDrainingError as exc:
            # Graceful shutdown in progress: the worker finishes what it
            # has but admits nothing new.  Unlike the closed 503 below the
            # connection stays usable (polls for in-flight jobs continue),
            # and Retry-After points the client at the imminent successor.
            self._send_error_json(503, str(exc), retry_after=RETRY_AFTER_SECONDS)
            return
        except ServiceClosedError as exc:
            # The service is shutting down under us ("caller owns the loop"
            # servers can close it first): a clean 503, not a dead thread.
            self.close_connection = True
            self._send_error_json(503, str(exc))
            return
        except (RequestValidationError, TypeError, ValueError) as exc:
            self._send_error_json(400, str(exc))
            return
        report = None
        if doc.get("wait") and self._unfinished(job_id):
            # A miss (or an attach to an in-flight one) waits in result(),
            # where the batch worker's solve lands; a store hit finished
            # inside submit and is answered from its rows below.
            try:
                report = service.result(job_id, timeout=self.server.wait_timeout)
            except TimeoutError:
                self._send_error_json(
                    504, f"{job_id} still running after {self.server.wait_timeout}s"
                )
                return
            except JobFailedError:
                pass  # the job payload below carries status=failed + the error
        try:
            payload = self._job_payload(job_id, include_report=report is None)
        except KeyError:
            # A very long wait can outlive the finished-job retention
            # window; the report (captured above) still reaches the caller.
            payload = {"job_id": job_id, "status": "done" if report else "expired"}
        if report is not None:
            payload["report"] = bio.solve_report_to_dict(report)
        self._send_json(200, payload)

    def _unfinished(self, job_id: str) -> bool:
        try:
            return self.server.service.poll(job_id)["status"] in ("queued", "running")
        except KeyError:  # finished and already pruned
            return False

    # -- streaming sessions ---------------------------------------------------

    def _do_sessions_post(self, path: str) -> None:
        """``POST /sessions`` (create), ``/sessions/<id>/events``, ``.../close``."""
        raw = self._read_body(self.server.max_body_bytes)
        if raw is None:
            return
        sessions = self.server.sessions
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
            if not isinstance(doc, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as exc:
            self._send_error_json(400, str(exc))
            return
        try:
            if path == "/sessions":
                from .sessions import SessionConfig

                session_id = doc.pop("session_id", None)
                if session_id is not None and not isinstance(session_id, str):
                    raise SessionValidationError('"session_id" must be a string')
                config = SessionConfig.from_dict(doc)
                session = sessions.create(config, session_id=session_id)
                self._send_json(201, session.status())
                return
            parts = path.split("/")
            # /sessions/<id>/events | /sessions/<id>/close
            if len(parts) == 4 and parts[3] == "events":
                rows = doc.get("events")
                if not isinstance(rows, list):
                    raise SessionValidationError('"events" must be a list of event rows')
                first_offset = doc.get("first_offset")
                if first_offset is not None and (
                    not isinstance(first_offset, int) or isinstance(first_offset, bool)
                    or first_offset < 0
                ):
                    raise SessionValidationError(
                        '"first_offset" must be a non-negative integer'
                    )
                ack = sessions.apply_events(parts[2], rows, first_offset=first_offset)
                self._send_json(200, ack)
                return
            if len(parts) == 4 and parts[3] == "close":
                self._send_json(200, sessions.close_session(parts[2]))
                return
            self._send_error_json(404, f"no such endpoint: POST {self.path}")
        except SessionNotFoundError as exc:
            self._send_error_json(404, f"unknown session id: {exc.args[0]}")
        except SessionConflictError as exc:
            self._send_json(
                409, {"error": str(exc), "expected_offset": exc.expected_offset}
            )
        except SessionLimitError as exc:
            self._send_error_json(429, str(exc), retry_after=exc.retry_after)
        except ServiceDrainingError as exc:
            self._send_error_json(503, str(exc), retry_after=RETRY_AFTER_SECONDS)
        except SessionValidationError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - answered, not a dropped connection
            # A batch that failed part-way: the manager dropped the live
            # copy, so the client's retry resumes from the checkpoint.
            self.log_error("%s", traceback.format_exc())
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _do_sessions_get(self, path: str) -> None:
        """``GET /sessions``, ``/sessions/<id>``, ``/sessions/<id>/assignment``."""
        sessions = self.server.sessions
        try:
            if path == "/sessions":
                self._send_json(
                    200,
                    {
                        "sessions": sessions.list_sessions(),
                        "stats": sessions.stats(),
                    },
                )
                return
            parts = path.split("/")
            if len(parts) == 3:
                self._send_json(200, sessions.status(parts[2]))
                return
            if len(parts) == 4 and parts[3] == "assignment":
                self._send_json(200, sessions.assignment(parts[2]))
                return
            self._send_error_json(404, f"no such endpoint: GET {self.path}")
        except SessionNotFoundError as exc:
            self._send_error_json(404, f"unknown session id: {exc.args[0]}")
        except SessionValidationError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - answered, not a dropped connection
            self.log_error("%s", traceback.format_exc())
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _do_warm(self) -> None:
        """``POST /warm``: pre-load disk-tier shard prefixes into memory."""
        raw = self._read_body(self.server.max_body_bytes)
        if raw is None:
            return
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
            prefixes = doc.get("prefixes", [])
            limit = doc.get("limit")
            if not isinstance(prefixes, list) or not all(
                isinstance(p, str) and p for p in prefixes
            ):
                raise ValueError('"prefixes" must be a list of fingerprint prefixes')
            if limit is not None and (not isinstance(limit, int) or limit < 0):
                raise ValueError('"limit" must be a non-negative integer')
        except (ValueError, TypeError, AttributeError) as exc:
            self._send_error_json(400, str(exc))
            return
        warmed = self.server.service.store.warm(prefixes, limit=limit)
        self._send_json(200, {"warmed": warmed, "prefixes": len(prefixes)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            health = self.server.service.health()
            # Liveness probes key off the status code, not the body: a
            # draining or closed worker is not a routable target.
            status = 200 if health["status"] == "ok" else 503
            self._send_json(status, health)
        elif path == "/stats":
            self._send_json(200, self.server.service.stats())
        elif path == "/algorithms":
            self._send_json(
                200,
                {
                    "algorithms": [
                        {
                            "name": info.name,
                            "paper_section": info.paper_section,
                            "approximation_ratio": info.approximation_ratio,
                            "instance_classes": list(info.instance_classes),
                            "portfolio_member": info.portfolio_member,
                            "supported_objectives": list(info.supported_objectives),
                            "demand_aware": info.demand_aware,
                            "window_aware": info.window_aware,
                            "tariff_aware": info.tariff_aware,
                        }
                        for info in algorithm_table()
                    ]
                },
            )
        elif path == "/sessions" or path.startswith("/sessions/"):
            self._do_sessions_get(path)
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            try:
                self._send_json(200, self._job_payload(job_id, include_report=True))
            except KeyError:
                self._send_error_json(404, f"unknown job id: {job_id}")
        else:
            self._send_error_json(404, f"no such endpoint: GET {self.path}")


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the shared service.

    It keeps the connections it has accepted, so :meth:`close_connections`
    can hang up keep-alive clients whose handler threads would otherwise
    outlive ``shutdown()`` and ``server_close()``.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SolveService,
        verbose: bool = False,
        wait_timeout: Optional[float] = 300.0,
        max_body_bytes: int = 32 * 1024 * 1024,
        sessions: Optional[SessionManager] = None,
    ):
        super().__init__(address, _ServiceHandler)
        self.service = service
        # The session manager shares the service's engine, store and drain
        # state unless the caller wires a custom one (the cluster harness
        # does, to share one checkpoint store across workers).
        self.sessions = sessions if sessions is not None else SessionManager(service)
        self.verbose = verbose
        self.wait_timeout = wait_timeout
        self.max_body_bytes = max_body_bytes
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Hang up every accepted connection, idle or mid-request.

        Peers see the connection end at once; a handler thread still busy
        with a request finds its socket shut when it answers and exits.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


def make_server(
    service: SolveService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    max_body_bytes: int = 32 * 1024 * 1024,
    wait_timeout: Optional[float] = 300.0,
    sessions: Optional[SessionManager] = None,
) -> ServiceServer:
    """Bind the JSON API (``port=0`` picks a free port) without serving.

    The caller owns the loop: ``server.serve_forever()`` to serve,
    ``server.shutdown(); server.server_close()`` to stop.  The bound port is
    ``server.server_address[1]``.  ``wait_timeout`` caps how long a
    ``"wait": true`` solve may block before a 504.  ``sessions`` overrides
    the default :class:`SessionManager` built over the service.
    """
    return ServiceServer(
        (host, port),
        service,
        verbose=verbose,
        max_body_bytes=max_body_bytes,
        wait_timeout=wait_timeout,
        sessions=sessions,
    )


def serve(  # pragma: no cover - blocking loop; the CI smoke drives it
    service: SolveService,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
) -> None:
    """Blocking convenience: serve until interrupted, then close cleanly."""
    server = make_server(service, host=host, port=port, verbose=verbose)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()


# ---------------------------------------------------------------------------
# Client helper (used by `busytime submit`)
# ---------------------------------------------------------------------------


#: HTTP statuses worth retrying: shed load (429) and drain/restart (503).
_RETRYABLE_STATUSES = frozenset({429, 503})


def _backoff_delay(attempt: int, backoff: float, cap: float = 10.0) -> float:
    """Exponential backoff with full jitter (the standard AWS recipe)."""
    return random.uniform(0, min(cap, backoff * (2.0 ** attempt)))


class SessionHTTPError(RuntimeError):
    """A non-retryable session API refusal, carrying status + parsed payload.

    A 409 conflict's payload includes ``expected_offset``, which streaming
    clients use to resync and resend (see ``busytime session stream``).
    """

    def __init__(self, status: int, payload: Mapping[str, object]):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = dict(payload)


def session_call(
    url: str,
    path: str,
    body: Optional[Mapping[str, object]] = None,
    timeout: float = 60.0,
    retries: int = 0,
    backoff: float = 0.25,
) -> Dict[str, object]:
    """One session API call: POST when ``body`` is given, GET otherwise.

    Returns the parsed JSON payload on 2xx.  429/503 answers and transport
    failures are retried up to ``retries`` times with jittered exponential
    backoff (a server ``Retry-After`` hint takes precedence); every other
    refusal raises :class:`SessionHTTPError` immediately with the parsed
    payload attached — a 409 conflict carries ``expected_offset`` there.
    """
    full = url.rstrip("/") + path
    data = None if body is None else json.dumps(dict(body)).encode("utf-8")
    method = "GET" if body is None else "POST"
    attempts = max(0, retries) + 1
    last_error = "no attempt made"
    for attempt in range(attempts):
        request = urllib.request.Request(
            full,
            data=data,
            headers={"Content-Type": "application/json"} if data is not None else {},
            method=method,
        )
        delay = _backoff_delay(attempt, backoff)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except Exception:  # noqa: BLE001 - surface the original HTTP error
                payload = {"error": str(exc)}
            if exc.code not in _RETRYABLE_STATUSES:
                raise SessionHTTPError(exc.code, payload) from None
            last_error = f"HTTP {exc.code}: {payload.get('error', payload)}"
            hint = exc.headers.get("Retry-After") if exc.headers else None
            if hint:
                try:
                    delay = min(float(hint), 10.0)
                except ValueError:
                    pass
        except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            if isinstance(exc, urllib.error.URLError) and not isinstance(
                reason, (ConnectionError, OSError)
            ):
                raise RuntimeError(f"service unreachable: {reason}") from None
            last_error = f"connection failed: {reason}"
        if attempt + 1 < attempts:
            time.sleep(delay)
    raise RuntimeError(
        f"session call {method} {path} failed after {attempts} attempts; "
        f"last error: {last_error}"
    )


def submit_instance(
    url: str,
    instance_doc: Mapping[str, object],
    options: Optional[Mapping[str, object]] = None,
    wait: bool = True,
    timeout: float = 300.0,
    retries: int = 0,
    backoff: float = 0.25,
    fingerprint: Optional[str] = None,
) -> Dict[str, object]:
    """POST one instance document to a running service and return the reply.

    ``url`` is the service base url (``http://host:port``); the reply is the
    parsed ``POST /solve`` payload (job id, status, and the report document
    when ``wait`` is true).  Raises ``RuntimeError`` with the server's
    message on a non-200 answer.

    ``retries`` > 0 turns on bounded retry with exponential backoff and
    full jitter for the failures that resolve themselves — connection
    refused/reset (a worker restarting, a router failing over) and 429/503
    answers (load shedding, graceful drain) — so those operational events
    are invisible to callers.  Errors that will not improve with time
    (400s, admission 413s) are never retried.  A server ``Retry-After``
    hint, when present, takes precedence over the computed delay.

    ``fingerprint`` (the :func:`~busytime.service.canonical.request_fingerprint`
    of the equivalent ``SolveRequest``) is forwarded as the
    ``X-Busytime-Fingerprint`` header; the cluster router then routes on it
    directly instead of re-canonicalizing the body.
    """
    body = json.dumps(
        {"instance": dict(instance_doc), "options": dict(options or {}), "wait": wait}
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if fingerprint is not None:
        headers["X-Busytime-Fingerprint"] = fingerprint
    attempts = max(0, retries) + 1
    last_error = "no attempt made"
    for attempt in range(attempts):
        request = urllib.request.Request(
            url.rstrip("/") + "/solve", data=body, headers=headers, method="POST"
        )
        delay = _backoff_delay(attempt, backoff)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
            except Exception:  # noqa: BLE001 - surface the original HTTP error
                message = str(exc)
            if exc.code not in _RETRYABLE_STATUSES:
                raise RuntimeError(f"service rejected the request: {message}") from None
            last_error = f"HTTP {exc.code}: {message}"
            hint = exc.headers.get("Retry-After") if exc.headers else None
            if hint:
                try:
                    delay = min(float(hint), 10.0)
                except ValueError:
                    pass
        except (urllib.error.URLError, ConnectionError, TimeoutError) as exc:
            reason = getattr(exc, "reason", exc)
            if isinstance(exc, urllib.error.URLError) and not isinstance(
                reason, (ConnectionError, OSError)
            ):
                # Not a transport failure (e.g. a malformed URL): retrying
                # cannot help, so surface it immediately.
                raise RuntimeError(f"service unreachable: {reason}") from None
            last_error = f"connection failed: {reason}"
        if attempt + 1 < attempts:
            time.sleep(delay)
    raise RuntimeError(
        f"service did not accept the request after {attempts} attempts; "
        f"last error: {last_error}"
    )
