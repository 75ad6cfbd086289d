"""Sharded multi-worker cluster: consistent-hash routing over solve workers.

A :class:`ClusterRouter` is a thin stdlib HTTP frontend that owns **no**
solver pool of its own.  It partitions the canonical-fingerprint space
(:func:`~busytime.service.canonical.request_fingerprint`) into 256 shards
— the first two hex characters of the fingerprint — and assigns shards to
backend workers with a consistent-hash ring (:class:`ShardMap`).  Every
``POST /solve`` for the same canonical request therefore lands on the same
worker, so each worker's :class:`~busytime.service.store.ResultStore` sees
the full request stream for its shards and the cluster's effective cache
is the *sum* of the per-worker tiers, not N copies of the same hot set.

Routing, failure handling, and overload map onto plain HTTP:

* the routing key is the ``X-Busytime-Fingerprint`` header when the client
  sends one (``busytime submit`` does), otherwise the router canonicalizes
  the body itself;
* a worker that refuses the connection (crashed, restarting) is marked
  dead and the request is retried on the next replica in ring order —
  ``POST /solve`` is idempotent (deterministic solves, content-addressed
  cache), so replay is safe and the kill-one-worker drill loses no jobs;
* when a worker dies or revives, the shards whose primary moved are
  **warmed** on their new owner (``POST /warm``) so the reassigned traffic
  hits the new worker's memory tier instead of re-solving;
* a worker answering 429/503 (shed / draining) spills to the next replica;
  when every live worker is saturated the router sheds with its own 429 +
  ``Retry-After`` instead of queueing unboundedly;
* ``GET /healthz`` aggregates worker health and doubles as the revival
  probe — a dead worker that answers again is put back in the ring.

Job ids returned by the router are prefixed with the worker index
(``w2-job-000017``) so ``GET /jobs/<id>`` can be routed back without any
router-side job table.

Streaming sessions (:mod:`busytime.service.sessions`) route through the
same shard space, keyed on the session id instead of a fingerprint — the
router mints the id on ``POST /sessions`` so a session's whole event
stream pins to one worker.  A dead or draining owner fails over along the
ring; the successor resumes the session from the shared checkpoint store
(the handoff), and event-offset idempotency makes replaying an
unacknowledged batch safe.

:class:`LocalCluster` spins the whole topology up in one process (N
workers on loopback ports plus a router) for tests, benchmarks, and the
``busytime cluster`` command.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import re
import threading
import uuid
from typing import Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .frontend import (
    RETRY_AFTER_SECONDS,
    JsonRequestHandler,
    ThreadingHTTPServer,
    _request_from_document,
    make_server,
)
from .canonical import request_fingerprint
from .service import SolveService
from .sessions import SessionManager
from .store import ResultStore

__all__ = [
    "ShardMap",
    "ClusterRouter",
    "LocalCluster",
    "make_cluster_router",
    "SHARD_PREFIX_LEN",
    "ALL_SHARDS",
]

#: Fingerprints are sharded on their first two hex characters: 256 shards,
#: enough granularity to spread over any plausible worker count while
#: keeping warm/rebalance payloads (lists of prefixes) tiny.
SHARD_PREFIX_LEN = 2

#: Every shard id, in order ("00" .. "ff").
ALL_SHARDS: Tuple[str, ...] = tuple(f"{i:02x}" for i in range(256))

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")
_PREFIXED_JOB_RE = re.compile(r"^w(\d+)-(.+)$")


def _hash_point(key: str) -> int:
    """Position of ``key`` on the ring (first 8 bytes of its SHA-256)."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class ShardMap:
    """Consistent-hash assignment of the 256 fingerprint shards to workers.

    Each worker is placed on the ring at ``vnodes`` pseudo-random points
    (hash of ``"<worker>#<k>"``); a shard is owned by the first worker at
    or after the shard's own point, and its *replica order* is the
    subsequent distinct workers — the failover sequence.  Because ring
    points depend only on worker identity, adding or removing one worker
    moves only the shards adjacent to its vnodes (~1/N of the space), which
    is exactly what keeps the per-worker caches valid across failures.

    The map itself is immutable; liveness is an argument (``alive``), so
    the router can ask "who owns shard ``a3`` among the workers currently
    up" without rebuilding anything.
    """

    def __init__(self, workers: Sequence[str], vnodes: int = 64):
        if not workers:
            raise ValueError("ShardMap needs at least one worker")
        if len(set(workers)) != len(workers):
            raise ValueError(f"duplicate workers in {list(workers)}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.workers: Tuple[str, ...] = tuple(workers)
        self.vnodes = vnodes
        ring = sorted(
            (_hash_point(f"{worker}#{k}"), worker)
            for worker in self.workers
            for k in range(vnodes)
        )
        self._points: List[int] = [point for point, _ in ring]
        self._ring: List[str] = [worker for _, worker in ring]

    @staticmethod
    def shard_of(fingerprint: str) -> str:
        """The shard id (two hex chars) a fingerprint belongs to."""
        return fingerprint[:SHARD_PREFIX_LEN]

    def owners(
        self, key: str, alive: Optional[Sequence[str]] = None
    ) -> Tuple[str, ...]:
        """Distinct workers for ``key``'s shard, primary first.

        ``key`` may be a full fingerprint or a bare shard id — only its
        first :data:`SHARD_PREFIX_LEN` characters matter, so every
        fingerprint in a shard gets an identical answer.  With ``alive``
        given, workers outside that set are skipped (their successors are
        promoted), which is how shards fail over without remapping the
        rest of the ring.
        """
        wanted = set(self.workers if alive is None else alive)
        start = bisect.bisect_left(self._points, _hash_point(self.shard_of(key)))
        seen: List[str] = []
        for i in range(len(self._ring)):
            worker = self._ring[(start + i) % len(self._ring)]
            if worker in wanted and worker not in seen:
                seen.append(worker)
                if len(seen) == len(wanted):
                    break
        return tuple(seen)

    def primary(self, key: str, alive: Optional[Sequence[str]] = None) -> Optional[str]:
        """The first live owner of ``key``'s shard (``None`` if none)."""
        order = self.owners(key, alive=alive)
        return order[0] if order else None

    def table(self, alive: Optional[Sequence[str]] = None) -> Dict[str, str]:
        """``shard id -> primary owner`` for the whole space."""
        return {
            shard: owner
            for shard in ALL_SHARDS
            if (owner := self.primary(shard, alive=alive)) is not None
        }

    def shards_of(
        self, worker: str, alive: Optional[Sequence[str]] = None
    ) -> Tuple[str, ...]:
        """The shards whose primary is ``worker`` (under ``alive``)."""
        return tuple(
            shard for shard, owner in self.table(alive=alive).items() if owner == worker
        )


class WorkerUnavailableError(RuntimeError):
    """A worker could not be reached at the transport level."""


def _split_base_url(url: str) -> Tuple[str, int]:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.scheme not in ("", "http"):
        raise ValueError(f"cluster workers must be plain http, got {url!r}")
    if not parts.hostname or parts.port is None:
        raise ValueError(f"worker url must be http://host:port, got {url!r}")
    return parts.hostname, parts.port


class _RouterHandler(JsonRequestHandler):
    """Routes cluster endpoints; all state lives on the server."""

    server: "ClusterRouter"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if path == "/sessions" or path.startswith("/sessions/"):
            raw = self._read_body(self.server.max_body_bytes)
            if raw is None:
                return
            status, payload, retry_after = self.server.route_session(
                "POST", path, raw
            )
            self._send_json(status, payload, retry_after=retry_after)
            return
        if path != "/solve":
            self.close_connection = True
            self._send_error_json(404, f"no such endpoint: POST {self.path}")
            return
        raw = self._read_body(self.server.max_body_bytes)
        if raw is None:
            return
        header = self.headers.get("X-Busytime-Fingerprint", "").strip().lower()
        if _FINGERPRINT_RE.match(header):
            fingerprint = header
        else:
            # No (usable) routing hint: canonicalize here.  The router and
            # the worker compute the same fingerprint from the same body,
            # so hinted and unhinted clients agree on the shard.
            try:
                doc = json.loads(raw.decode("utf-8"))
                fingerprint = request_fingerprint(_request_from_document(doc))
            except (ValueError, KeyError, TypeError) as exc:
                self._send_error_json(400, str(exc))
                return
        status, payload, retry_after = self.server.route_solve(fingerprint, raw)
        self._send_json(status, payload, retry_after=retry_after)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            health = self.server.cluster_health()
            self._send_json(200 if health["status"] != "down" else 503, health)
        elif path == "/stats":
            self._send_json(200, self.server.cluster_stats())
        elif path == "/shards":
            self._send_json(200, self.server.shard_table())
        elif path == "/sessions" or path.startswith("/sessions/"):
            status, payload, retry_after = self.server.route_session(
                "GET", path, None
            )
            self._send_json(status, payload, retry_after=retry_after)
        elif path.startswith("/jobs/"):
            status, payload = self.server.route_job(path[len("/jobs/"):])
            self._send_json(status, payload)
        elif path == "/algorithms":
            status, payload = self.server.forward_any("GET", "/algorithms")
            self._send_json(status, payload)
        else:
            self._send_error_json(404, f"no such endpoint: GET {self.path}")


class ClusterRouter(ThreadingHTTPServer):
    """Consistent-hash router over N ``busytime serve`` workers.

    The router owns no solver pool and no cache — just the shard map, a
    per-worker liveness flag, per-worker in-flight counters (its
    backpressure signal), and small keep-alive connection pools toward the
    workers.  See the module docstring for the routing contract.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        worker_urls: Sequence[str],
        vnodes: int = 64,
        max_worker_inflight: Optional[int] = 64,
        probe_interval: Optional[float] = 1.0,
        forward_timeout: float = 330.0,
        max_body_bytes: int = 32 * 1024 * 1024,
        warm_on_rebalance: bool = True,
        warm_limit: Optional[int] = None,
        verbose: bool = False,
    ):
        if max_worker_inflight is not None and max_worker_inflight < 1:
            raise ValueError(
                f"max_worker_inflight must be >= 1 (or None), got {max_worker_inflight}"
            )
        workers = tuple(url.rstrip("/") for url in worker_urls)
        self.shard_map = ShardMap(workers, vnodes=vnodes)
        self.workers = workers
        self._addresses = {url: _split_base_url(url) for url in workers}
        self.max_worker_inflight = max_worker_inflight
        self.forward_timeout = forward_timeout
        self.max_body_bytes = max_body_bytes
        self.warm_on_rebalance = warm_on_rebalance
        self.warm_limit = warm_limit
        self.verbose = verbose
        self._lock = threading.Lock()
        self._alive: Dict[str, bool] = {url: True for url in workers}
        self._inflight: Dict[str, int] = {url: 0 for url in workers}
        self._pools: Dict[str, List[http.client.HTTPConnection]] = {
            url: [] for url in workers
        }
        self._counters = {
            "routed": 0,
            "session_routes": 0,
            "failovers": 0,
            "shed": 0,
            "worker_failures": 0,
            "revived": 0,
            "warm_posts": 0,
        }
        self._stop = threading.Event()
        self._probe_thread: Optional[threading.Thread] = None
        super().__init__(address, _RouterHandler)
        if probe_interval is not None and probe_interval > 0:
            self._probe_thread = threading.Thread(
                target=self._probe_loop,
                args=(probe_interval,),
                name="cluster-probe",
                daemon=True,
            )
            self._probe_thread.start()

    # -- liveness -------------------------------------------------------------

    def alive_workers(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(url for url in self.workers if self._alive[url])

    def mark_dead(self, url: str) -> None:
        """Take a worker out of the ring and rebalance its shards."""
        with self._lock:
            if not self._alive.get(url, False):
                return
            before = tuple(w for w in self.workers if self._alive[w])
            self._alive[url] = False
            self._counters["worker_failures"] += 1
            for conn in self._pools[url]:
                conn.close()
            self._pools[url].clear()
            after = tuple(w for w in self.workers if self._alive[w])
        self._rebalance_async(before, after)

    def mark_alive(self, url: str) -> None:
        """Return a recovered worker to the ring and warm its shards back."""
        with self._lock:
            if self._alive.get(url, True):
                return
            before = tuple(w for w in self.workers if self._alive[w])
            self._alive[url] = True
            self._counters["revived"] += 1
            after = tuple(w for w in self.workers if self._alive[w])
        self._rebalance_async(before, after)

    def _probe_loop(self, interval: float) -> None:  # pragma: no cover - timing
        while not self._stop.wait(interval):
            for url in self.workers:
                with self._lock:
                    dead = not self._alive[url]
                if not dead:
                    continue
                try:
                    status, _ = self._forward(url, "GET", "/healthz", timeout=2.0)
                except WorkerUnavailableError:
                    continue
                if status == 200:
                    self.mark_alive(url)

    # -- cache warming on topology change -------------------------------------

    def _rebalance_async(
        self, before: Sequence[str], after: Sequence[str]
    ) -> None:
        """Warm every shard whose primary moved, off the request path."""
        if not self.warm_on_rebalance:
            return
        old = self.shard_map.table(alive=before)
        new = self.shard_map.table(alive=after)
        moved: Dict[str, List[str]] = {}
        for shard, owner in new.items():
            if old.get(shard) != owner:
                moved.setdefault(owner, []).append(shard)
        if not moved:
            return
        thread = threading.Thread(
            target=self._warm_owners, args=(moved,), name="cluster-warm", daemon=True
        )
        thread.start()

    def _warm_owners(self, moved: Mapping[str, Sequence[str]]) -> None:
        for owner, shards in moved.items():
            body: Dict[str, object] = {"prefixes": list(shards)}
            if self.warm_limit is not None:
                body["limit"] = self.warm_limit
            try:
                self._forward(
                    owner, "POST", "/warm", body=json.dumps(body).encode("utf-8")
                )
            except WorkerUnavailableError:
                continue  # best effort: the next request re-solves instead
            with self._lock:
                self._counters["warm_posts"] += 1

    # -- transport ------------------------------------------------------------

    def _checkout(self, url: str) -> Optional[http.client.HTTPConnection]:
        with self._lock:
            pool = self._pools[url]
            return pool.pop() if pool else None

    def _checkin(self, url: str, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if self._alive.get(url, False) and len(self._pools[url]) < 8:
                self._pools[url].append(conn)
                return
        conn.close()

    def _forward(
        self,
        url: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """One worker round trip; raises :class:`WorkerUnavailableError`.

        A pooled keep-alive connection may have gone stale (worker-side
        timeout); a failure on a pooled connection is retried once on a
        fresh one before the worker is declared unreachable.
        """
        host, port = self._addresses[url]
        conn = self._checkout(url)
        for fresh in (False, True) if conn is not None else (True,):
            if fresh:
                conn = http.client.HTTPConnection(
                    host, port, timeout=timeout or self.forward_timeout
                )
            elif timeout is not None and conn.sock is not None:
                # Pooled connections were dialed with forward_timeout; a
                # short-deadline probe must not inherit the long one.
                conn.sock.settimeout(timeout)
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.will_close:
                    conn.close()
                else:
                    self._checkin(url, conn)
                try:
                    payload = json.loads(data.decode("utf-8")) if data else {}
                except ValueError:
                    payload = {"error": data.decode("utf-8", "replace")}
                if not isinstance(payload, dict):
                    payload = {"result": payload}
                return response.status, payload
            except (OSError, http.client.HTTPException):
                conn.close()
        raise WorkerUnavailableError(f"worker {url} is unreachable")

    # -- routing --------------------------------------------------------------

    def route_solve(
        self, fingerprint: str, raw_body: bytes
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """Forward a solve to its shard owner, failing over along the ring.

        Returns ``(status, payload, retry_after)``.  Only transport
        failures and 429/503 answers fail over; definitive answers (200s,
        400s, 413s) return verbatim — re-asking a replica cannot change
        them.  Replay after a transport failure is safe because solves are
        deterministic and cached: at worst a replica recomputes a result
        the dead primary already had.
        """
        with self._lock:
            self._counters["routed"] += 1
        saw_overload = False
        last_error = "no live worker owns this shard"
        for attempt, url in enumerate(self.shard_map.owners(fingerprint)):
            with self._lock:
                if not self._alive[url]:
                    continue
                if (
                    self.max_worker_inflight is not None
                    and self._inflight[url] >= self.max_worker_inflight
                ):
                    saw_overload = True
                    last_error = f"worker {url} is at its in-flight cap"
                    continue
                self._inflight[url] += 1
            try:
                status, payload = self._forward(url, "POST", "/solve", body=raw_body)
            except WorkerUnavailableError as exc:
                last_error = str(exc)
                self.mark_dead(url)
                with self._lock:
                    self._counters["failovers"] += 1
                continue
            finally:
                with self._lock:
                    self._inflight[url] -= 1
            if status in (429, 503):
                # Shed or draining: spill this request to the next replica
                # rather than bouncing the client, but remember the reason.
                saw_overload = saw_overload or status == 429
                last_error = f"worker {url} answered {status}"
                with self._lock:
                    self._counters["failovers"] += 1
                continue
            if attempt > 0 and self.verbose:  # pragma: no cover - logging
                print(f"cluster: shard {fingerprint[:2]} served by replica {url}")
            if status == 200 and "job_id" in payload:
                index = self.workers.index(url)
                payload["job_id"] = f"w{index}-{payload['job_id']}"
                payload["worker"] = index
            return status, payload, None
        if saw_overload:
            with self._lock:
                self._counters["shed"] += 1
            return (
                429,
                {"error": f"cluster is saturated; {last_error}"},
                RETRY_AFTER_SECONDS,
            )
        return 503, {"error": last_error}, RETRY_AFTER_SECONDS

    def route_session(
        self, method: str, path: str, raw_body: Optional[bytes]
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        """Route a session request to its shard owner (pinned by session id).

        Sessions shard exactly like fingerprints — on the first two
        characters of the session id — so one session's whole event stream
        lands on one worker, whose in-memory :class:`SessionManager` holds
        the live simulator.  ``POST /sessions`` without a client-chosen
        ``session_id`` gets a router-generated one *before* routing, which
        is what makes the pinning possible.

        Failover is the checkpoint handoff: when the pinned owner is
        unreachable (killed worker) or draining (503), the request moves to
        the next replica in ring order, whose manager resumes the session
        from the shared checkpoint store — event-offset idempotency on the
        session makes the replay of an unacknowledged batch safe.
        Definitive answers (200/201, 400, 404, 409, 429) return verbatim:
        a per-tenant 429 in particular must not be laundered through a
        replica that has not seen the tenant's traffic.
        """
        with self._lock:
            self._counters["session_routes"] += 1
        if method == "POST" and path == "/sessions":
            try:
                doc = json.loads(raw_body.decode("utf-8")) if raw_body else {}
                if not isinstance(doc, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                return 400, {"error": str(exc)}, None
            session_id = doc.get("session_id")
            if session_id is None:
                session_id = uuid.uuid4().hex
                doc["session_id"] = session_id
                raw_body = json.dumps(doc).encode("utf-8")
            elif not isinstance(session_id, str) or not session_id:
                return 400, {"error": '"session_id" must be a non-empty string'}, None
            key = session_id
        elif path == "/sessions":
            return self._aggregate_sessions()
        else:
            parts = path.split("/")
            key = parts[2] if len(parts) > 2 and parts[2] else ""
            if not key:
                return 404, {"error": f"no such endpoint: {method} {path}"}, None
        last_error = "no live worker owns this session's shard"
        for url in self.shard_map.owners(key):
            with self._lock:
                if not self._alive[url]:
                    continue
            try:
                status, payload = self._forward(url, method, path, body=raw_body)
            except WorkerUnavailableError as exc:
                last_error = str(exc)
                self.mark_dead(url)
                with self._lock:
                    self._counters["failovers"] += 1
                continue
            if status == 503:
                # Draining owner: hand the session over to the next replica
                # (it resumes from the shared checkpoint store).
                last_error = f"worker {url} answered {status}"
                with self._lock:
                    self._counters["failovers"] += 1
                continue
            retry_after = RETRY_AFTER_SECONDS if status == 429 else None
            return status, payload, retry_after
        return 503, {"error": last_error}, RETRY_AFTER_SECONDS

    def _aggregate_sessions(self) -> Tuple[int, Dict[str, object], Optional[float]]:
        """``GET /sessions`` cluster-wide: per-worker listings, merged totals."""
        workers = []
        totals: Dict[str, float] = {}
        for url in self.workers:
            with self._lock:
                if not self._alive[url]:
                    continue
            try:
                status, payload = self._forward(url, "GET", "/sessions", timeout=5.0)
            except WorkerUnavailableError:
                self.mark_dead(url)
                continue
            if status != 200:
                continue
            workers.append({"url": url, **payload})
            for name, value in (payload.get("stats") or {}).items():
                if isinstance(value, (int, float)):
                    totals[name] = totals.get(name, 0) + value
        return 200, {"workers": workers, "totals": totals}, None

    def route_job(self, prefixed_id: str) -> Tuple[int, Dict[str, object]]:
        """``GET /jobs/w<i>-<id>``: ask the worker that issued the id."""
        match = _PREFIXED_JOB_RE.match(prefixed_id)
        if not match or int(match.group(1)) >= len(self.workers):
            return 404, {"error": f"unknown job id: {prefixed_id}"}
        index, job_id = int(match.group(1)), match.group(2)
        url = self.workers[index]
        try:
            status, payload = self._forward(url, "GET", f"/jobs/{job_id}")
        except WorkerUnavailableError:
            self.mark_dead(url)
            return 502, {
                "error": f"worker {url} holding {prefixed_id} is unreachable"
            }
        if status == 200 and "job_id" in payload:
            payload["job_id"] = prefixed_id
            payload["worker"] = index
        return status, payload

    def forward_any(self, method: str, path: str) -> Tuple[int, Dict[str, object]]:
        """Forward a worker-agnostic read to the first live worker."""
        for url in self.workers:
            with self._lock:
                if not self._alive[url]:
                    continue
            try:
                return self._forward(url, method, path)
            except WorkerUnavailableError:
                self.mark_dead(url)
        return 503, {"error": "no live workers"}

    # -- introspection --------------------------------------------------------

    def shard_table(self) -> Dict[str, object]:
        alive = self.alive_workers()
        counts = {
            url: len(self.shard_map.shards_of(url, alive=alive)) for url in alive
        }
        return {
            "workers": list(self.workers),
            "alive": list(alive),
            "shards": len(ALL_SHARDS),
            "shards_per_worker": counts,
        }

    def cluster_health(self) -> Dict[str, object]:
        """Live worker probe + routing view; also revives answering workers."""
        workers = []
        up = 0
        for url in self.workers:
            entry: Dict[str, object] = {"url": url}
            try:
                status, payload = self._forward(url, "GET", "/healthz", timeout=2.0)
                entry["alive"] = status == 200
                entry["health"] = payload
                if status == 200:
                    up += 1
                    self.mark_alive(url)
                else:
                    self.mark_dead(url)
            except WorkerUnavailableError:
                entry["alive"] = False
                self.mark_dead(url)
            workers.append(entry)
        alive = self.alive_workers()
        for entry in workers:
            entry["shards"] = len(
                self.shard_map.shards_of(str(entry["url"]), alive=alive)
            )
        status_word = "ok" if up == len(self.workers) else "degraded" if up else "down"
        with self._lock:
            counters = dict(self._counters)
        return {"status": status_word, "workers": workers, "router": counters}

    def cluster_stats(self) -> Dict[str, object]:
        """Router counters plus a best-effort sweep of worker ``/stats``."""
        with self._lock:
            counters = dict(self._counters)
            inflight = dict(self._inflight)
        workers = []
        for url in self.workers:
            entry: Dict[str, object] = {"url": url, "inflight": inflight[url]}
            try:
                _, payload = self._forward(url, "GET", "/stats", timeout=2.0)
                entry["stats"] = payload
            except WorkerUnavailableError:
                entry["stats"] = None
            workers.append(entry)
        return {"router": counters, "workers": workers}

    # -- lifecycle ------------------------------------------------------------

    def server_close(self) -> None:
        self._stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        with self._lock:
            for pool in self._pools.values():
                for conn in pool:
                    conn.close()
                pool.clear()
        super().server_close()


def make_cluster_router(
    worker_urls: Sequence[str],
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> ClusterRouter:
    """Bind a router over ``worker_urls`` (``port=0`` picks a free port).

    The caller owns the loop, exactly like :func:`~busytime.service.frontend.
    make_server`: ``serve_forever()`` to serve, ``shutdown()`` +
    ``server_close()`` to stop.
    """
    return ClusterRouter((host, port), worker_urls, **kwargs)


class LocalCluster:
    """An in-process cluster: N workers on loopback ports plus the router.

    Each worker gets its **own** :class:`ResultStore` (its own memory LRU
    and, when ``store_dir`` is given, its own disk subdirectory) — the
    cluster's cache capacity is the aggregate, which is the whole point of
    sharding.  Used by the cluster tests, the traffic-replay benchmark
    (experiment E20), and ``busytime cluster --local``.
    """

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        store_capacity: int = 256,
        store_dir: Optional[str] = None,
        max_disk_entries: Optional[int] = None,
        max_pending: Optional[int] = None,
        wait_timeout: float = 300.0,
        router_port: int = 0,
        router_kwargs: Optional[Mapping[str, object]] = None,
        session_limits=None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.services: List[SolveService] = []
        self.servers = []
        self._threads: List[threading.Thread] = []
        # Unlike the per-worker result caches, the session *checkpoint*
        # store is one shared tier: failover handoff requires the new owner
        # to read the old owner's last checkpoint.  With a disk directory
        # the sharing is the filesystem (document reads always hit disk);
        # memory-only clusters share the store object itself.
        self.session_store = ResultStore(
            capacity=store_capacity,
            directory=f"{store_dir}/sessions" if store_dir is not None else None,
        )
        try:
            for index in range(workers):
                directory = None
                if store_dir is not None:
                    directory = f"{store_dir}/w{index}"
                store = ResultStore(
                    capacity=store_capacity,
                    directory=directory,
                    max_disk_entries=max_disk_entries,
                )
                service = SolveService(store=store, max_pending=max_pending)
                sessions = SessionManager(
                    service, store=self.session_store, limits=session_limits
                )
                server = make_server(service, host=host, port=0,
                                     wait_timeout=wait_timeout, sessions=sessions)
                self.services.append(service)
                self.servers.append(server)
            self.worker_urls = [
                f"http://{host}:{server.server_address[1]}" for server in self.servers
            ]
            self.router = make_cluster_router(
                self.worker_urls,
                host=host,
                port=router_port,
                **dict(router_kwargs or {}),
            )
        except BaseException:
            self.close()
            raise
        self._started = True
        for index, server in enumerate(self.servers):
            thread = threading.Thread(
                target=server.serve_forever, name=f"worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        router_thread = threading.Thread(
            target=self.router.serve_forever, name="cluster-router", daemon=True
        )
        router_thread.start()
        self._threads.append(router_thread)

    @property
    def url(self) -> str:
        """The router's base url — the only address clients need."""
        return f"http://{self.router.server_address[0]}:{self.router.server_address[1]}"

    def kill_worker(self, index: int) -> None:
        """Abruptly stop one worker (no drain): the failover drill.

        The accepted connections are hung up too, before the service
        closes, so a killed worker answers nothing more: neither requests
        in flight nor keep-alive connections the router pooled.
        """
        server = self.servers[index]
        server.shutdown()
        server.server_close()
        server.close_connections()
        self.services[index].close()

    def drain_worker(self, index: int, timeout: float = 30.0) -> bool:
        """Gracefully drain one worker, then stop serving it."""
        drained = self.services[index].drain(timeout=timeout)
        self.servers[index].shutdown()
        self.servers[index].server_close()
        return drained

    def close(self) -> None:
        # shutdown() blocks on the serve_forever loop exiting, so it must
        # only be called once the loop threads exist (not when __init__
        # aborts mid-construction).
        started = getattr(self, "_started", False)
        router = getattr(self, "router", None)
        if router is not None:
            if started:
                router.shutdown()
            router.server_close()
        for server in getattr(self, "servers", []):
            try:
                if started:
                    server.shutdown()
                server.server_close()
            except OSError:  # pragma: no cover - already killed
                pass
        for service in getattr(self, "services", []):
            try:
                service.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
