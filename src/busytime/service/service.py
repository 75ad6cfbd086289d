"""`SolveService`: submit/poll/result semantics over the engine.

The service is the traffic-facing wrapper around
:class:`~busytime.engine.Engine`.  One submission travels through four
stages:

1. **admission** — requests above the configured size/time limits are
   rejected up front (:class:`AdmissionError`), before any work is queued;
2. **canonicalization** — the request is rewritten onto its canonical
   instance and fingerprinted (:mod:`busytime.service.canonical`), so
   relabeled / time-shifted duplicates of earlier traffic are recognised;
3. **cache & dedupe** — a fingerprint already in the
   :class:`~busytime.service.store.ResultStore` completes immediately; a
   fingerprint currently *in flight* attaches to the existing solve instead
   of queueing a second one;
4. **micro-batching** — a background worker drains the queue in small
   batches (up to ``batch_size`` requests gathered within ``batch_window``
   seconds) and solves them, optionally fanning each batch out over a
   persistent process pool (``max_workers``) as one future per request so
   a poisoned request fails alone.

The service is thread-safe: HTTP handler threads (see
:mod:`busytime.service.frontend`) submit and poll concurrently with the
batch worker.  The internal lock guards only bookkeeping — cache lookups,
de-canonicalization and the solves themselves run outside it, so one slow
request never serializes the others.  Failures stay contained: a solve (or
cache-write) error fails the affected jobs with a recorded message rather
than wedging their fingerprint, ``close()`` fails whatever never ran, and
finished jobs are pruned past ``max_finished_jobs`` so a long-running
server does not accumulate every report it ever produced.

A finished job keeps the caller's instance as flat rows
(:class:`~busytime.core.instance.InstanceRows`), the canonical id map and
offset, the flat canonical report the store holds (its schedule is
:class:`~busytime.core.schedule.ScheduleRows`) and where that report's
jobs land among the caller's rows: one ``array`` of row positions, checked
once when the job finishes — never job or schedule objects.  A request
parsed from a document therefore travels from fingerprint to reply without
any, whether the store answers from memory or decodes the entry from disk:
a store hit finishes inside :meth:`submit` after the flat mapping check,
and :meth:`report_document` writes its reply from the positions.  Objects
are built only where they are needed: the engine solves the canonical
instance of a miss, and :meth:`result` de-canonicalizes into a
:class:`SolveReport` on every call.

For deterministic tests the worker can be left unstarted
(``start_worker=False``) and driven manually with :meth:`process_once`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from queue import Empty, Queue
from typing import Deque, Dict, List, Optional, Tuple

from collections import deque

from ..core.instance import InstanceRows, as_rows
from ..engine import Engine, SolveReport, SolveRequest
from .canonical import (
    CanonicalMap,
    Mapped,
    canonical_request,
    canonicalize,
    decanonicalize_report,
    decanonicalized_document,
    decanonicalized_rows,
    request_fingerprint,
)
from .store import ResultStore

__all__ = [
    "AdmissionError",
    "AdmissionLimits",
    "JobFailedError",
    "ServiceClosedError",
    "ServiceDrainingError",
    "ServiceOverloadedError",
    "SolveService",
]


class AdmissionError(ValueError):
    """Raised at submit time when a request exceeds the admission limits."""


class JobFailedError(RuntimeError):
    """Raised by :meth:`SolveService.result` when the solve itself failed."""


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a service that has been closed."""


class ServiceDrainingError(ServiceClosedError):
    """Raised when submitting to a service that is draining (shutdown soon).

    Subclasses :class:`ServiceClosedError` so existing "service gone" error
    handling keeps working; the HTTP frontend additionally answers it with
    a ``Retry-After`` hint, because a drain usually precedes a restart and
    the retrying client will find a fresh worker.
    """


class ServiceOverloadedError(RuntimeError):
    """Raised at submit time when the in-flight queue is at ``max_pending``.

    This is load shedding, not failure: the request was *not* queued, and
    the caller should back off and retry (the HTTP frontend maps this to
    429 + ``Retry-After``; the cluster router spills the request to the
    next replica first).
    """


@dataclass(frozen=True)
class AdmissionLimits:
    """Per-request admission limits enforced at submit time.

    ``max_jobs`` caps the instance size; ``max_time_limit`` caps (and, for
    dispatched solves that did not set one, supplies) the per-request soft
    time budget, so no single request can hold a batch slot indefinitely.
    Racing requests budget with their shared ``deadline`` instead of
    ``time_limit``; the same ``max_time_limit`` cap applies to it, and a
    race submitted without a deadline gets ``max_time_limit`` as one —
    racing runs *behind* admission control, never around it.
    Forced-algorithm solves cannot be preempted by a time budget at all
    (see :class:`~busytime.engine.request.SolveRequest`), so they get the
    tighter ``max_forced_jobs`` size cap instead — otherwise one huge
    forced solve head-of-line blocks the batch worker with no recourse.
    Any limit may be ``None`` to disable that check.
    """

    max_jobs: Optional[int] = 20_000
    max_time_limit: Optional[float] = 60.0
    max_forced_jobs: Optional[int] = 5_000

    def admit(self, request: SolveRequest) -> SolveRequest:
        """Validate ``request`` and return it with limits applied.

        Raises :class:`AdmissionError` on violation.  Dispatched requests
        without a ``time_limit`` get ``max_time_limit`` as their budget;
        racing requests without a ``deadline`` likewise.
        """
        if self.max_jobs is not None and request.instance.n > self.max_jobs:
            raise AdmissionError(
                f"instance has {request.instance.n} jobs, above the service "
                f"limit of {self.max_jobs}"
            )
        if (
            request.algorithm is not None
            and self.max_forced_jobs is not None
            and request.instance.n > self.max_forced_jobs
        ):
            raise AdmissionError(
                f"forced-algorithm solves cannot be preempted by a time "
                f"budget, so they are capped at {self.max_forced_jobs} jobs; "
                f"this instance has {request.instance.n} (drop the explicit "
                f"algorithm to use policy dispatch)"
            )
        if self.max_time_limit is not None:
            # ``not <=`` so that a NaN budget is refused too.
            if request.time_limit is not None and not (
                request.time_limit <= self.max_time_limit
            ):
                raise AdmissionError(
                    f"time_limit {request.time_limit}s is above the service "
                    f"limit of {self.max_time_limit}s"
                )
            if request.deadline is not None and not (
                request.deadline <= self.max_time_limit
            ):
                raise AdmissionError(
                    f"deadline {request.deadline}s is above the service "
                    f"limit of {self.max_time_limit}s"
                )
            if request.race >= 2:
                if request.deadline is None:
                    request = replace(request, deadline=self.max_time_limit)
            elif request.time_limit is None and request.algorithm is None:
                request = replace(request, time_limit=self.max_time_limit)
        return request


#: Job lifecycle states reported by :meth:`SolveService.poll`.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


@dataclass
class _Job:
    """One caller-visible submission (several may share one flight).

    ``rows`` is the caller's instance, ``mapping`` the canonical id map and
    offset, and — once done — ``report`` the flat *canonical* report,
    shared with the store, and ``mapped`` where its jobs land among
    ``rows`` (:func:`~busytime.service.canonical.decanonicalized_rows`):
    what the answer is built from on demand.
    """

    job_id: str
    fingerprint: str
    rows: InstanceRows
    mapping: CanonicalMap
    tags: Dict[str, object]
    status: str = QUEUED
    cached: bool = False
    deduped: bool = False
    report: Optional[SolveReport] = None
    mapped: Optional[Mapped] = None
    error: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)


@dataclass
class _Flight:
    """One in-flight canonical solve, shared by all jobs with its fingerprint."""

    request: SolveRequest
    job_ids: List[str] = field(default_factory=list)


class SolveService:
    """Thread-safe solve-as-a-service facade (submit / poll / result).

    Parameters
    ----------
    engine:
        The solve engine; a default one is built when omitted.
    store:
        Result cache; a memory-only :class:`ResultStore` when omitted.
    limits:
        Admission limits (see :class:`AdmissionLimits`).
    batch_size / batch_window:
        Micro-batching knobs: the worker gathers up to ``batch_size``
        distinct queued fingerprints within ``batch_window`` seconds and
        solves them as one batch.
    max_workers:
        Fan gathered batches out across a persistent process pool of this
        size (``None``/1 solves serially in the worker thread — right for
        small instances where pool shipping would dominate).
    max_finished_jobs:
        Finished (done/failed) jobs older than the newest this many are
        pruned from the poll table; their ids then answer ``KeyError``.
        Waiters that already hold the job keep their reference — pruning
        only bounds the table a long-running server retains.
    max_pending:
        Queue-depth cap: a submission that would queue a *new* solve while
        this many fingerprints are already in flight is shed with
        :class:`ServiceOverloadedError` instead of queued.  Cache hits and
        in-flight dedupe attach regardless (they add no work).  ``None``
        (the default) disables shedding.
    start_worker:
        Start the background batch worker (default).  Pass ``False`` to
        drive the queue manually with :meth:`process_once` (tests do).
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        store: Optional[ResultStore] = None,
        limits: Optional[AdmissionLimits] = None,
        batch_size: int = 8,
        batch_window: float = 0.01,
        max_workers: Optional[int] = None,
        max_finished_jobs: int = 4096,
        max_pending: Optional[int] = None,
        start_worker: bool = True,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_finished_jobs < 1:
            raise ValueError(f"max_finished_jobs must be >= 1, got {max_finished_jobs}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1 (or None), got {max_pending}")
        self.engine = engine if engine is not None else Engine()
        # `is not None`, not truthiness: an empty ResultStore has len() == 0
        # and would otherwise be silently swapped for a memory-only one.
        self.store = store if store is not None else ResultStore()
        self.limits = limits if limits is not None else AdmissionLimits()
        self.batch_size = batch_size
        self.batch_window = batch_window
        self.max_workers = max_workers
        self.max_finished_jobs = max_finished_jobs
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._jobs: Dict[str, _Job] = {}
        self._finished: Deque[str] = deque()
        self._inflight: Dict[str, _Flight] = {}
        self._queue: "Queue[str]" = Queue()
        self._ids = itertools.count(1)
        self._closed = False
        self._draining = False
        self._started_at = time.monotonic()
        self._shed = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._deduped = 0
        self._rejected = 0
        self._batches = 0
        self._batched_requests = 0
        self._largest_batch = 0
        self._store_put_failures = 0
        self._executor = None  # lazily-built persistent process pool
        self._worker: Optional[threading.Thread] = None
        if start_worker:
            self._worker = threading.Thread(
                target=self._worker_loop, name="busytime-service-worker", daemon=True
            )
            self._worker.start()

    # -- submission ------------------------------------------------------------

    def submit(self, request: SolveRequest) -> str:
        """Queue (or instantly answer) one request; returns the job id."""
        request.validate()
        try:
            request = self.limits.admit(request)
        except AdmissionError:
            with self._lock:
                self._rejected += 1
            raise
        if request.policy is None:
            # Resolve the engine's default into the request before
            # fingerprinting (as solve_many does before pooling): two
            # services with different default policies sharing one store
            # must not serve each other's policy=None answers.
            request = replace(request, policy=self.engine.default_policy)
        rows = as_rows(request.instance)
        form = canonicalize(rows)
        fingerprint = request_fingerprint(request, form)
        job = _Job(
            job_id=f"job-{next(self._ids):06d}",
            fingerprint=fingerprint,
            rows=rows,
            mapping=form.mapping,
            tags=dict(request.tags),
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._submitted += 1
            self._jobs[job.job_id] = job
            if self._attach_if_inflight(job):
                return job.job_id

        # Cache lookup outside the lock: the disk tier runs the oracle on
        # the stored schedule, which must not serialize other submitters.
        # A hit finishes here, in submit: no waiter ever blocks on it.
        cached = self.store.get(fingerprint)
        if cached is not None:
            job.cached = True
            self._finish_job(job, cached)
            return job.job_id

        # Build the canonical request before taking the lock: it constructs
        # the O(n) canonical Instance, which must not serialize everyone
        # (wasted only in the rare race where the job attaches below).
        canonical = canonical_request(request, form)[0]
        with self._lock:
            # close() may have run while we were looking at the store; a
            # flight queued now would never be drained, so refuse instead.
            if self._closed:
                self._jobs.pop(job.job_id, None)
                raise ServiceClosedError("service is closed")
            # An identical request may have gone in flight while we were
            # looking at the store; join it rather than queueing a twin.
            if self._attach_if_inflight(job):
                return job.job_id
            # ... or have *completed* in that window: the memory tier is
            # populated before a flight retires, so a cheap peek here stops
            # a just-solved fingerprint from being re-solved from scratch.
            cached = self.store.peek(fingerprint)
            if cached is None:
                # Only *new* solves are refused while draining or shedding:
                # cache hits and dedupe attaches (above) ride along free.
                if self._draining:
                    self._jobs.pop(job.job_id, None)
                    self._submitted -= 1
                    raise ServiceDrainingError(
                        "service is draining; submit to another worker"
                    )
                if (
                    self.max_pending is not None
                    and len(self._inflight) >= self.max_pending
                ):
                    self._jobs.pop(job.job_id, None)
                    self._submitted -= 1
                    self._shed += 1
                    raise ServiceOverloadedError(
                        f"queue depth is at the max_pending cap of "
                        f"{self.max_pending}; retry after backoff"
                    )
                self._inflight[fingerprint] = _Flight(
                    request=canonical, job_ids=[job.job_id]
                )
                self._queue.put(fingerprint)
        if cached is not None:
            job.cached = True
            self._finish_job(job, cached)
        return job.job_id

    def _attach_if_inflight(self, job: _Job) -> bool:
        """Attach ``job`` to an existing flight (lock held); True on success."""
        flight = self._inflight.get(job.fingerprint)
        if flight is None:
            return False
        job.deduped = True
        self._deduped += 1
        flight.job_ids.append(job.job_id)
        return True

    def solve(self, request: SolveRequest, timeout: Optional[float] = None) -> SolveReport:
        """Synchronous convenience: submit and wait for the report."""
        return self.result(self.submit(request), timeout=timeout)

    # -- polling ---------------------------------------------------------------

    def poll(self, job_id: str) -> Dict[str, object]:
        """Status snapshot of one job.

        Raises ``KeyError`` for ids that are unknown — or finished so long
        ago that the retention window (``max_finished_jobs``) pruned them.
        """
        with self._lock:
            job = self._jobs[job_id]
            return {
                "job_id": job.job_id,
                "status": job.status,
                "fingerprint": job.fingerprint,
                "cached": job.cached,
                "deduped": job.deduped,
                "error": job.error,
            }

    def result(self, job_id: str, timeout: Optional[float] = None) -> SolveReport:
        """Block until the job finishes and return its report.

        The report's objects are built on the caller's instance on every
        call (the job keeps only flat rows), from the positions checked
        when the job finished: the mapping is not redone.  Raises
        ``KeyError`` for unknown (or pruned) ids, :class:`JobFailedError`
        when the solve failed, and ``TimeoutError`` when ``timeout``
        elapses.
        """
        job = self._finished_job(job_id, timeout)
        return decanonicalize_report(job.report, job.mapped, job.rows, tags=job.tags)

    def report_document(self, job_id: str) -> Dict[str, object]:
        """The finished job's ``busytime-solve-report`` document.

        Byte-equal to ``io.solve_report_to_dict(self.result(job_id))``, but
        written from the cached canonical report, the caller's rows and the
        positions checked when the job finished: no job, machine or
        schedule object is built, and the mapping is not redone (see
        :func:`~busytime.service.canonical.decanonicalized_document`).
        Raises like :meth:`result`, without waiting.
        """
        job = self._finished_job(job_id, timeout=0)
        return decanonicalized_document(job.report, job.rows, job.mapped, job.tags)

    def _finished_job(self, job_id: str, timeout: Optional[float]) -> _Job:
        """The job once done (see :meth:`result` for what it raises)."""
        with self._lock:
            job = self._jobs[job_id]
        if not job.done.wait(timeout):
            raise TimeoutError(f"{job_id} did not finish within {timeout}s")
        if job.status == FAILED:
            raise JobFailedError(f"{job_id} failed: {job.error}")
        assert job.report is not None
        return job

    # -- the batch worker ------------------------------------------------------

    def process_once(self, block: bool = True, timeout: float = 0.1) -> int:
        """Drain one micro-batch from the queue and solve it.

        Returns the number of fingerprints solved (0 when the queue stayed
        empty).  This is the unit of work the background worker loops on;
        tests call it directly for deterministic batching.
        """
        try:
            first = self._queue.get(block=block, timeout=timeout if block else None)
        except Empty:
            return 0
        batch = [first]
        deadline = time.monotonic() + self.batch_window
        while len(batch) < self.batch_size:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    batch.append(self._queue.get(timeout=remaining))
                else:
                    batch.append(self._queue.get_nowait())
            except Empty:
                break

        with self._lock:
            # close() may have failed these flights already; skip the stale
            # queue entries instead of re-solving for nobody.
            flights = [
                (fp, self._inflight[fp]) for fp in batch if fp in self._inflight
            ]
            if not flights:
                return len(batch)
            for _, flight in flights:
                for job_id in flight.job_ids:
                    self._jobs[job_id].status = RUNNING
            self._batches += 1
            self._batched_requests += len(flights)
            self._largest_batch = max(self._largest_batch, len(flights))

        results = self._solve_batch(flights)

        for fp, report, error in results:
            if report is not None:
                # One flat copy serves the store and every waiting job.
                report = report.flat()
            if report is not None and not report.budget_exhausted:
                # A budget-exhausted report is the *degraded* answer for
                # this moment's load (FirstFit fallback past the time
                # limit, or a deadline-truncated — hence non-decisive,
                # timing-dependent — race); the waiting jobs get it, but
                # caching it would serve the degraded schedule to every
                # future equivalent request even after load subsides.
                try:
                    self.store.put(fp, report)
                except Exception:  # noqa: BLE001 - caching is best-effort
                    # A full disk or unwritable store directory must not
                    # wedge the request: the report is in hand, serve it.
                    with self._lock:
                        self._store_put_failures += 1
            with self._lock:
                flight = self._inflight.pop(fp, None)
                jobs = (
                    [self._jobs[job_id] for job_id in flight.job_ids]
                    if flight is not None
                    else []
                )
            for job in jobs:
                if report is not None:
                    self._finish_job(job, report)
                else:
                    self._fail_job(job, error or "solve failed")
        return len(batch)

    def _finish_job(self, job: _Job, canonical_report: SolveReport) -> None:
        """Resolve one job from a canonical report (call without the lock:
        the O(n) mapping check must not serialize other threads).

        The check is the one de-canonicalization runs, on the flat rows, so
        a canonical report that does not map back onto the caller's jobs
        fails the job here rather than when its answer is read.  The job
        keeps the checked positions, so its reply is written without
        mapping again."""
        try:
            mapped = decanonicalized_rows(canonical_report, job.rows, job.mapping)
        except Exception as exc:  # noqa: BLE001 - a mapping failure is a real answer
            self._fail_job(job, f"de-canonicalization failed: {exc}")
            return
        with self._lock:
            if job.done.is_set():
                return
            job.report = canonical_report
            job.mapped = mapped
            job.status = DONE
            self._completed += 1
            self._prune_finished(job.job_id)
        job.done.set()

    def _fail_job(self, job: _Job, error: str) -> None:
        with self._lock:
            if job.done.is_set():
                return
            job.status = FAILED
            job.error = error
            self._failed += 1
            self._prune_finished(job.job_id)
        job.done.set()

    def _prune_finished(self, job_id: str) -> None:
        """Record a finished job and trim the table (lock held).

        Waiters holding the job object are unaffected; only the id lookup
        table is bounded, so a long-running server does not retain every
        report it ever served.
        """
        self._finished.append(job_id)
        while len(self._finished) > self.max_finished_jobs:
            self._jobs.pop(self._finished.popleft(), None)

    def _solve_batch(
        self, flights: List[Tuple[str, _Flight]]
    ) -> List[Tuple[str, Optional[SolveReport], Optional[str]]]:
        """Solve one gathered batch, isolating failures per request.

        Multi-request batches go through the persistent process pool as one
        future per request, so one poisoned request costs only its own
        entry — its batch-mates' completed results are kept, not re-solved.
        A broken pool (killed worker child) is discarded so the next batch
        rebuilds it, and the affected requests retry serially in-thread.

        Racing requests (``race >= 2``) are the exception to the
        one-future-per-request shape: they solve in this thread with the
        *pool itself* as the race's executor, so their candidates fan out
        as one pool task each (no pool-in-pool) while their batch-mates'
        futures progress concurrently.  With no pool configured the race
        runs serially in rank order — same winner either way, racing is
        timing-independent by construction.
        """
        from concurrent.futures import BrokenExecutor

        from ..engine.core import _pool_worker

        raced = any(flight.request.race >= 2 for _, flight in flights)
        # A lone racing flight still wants the pool (for its candidates),
        # which _batch_executor would skip for batch_len 1.
        executor = self._batch_executor(
            max(len(flights), 2) if raced else len(flights)
        )
        futures = None
        if executor is not None:
            try:
                futures = [
                    (
                        None
                        if flight.request.race >= 2
                        else executor.submit(_pool_worker, flight.request)
                    )
                    for _, flight in flights
                ]
            except Exception:  # pool unusable (e.g. shutting down)
                self._discard_executor()
                futures = None
                executor = None
        results: List[Tuple[str, Optional[SolveReport], Optional[str]]] = []
        for index, (fp, flight) in enumerate(flights):
            report: Optional[SolveReport] = None
            error: Optional[str] = None
            try:
                if futures is not None and futures[index] is not None:
                    report = futures[index].result()
                elif flight.request.race >= 2:
                    report = self.engine.solve(flight.request, executor=executor)
                else:
                    report = self.engine.solve(flight.request)
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                if isinstance(exc, BrokenExecutor):
                    self._discard_executor()
                    try:
                        # The serial retry also drops the race executor: a
                        # rank-order serial race reproduces the same winner.
                        report = self.engine.solve(flight.request)
                    except Exception as retry_exc:  # noqa: BLE001
                        error = f"{type(retry_exc).__name__}: {retry_exc}"
                else:
                    error = f"{type(exc).__name__}: {exc}"
            results.append((fp, report, error))
        return results

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    def _batch_executor(self, batch_len: int):
        """The persistent process pool for multi-request batches, or ``None``.

        Built once and reused across micro-batches (a pool per batch would
        pay process startup every ``batch_window``); :meth:`close` shuts it
        down.  Serial in-thread solving is kept for single-request batches
        and for the default ``max_workers=None`` configuration.
        """
        if self.max_workers is None or self.max_workers <= 1 or batch_len <= 1:
            return None
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Never fork: the service process is multithreaded (HTTP handler
            # threads + this worker), and a forked child inheriting a lock
            # held mid-operation by another thread deadlocks.  forkserver /
            # spawn re-import the package in the children, which requests
            # survive (they are picklable frozen dataclasses by design).
            available = multiprocessing.get_all_start_methods()
            method = "forkserver" if "forkserver" in available else "spawn"
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context(method),
            )
        return self._executor

    def _worker_loop(self) -> None:
        while not self._closed:
            try:
                self.process_once(block=True, timeout=0.1)
            except Exception:  # pragma: no cover - defensive: keep serving
                continue

    # -- lifecycle / stats -----------------------------------------------------

    def queue_depth(self) -> int:
        """Number of fingerprints currently in flight (queued or solving)."""
        with self._lock:
            return len(self._inflight)

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun (new work is being refused).

        Layered components (the session manager) consult this so their own
        admission tracks the service's lifecycle instead of duplicating it.
        """
        with self._lock:
            return self._draining or self._closed

    def health(self) -> Dict[str, object]:
        """Cheap liveness snapshot (the ``GET /healthz`` payload).

        Unlike :meth:`stats` this is meant for *frequent* polling — the
        cluster router reads it to decide shedding and routing — so it
        carries the queue depth and drain state plus a small store summary,
        not the full counter set.
        """
        store_stats = self.store.stats()
        with self._lock:
            if self._closed:
                status = "closed"
            elif self._draining:
                status = "draining"
            else:
                status = "ok"
            return {
                "status": status,
                "queue_depth": len(self._inflight),
                "max_pending": self.max_pending,
                "shed": self._shed,
                "jobs_tracked": len(self._jobs),
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
                "store": {
                    key: store_stats[key]
                    for key in ("size", "capacity", "disk_entries", "hit_rate")
                },
            }

    def stats(self) -> Dict[str, object]:
        """Service counters plus the store's hit/miss/eviction stats."""
        with self._lock:
            return {
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "rejected": self._rejected,
                "shed": self._shed,
                "draining": self._draining,
                "deduped_inflight": self._deduped,
                "pending": len(self._inflight),
                "batches": self._batches,
                "batched_requests": self._batched_requests,
                "largest_batch": self._largest_batch,
                "mean_batch": (
                    self._batched_requests / self._batches if self._batches else 0.0
                ),
                "store_put_failures": self._store_put_failures,
                "store": self.store.stats(),
            }

    def drain(self, timeout: Optional[float] = 30.0, poll: float = 0.05) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight work, close.

        New solves are refused with :class:`ServiceDrainingError` from the
        moment this is called (cache hits and dedupe attaches still serve),
        the batch worker keeps draining the queue, and once nothing is in
        flight — or ``timeout`` elapses — the service closes.  Results are
        flushed to the store as each flight retires (store writes are
        synchronous), so a drained worker leaves the shared disk tier
        complete for its successors.

        Returns ``True`` when everything in flight finished inside the
        timeout; ``False`` when :meth:`close` had to fail leftovers.
        """
        with self._lock:
            self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = False
        while True:
            with self._lock:
                if not self._inflight:
                    drained = True
                    break
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(poll)
        self.close()
        return drained

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, join the batch worker, fail whatever is left.

        Jobs still queued (or mid-solve past the join timeout) are marked
        failed with a ``ServiceClosedError`` message, so ``result()``
        callers wake up instead of waiting on work that will never run.
        """
        with self._lock:
            self._closed = True
        if self._worker is not None:
            self._worker.join(timeout)
            self._worker = None
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        with self._lock:
            leftovers = [
                self._jobs[job_id]
                for flight in self._inflight.values()
                for job_id in flight.job_ids
            ]
            self._inflight.clear()
        for job in leftovers:
            self._fail_job(job, "service closed before the solve ran")

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
