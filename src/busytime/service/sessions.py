"""Streaming solve sessions: stateful event-driven scheduling in the service.

A *session* is a long-lived scheduling conversation: a client creates it
with the static knobs of a dynamic workload (parallelism bound ``g``, the
replay horizon, a migration policy) and then streams arrive/depart events
in batches, reading back the live assignment and realized-cost accounting
at any point.  Under the hood each session owns a streaming
:class:`~busytime.extensions.dynamic.Simulator`
(:meth:`~busytime.extensions.dynamic.Simulator.streaming`) — the *same*
replay core the offline simulator runs — so a session fed a trace event by
event lands on bit-identical placements, migrations and realized cost to
the offline replay of that trace.  The differential test suite pins this.

Three properties carry the production story:

**Idempotent event offsets.**  Every session counts applied events; a batch
names the offset of its first event (``first_offset``; omitted means
"append").  A batch at or before the applied offset is a duplicate delivery
— already-applied events are skipped, never re-applied — and a batch past
it is a gap, refused with :class:`SessionConflictError` carrying the offset
the server expects.  Retrying clients and at-least-once delivery are
therefore safe by construction.

**Checkpointed recovery.**  After every ``checkpoint_every`` applied events
(default 1: checkpoint *before* acknowledging) the session's event log and
config are published as a JSON document through the
:class:`~busytime.service.store.ResultStore` document API.  A manager that
does not know a session id rebuilds it from the checkpoint by replaying
the logged events through a fresh streaming simulator — deterministic, so
the recovered session is indistinguishable from the lost one.  With the
default cadence an acknowledged event is by definition durable: the
fault-injection kill drill asserts a worker killed mid-session loses zero
acknowledged events on the failover owner and never double-applies one.

**Multi-tenant admission.**  Session counts (global and per tenant), batch
sizes and per-tenant event rates (token bucket) are capped;
:class:`SessionLimitError` carries a retry hint the HTTP frontend turns
into ``429 Retry-After``, and a draining
:class:`~busytime.service.SolveService` refuses new sessions and new
events with the same 503 the solve path uses.  Over-cap or invalid batches
are probed against a :class:`~busytime.core.events.TraceValidator` snapshot
*before* any mutation, so a refused batch never partially applies.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.events import TraceEvent, TraceValidationError, TraceValidator
from ..extensions.dynamic import (
    MigrationBudget,
    NeverMigrate,
    RollingHorizon,
    SimulationPolicy,
    Simulator,
)
from ..io import trace_event_from_dict, trace_event_to_dict
from .service import ServiceDrainingError, SolveService
from .store import ResultStore

__all__ = [
    "Session",
    "SessionConfig",
    "SessionConflictError",
    "SessionLimitError",
    "SessionLimits",
    "SessionManager",
    "SessionNotFoundError",
    "SessionValidationError",
    "session_policy",
]

#: Checkpoint document format stamp (stored via the ResultStore doc API).
_CHECKPOINT_FORMAT = "busytime-session"
_CHECKPOINT_VERSION = 1

_POLICIES = ("never_migrate", "rolling_horizon", "migration_budget")


class SessionNotFoundError(KeyError):
    """No live session and no checkpoint under the requested id."""


class SessionConflictError(RuntimeError):
    """A batch's ``first_offset`` is ahead of the applied offset (a gap).

    Carries :attr:`expected_offset` so the client can resync and resend.
    """

    def __init__(self, message: str, expected_offset: int):
        super().__init__(message)
        self.expected_offset = expected_offset


class SessionLimitError(RuntimeError):
    """An admission cap refused the operation (retry after backing off)."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class SessionValidationError(ValueError):
    """A malformed config or event batch (nothing was applied)."""


def session_policy(
    policy: str,
    replan_period: Optional[float],
    budget: int,
    algorithm: Optional[str],
    placement: str,
) -> SimulationPolicy:
    """Build the :mod:`~busytime.extensions.dynamic` policy a config names.

    Every refusal — including a policy constructor's own ``ValueError``
    (unknown placement, non-positive period, negative budget) — is a
    :class:`SessionValidationError`, which the HTTP frontend answers with
    a 400.
    """
    if policy not in _POLICIES:
        raise SessionValidationError(
            f"unknown policy {policy!r}; available: {', '.join(_POLICIES)}"
        )
    if policy != "never_migrate" and replan_period is None:
        raise SessionValidationError(f"policy {policy!r} needs a replan_period")
    try:
        if policy == "never_migrate":
            return NeverMigrate(placement=placement)
        if policy == "rolling_horizon":
            return RollingHorizon(
                replan_period, algorithm=algorithm, placement=placement
            )
        return MigrationBudget(
            replan_period, budget=budget, algorithm=algorithm, placement=placement
        )
    except ValueError as exc:
        raise SessionValidationError(str(exc)) from None


@dataclass(frozen=True)
class SessionConfig:
    """The static knobs of one streaming session.

    ``horizon`` plays the role a trace's own horizon plays offline: replans
    fire at ``horizon[0] + k * replan_period`` and realized cost settles at
    ``horizon[1]`` when the session closes.  To reproduce an offline replay
    exactly, pass the trace's ``horizon``.
    """

    g: int
    horizon: Tuple[float, float]
    policy: str = "never_migrate"
    replan_period: Optional[float] = None
    budget: int = 4
    algorithm: Optional[str] = "first_fit"
    placement: str = "first_fit"
    oracle_check_every: Optional[int] = None
    #: checkpoint after every this many applied events; 1 (the default)
    #: means checkpoint-before-ack — an acknowledged event is durable.
    checkpoint_every: int = 1
    tenant: str = "default"
    name: str = ""
    #: advisory per-event decision budget; violations are counted, not fatal
    latency_slo_ms: Optional[float] = None

    def validate(self) -> None:
        if self.g < 1:
            raise SessionValidationError(f"g must be >= 1, got {self.g}")
        lo, hi = self.horizon
        if not hi >= lo:
            raise SessionValidationError(
                f"horizon end must be >= start, got {self.horizon}"
            )
        if self.checkpoint_every < 1:
            raise SessionValidationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.latency_slo_ms is not None and not self.latency_slo_ms > 0:
            raise SessionValidationError(
                f"latency_slo_ms must be positive, got {self.latency_slo_ms}"
            )
        # Fail fast on a policy the simulator would refuse at first event.
        session_policy(
            self.policy, self.replan_period, self.budget,
            self.algorithm, self.placement,
        )

    def make_policy(self) -> SimulationPolicy:
        return session_policy(
            self.policy, self.replan_period, self.budget,
            self.algorithm, self.placement,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "g": self.g,
            "horizon": list(self.horizon),
            "policy": self.policy,
            "replan_period": self.replan_period,
            "budget": self.budget,
            "algorithm": self.algorithm,
            "placement": self.placement,
            "oracle_check_every": self.oracle_check_every,
            "checkpoint_every": self.checkpoint_every,
            "tenant": self.tenant,
            "name": self.name,
            "latency_slo_ms": self.latency_slo_ms,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "SessionConfig":
        if not isinstance(doc, Mapping):
            raise SessionValidationError("session config must be a JSON object")
        unknown = set(doc) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise SessionValidationError(
                f"unknown session config fields: {sorted(unknown)}"
            )
        if "g" not in doc or "horizon" not in doc:
            raise SessionValidationError('session config needs "g" and "horizon"')
        horizon = doc["horizon"]
        if (
            not isinstance(horizon, Sequence)
            or isinstance(horizon, (str, bytes))
            or len(horizon) != 2
        ):
            raise SessionValidationError('"horizon" must be a [start, end] pair')
        try:
            config = cls(
                g=int(doc["g"]),  # type: ignore[arg-type]
                horizon=(float(horizon[0]), float(horizon[1])),
                policy=str(doc.get("policy", "never_migrate")),
                replan_period=(
                    None if doc.get("replan_period") is None
                    else float(doc["replan_period"])  # type: ignore[arg-type]
                ),
                budget=int(doc.get("budget", 4)),  # type: ignore[arg-type]
                algorithm=(
                    None if doc.get("algorithm", "first_fit") is None
                    else str(doc.get("algorithm", "first_fit"))
                ),
                placement=str(doc.get("placement", "first_fit")),
                oracle_check_every=(
                    None if doc.get("oracle_check_every") is None
                    else int(doc["oracle_check_every"])  # type: ignore[arg-type]
                ),
                checkpoint_every=int(doc.get("checkpoint_every", 1)),  # type: ignore[arg-type]
                tenant=str(doc.get("tenant", "default")),
                name=str(doc.get("name", "")),
                latency_slo_ms=(
                    None if doc.get("latency_slo_ms") is None
                    else float(doc["latency_slo_ms"])  # type: ignore[arg-type]
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SessionValidationError(f"malformed session config: {exc}") from None
        config.validate()
        return config


class Session:
    """One live streaming session: a validator-fronted streaming simulator.

    All mutation goes through :meth:`apply`; state reads take the same lock
    so concurrent posters and readers see consistent snapshots.  The event
    log is retained verbatim — it *is* the checkpoint (event sourcing), and
    deterministic replay of it reconstructs the session exactly.
    """

    def __init__(self, session_id: str, config: SessionConfig, engine=None):
        self.id = session_id
        self.config = config
        self.lock = threading.RLock()
        self.sim = Simulator.streaming(
            g=config.g,
            policy=config.make_policy(),
            horizon=config.horizon,
            oracle_check_every=config.oracle_check_every,
            engine=engine,
            name=config.name or session_id,
        )
        self.validator = TraceValidator()
        self.events: List[TraceEvent] = []
        self.applied = 0  # == the next expected first_offset
        self.checkpointed_at = 0  # applied offset of the last checkpoint
        self.closed = False
        self.report = None  # SimulationReport once closed
        self.slo_violations = 0
        self.decision_seconds = 0.0  # total wall time inside sim.feed

    # -- event application ----------------------------------------------------

    def prepare(
        self, rows: Sequence[Mapping[str, object]], first_offset: Optional[int]
    ) -> List[TraceEvent]:
        """Parse + dedupe + probe a batch; the events left to apply.

        Caller must hold :attr:`lock`.  Raises without mutating anything:
        the probe runs against a *copy* of the validator, so a refused
        batch — malformed rows, out-of-order events, duplicate arrivals —
        never partially applies.
        """
        if self.closed:
            raise SessionValidationError(f"session {self.id} is closed")
        offset = self.applied if first_offset is None else first_offset
        if offset > self.applied:
            raise SessionConflictError(
                f"batch starts at offset {offset} but session {self.id} has "
                f"applied {self.applied} events; resend from {self.applied}",
                expected_offset=self.applied,
            )
        try:
            events = [trace_event_from_dict(row) for row in rows]
        except (TypeError, ValueError, KeyError) as exc:
            raise SessionValidationError(f"malformed event row: {exc}") from None
        # Duplicate delivery of an already-applied prefix: skip, don't re-apply.
        events = events[self.applied - offset:]
        probe = self.validator.copy()
        try:
            for event in events:
                probe.feed(event)
        except TraceValidationError as exc:
            raise SessionValidationError(str(exc)) from None
        return events

    def apply(
        self,
        rows: Sequence[Mapping[str, object]],
        first_offset: Optional[int] = None,
    ) -> Dict[str, object]:
        """Apply one batch (idempotent by offset) and return the ack payload."""
        with self.lock:
            events = self.prepare(rows, first_offset)
            started = time.perf_counter()
            for event in events:
                self.validator.feed(event)
                self.sim.feed(event)
                self.events.append(event)
                self.applied += 1
            elapsed = time.perf_counter() - started
            self.decision_seconds += elapsed
            slo = self.config.latency_slo_ms
            if slo is not None and events and (
                elapsed / len(events) > slo / 1000.0
            ):
                self.slo_violations += 1
            return {
                "session_id": self.id,
                "applied": self.applied,
                "accepted": len(events),
                "duplicates": len(rows) - len(events),
                "live_jobs": len(self.validator.live_job_ids),
                "machines": self.sim.builder.num_machines,
            }

    # -- reads -----------------------------------------------------------------

    def assignment(self) -> Dict[str, object]:
        """The live schedule: job -> machine, plus realized-cost accounting."""
        with self.lock:
            placed = self.sim.live_assignment()
            return {
                "session_id": self.id,
                "applied": self.applied,
                "clock": self.sim._clock,
                "assignment": {str(job_id): m for job_id, m in sorted(placed.items())},
                "machines": self.sim.builder.num_machines,
                "live_jobs": len(placed),
                "realized_cost": self.sim.realized_cost_so_far(),
                "migrations": self.sim._migrations,
                "replans": self.sim._replans,
                "failed_replans": self.sim._failed_replans,
                "closed": self.closed,
            }

    def status(self) -> Dict[str, object]:
        with self.lock:
            return {
                "session_id": self.id,
                "tenant": self.config.tenant,
                "policy": self.config.policy,
                "applied": self.applied,
                "checkpointed_at": self.checkpointed_at,
                "live_jobs": len(self.validator.live_job_ids),
                "machines": self.sim.builder.num_machines,
                "closed": self.closed,
                "slo_violations": self.slo_violations,
                "decision_seconds": round(self.decision_seconds, 6),
            }

    # -- checkpointing ---------------------------------------------------------

    def checkpoint_document(self) -> Dict[str, object]:
        """The event-sourced snapshot published through the store."""
        with self.lock:
            return {
                "format": _CHECKPOINT_FORMAT,
                "version": _CHECKPOINT_VERSION,
                "session_id": self.id,
                "config": self.config.to_dict(),
                "applied": self.applied,
                "closed": self.closed,
                "events": [trace_event_to_dict(e) for e in self.events],
            }

    @classmethod
    def from_checkpoint(cls, doc: Mapping[str, object], engine=None) -> "Session":
        """Rebuild a session by replaying its checkpointed event log.

        A document that does not replay — not a checkpoint, another
        version, no ``config``, an event row that is not an object — is
        refused with :class:`SessionValidationError` naming the session.
        """
        if not isinstance(doc, Mapping) or doc.get("format") != _CHECKPOINT_FORMAT:
            raise SessionValidationError("not a session checkpoint document")
        if doc.get("version") != _CHECKPOINT_VERSION:
            raise SessionValidationError(
                f"unsupported session checkpoint version {doc.get('version')!r}"
            )
        try:
            return cls._replay(doc, engine)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # SessionValidationError is a ValueError: a refused event row
            # or an inconsistent offset lands here too.
            reason = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
            raise SessionValidationError(
                f"checkpoint of session {doc.get('session_id')!r} does not replay: "
                f"{reason}"
            ) from None

    @classmethod
    def _replay(cls, doc: Mapping[str, object], engine) -> "Session":
        config = SessionConfig.from_dict(doc["config"])  # type: ignore[arg-type]
        session = cls(str(doc["session_id"]), config, engine=engine)
        rows = doc.get("events", [])
        session.apply(rows, first_offset=0)  # type: ignore[arg-type]
        if int(doc.get("applied", len(rows))) != session.applied:  # type: ignore[arg-type]
            raise SessionValidationError(
                f"checkpoint for {session.id} is internally inconsistent: "
                f"log length {session.applied} != recorded offset {doc.get('applied')}"
            )
        session.checkpointed_at = session.applied
        if doc.get("closed"):
            session.close()
        return session

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> Dict[str, object]:
        """Settle realized cost to the horizon end; the final report payload.

        Closing is idempotent — the settled report is kept and re-served.
        """
        with self.lock:
            if not self.closed:
                self.report = self.sim.settle()
                self.closed = True
            report = self.report
            assert report is not None
            return {
                "session_id": self.id,
                "applied": self.applied,
                "policy": report.policy,
                "arrivals": report.arrivals,
                "departures": report.departures,
                "early_departures": report.early_departures,
                "migrations": report.migrations,
                "replans": report.replans,
                "failed_replans": report.failed_replans,
                "machines_opened": report.machines_opened,
                "realized_cost": report.realized_cost,
                "oracle_checks": report.oracle_checks,
                "closed": True,
            }


@dataclass(frozen=True)
class SessionLimits:
    """Admission caps for the session manager (any may be ``None`` = off)."""

    max_sessions: Optional[int] = 4096
    max_sessions_per_tenant: Optional[int] = 1024
    max_events_per_batch: Optional[int] = 10_000
    #: per-tenant sustained event rate (token bucket); None disables
    events_per_second: Optional[float] = None
    #: token-bucket burst capacity, in events
    burst: float = 1000.0


@dataclass
class _TokenBucket:
    rate: float
    capacity: float
    tokens: float
    last: float

    def take(self, amount: float, now: float) -> Optional[float]:
        """Deduct ``amount`` tokens; a retry-after hint when short."""
        self.tokens = min(self.capacity, self.tokens + (now - self.last) * self.rate)
        self.last = now
        if amount <= self.tokens:
            self.tokens -= amount
            return None
        return max((amount - self.tokens) / self.rate, 1e-3)


class SessionManager:
    """Registry + admission + checkpointing for streaming sessions.

    Layered on a :class:`~busytime.service.SolveService` when given one —
    the engine, result store and drain state are shared, so ``drain()`` on
    the service refuses new sessions here too — but runs standalone (own
    store) for embedding and tests.

    ``time_fn`` feeds the per-tenant token buckets; tests inject a fake
    clock for deterministic rate-limit assertions.
    """

    def __init__(
        self,
        service: Optional[SolveService] = None,
        engine=None,
        store: Optional[ResultStore] = None,
        limits: Optional[SessionLimits] = None,
        time_fn: Callable[[], float] = time.monotonic,
    ):
        self.service = service
        if engine is None and service is not None:
            engine = service.engine
        self.engine = engine
        if store is None:
            store = service.store if service is not None else ResultStore()
        self.store = store
        self.limits = limits if limits is not None else SessionLimits()
        self.time_fn = time_fn
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._buckets: Dict[str, _TokenBucket] = {}
        self._created = 0
        self._resumed = 0
        self._refreshed = 0
        self._events_applied = 0
        self._conflicts = 0
        self._rate_limited = 0
        self._checkpoints = 0
        self._closed_sessions = 0

    # -- admission helpers -----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self.service.draining if self.service is not None else False

    def _checkpoint_key(self, session_id: str) -> str:
        return f"session-{session_id}"

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise ServiceDrainingError(
                "service is draining; open sessions elsewhere"
            )

    def _admit_create(self, tenant: str) -> None:
        limits = self.limits
        live = [s for s in self._sessions.values() if not s.closed]
        if limits.max_sessions is not None and len(live) >= limits.max_sessions:
            raise SessionLimitError(
                f"session count is at the cap of {limits.max_sessions}; "
                f"close sessions or retry later"
            )
        if limits.max_sessions_per_tenant is not None:
            mine = sum(1 for s in live if s.config.tenant == tenant)
            if mine >= limits.max_sessions_per_tenant:
                raise SessionLimitError(
                    f"tenant {tenant!r} is at its session cap of "
                    f"{limits.max_sessions_per_tenant}"
                )

    def _admit_events(self, tenant: str, count: int) -> None:
        limits = self.limits
        if (
            limits.max_events_per_batch is not None
            and count > limits.max_events_per_batch
        ):
            raise SessionLimitError(
                f"batch of {count} events is above the per-batch cap of "
                f"{limits.max_events_per_batch}; split it",
            )
        if limits.events_per_second is None:
            return
        with self._lock:
            bucket = self._buckets.get(tenant)
            now = self.time_fn()
            if bucket is None:
                bucket = _TokenBucket(
                    rate=limits.events_per_second,
                    capacity=limits.burst,
                    tokens=limits.burst,
                    last=now,
                )
                self._buckets[tenant] = bucket
            hint = bucket.take(float(count), now)
        if hint is not None:
            with self._lock:
                self._rate_limited += 1
            raise SessionLimitError(
                f"tenant {tenant!r} is over its event rate of "
                f"{limits.events_per_second}/s; retry after {hint:.3g}s",
                retry_after=hint,
            )

    # -- lifecycle -------------------------------------------------------------

    def create(
        self,
        config: SessionConfig,
        session_id: Optional[str] = None,
    ) -> Session:
        """Admit and register a new session (checkpointed immediately)."""
        config.validate()
        self._refuse_if_draining()
        if session_id is None:
            session_id = uuid.uuid4().hex
        elif not ResultStore._DOC_KEY_OK(session_id):
            raise SessionValidationError(
                f"invalid session id {session_id!r} (want [A-Za-z0-9._-]+)"
            )
        with self._lock:
            if session_id in self._sessions:
                raise SessionValidationError(
                    f"session id {session_id!r} already exists"
                )
            self._admit_create(config.tenant)
            session = Session(session_id, config, engine=self.engine)
            self._sessions[session_id] = session
            self._created += 1
        # The empty checkpoint claims the id durably, so a failover owner
        # distinguishes "new, no events yet" from "never existed".
        self._write_checkpoint(session)
        return session

    def get(self, session_id: str) -> Session:
        """The live session, resumed from its checkpoint when unknown.

        Resume-on-miss is the failover handoff: a worker that inherits a
        shard finds the session id it never saw in the shared store and
        replays the event log into a fresh, identical session.

        A *known* session is still reconciled against the store: when a
        peer worker has checkpointed past this copy (the shard failed over
        and came back, or a stale replica is being read), the local copy is
        replaced by a replay of the durable log.  On one worker the
        checkpoint never runs ahead of its own session, so the check is a
        no-op outside genuine cross-worker handoffs.
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is not None:
            doc = self.store.get_document(self._checkpoint_key(session_id))
            try:
                stale = doc is not None and (
                    int(doc.get("applied", 0)) > session.applied
                    or (bool(doc.get("closed")) and not session.closed)
                )
            except (AttributeError, TypeError, ValueError):
                # A damaged checkpoint cannot be ahead of the live copy;
                # the next batch's checkpoint overwrites it.
                stale = False
            if not stale:
                return session
            fresh = Session.from_checkpoint(doc, engine=self.engine)
            with self._lock:
                if self._sessions.get(session_id) is session:
                    self._sessions[session_id] = fresh
                    self._refreshed += 1
                return self._sessions[session_id]
        doc = self.store.get_document(self._checkpoint_key(session_id))
        if doc is None:
            raise SessionNotFoundError(session_id)
        resumed = Session.from_checkpoint(doc, engine=self.engine)
        with self._lock:
            # A concurrent resume may have won the race; keep the winner so
            # both callers talk to one object.
            session = self._sessions.setdefault(session_id, resumed)
            if session is resumed:
                self._resumed += 1
        return session

    def apply_events(
        self,
        session_id: str,
        rows: Sequence[Mapping[str, object]],
        first_offset: Optional[int] = None,
    ) -> Dict[str, object]:
        """Admission-checked, checkpointed batch application.

        A refused batch (conflict, validation) mutates nothing.  Any other
        exception can leave the live copy part-way through the batch and
        ahead of its checkpoint, so the copy is dropped before the error
        propagates: the next request resumes from the last checkpoint.
        """
        self._refuse_if_draining()
        session = self.get(session_id)
        self._admit_events(session.config.tenant, len(rows))
        with session.lock:
            try:
                ack = session.apply(rows, first_offset=first_offset)
                pending = session.applied - session.checkpointed_at
                if ack["accepted"] and pending >= session.config.checkpoint_every:
                    # Durability before acknowledgement (the default cadence
                    # of 1 checkpoints every batch): once the ack leaves, a
                    # killed worker cannot take these events with it.
                    self._write_checkpoint(session)
            except SessionConflictError:
                with self._lock:
                    self._conflicts += 1
                raise
            except SessionValidationError:
                raise
            except Exception:
                with self._lock:
                    if self._sessions.get(session_id) is session:
                        del self._sessions[session_id]
                raise
        with self._lock:
            self._events_applied += int(ack["accepted"])  # type: ignore[arg-type]
        return ack

    def assignment(self, session_id: str) -> Dict[str, object]:
        return self.get(session_id).assignment()

    def status(self, session_id: str) -> Dict[str, object]:
        return self.get(session_id).status()

    def close_session(self, session_id: str) -> Dict[str, object]:
        """Settle the session and publish its final checkpoint."""
        session = self.get(session_id)
        already = session.closed
        payload = session.close()
        self._write_checkpoint(session)
        if not already:
            with self._lock:
                self._closed_sessions += 1
        return payload

    def _write_checkpoint(self, session: Session) -> None:
        doc = session.checkpoint_document()
        self.store.put_document(self._checkpoint_key(session.id), doc)
        with session.lock:
            session.checkpointed_at = int(doc["applied"])  # type: ignore[arg-type]
        with self._lock:
            self._checkpoints += 1

    # -- introspection ---------------------------------------------------------

    def list_sessions(self) -> List[Dict[str, object]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.status() for s in sorted(sessions, key=lambda s: s.id)]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            live = sum(1 for s in self._sessions.values() if not s.closed)
            return {
                "sessions": len(self._sessions),
                "live": live,
                "created": self._created,
                "resumed": self._resumed,
                "refreshed": self._refreshed,
                "closed": self._closed_sessions,
                "events_applied": self._events_applied,
                "conflicts": self._conflicts,
                "rate_limited": self._rate_limited,
                "checkpoints": self._checkpoints,
                "slo_violations": sum(
                    s.slo_violations for s in self._sessions.values()
                ),
            }
