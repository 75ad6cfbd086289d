"""Anytime portfolio racing with deterministic winners.

The racer runs the top-``race`` candidates of a selection policy's ranking
on the *whole* instance, tracks the best-so-far incumbent, and stops early
once an incumbent is provably good enough (within ``accept_factor`` of the
model-priced lower bound).  It is the speculative-execution counterpart of
the engine's sequential portfolio: same candidates, same cost comparison,
but concurrent when given an executor and interruptible by a shared
``deadline``.

**Determinism contract.**  Repeated races on the same request return
bit-identical winning schedules, whatever the executor's timing, because
the winner never depends on *when* candidates finish — only on *what* they
return:

* Acceptance is resolved in rank order: candidate ``j`` can only be
  accepted once every candidate ranked before it has been resolved
  (finished or failed), and the first acceptable candidate in rank order
  wins.  A faster-but-later-ranked acceptable candidate never steals the
  win.
* When no candidate is acceptable and all complete, the winner is the
  minimum by ``(cost, rank)`` — a pure function of the results.
* The only timing-dependent outcome is deadline truncation (the winner is
  then the best *finished* candidate).  Truncated reports are flagged
  ``budget_exhausted`` and marked ``decisive=False``, and the service
  layer never caches non-decisive results.

**Safety contract.**  Algorithms return unverified schedules, so the racer
runs :func:`~busytime.core.schedule.verify_schedule` (the independent
slow-path oracle) exactly once on every candidate that finishes — the
deadline fallback and the single-machine shortcut included.  A candidate
that raises, or whose schedule the oracle rejects, is recorded as
``failed`` and can never become the incumbent: a poisoned candidate costs
its own slot, nothing else.  Only verified candidates can win, so the
winner gets no second pass.  Certificates follow the engine's transfer
rule: the winner's proven ratio is the best guarantee among the candidates
it provably undercuts, never a prediction.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Executor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Tuple

from ..algorithms.base import get_scheduler
from ..core.instance import Instance
from ..core.objectives import CostModel
from ..core.schedule import Schedule, verify_schedule
from ..engine.policy import SINGLE_MACHINE, get_policy
from ..engine.report import RaceCandidate, RaceOutcome, SolveReport
from ..engine.request import RequestValidationError, SolveRequest

__all__ = ["DEFAULT_ACCEPT_FACTOR", "race_candidates"]

#: Default early-acceptance factor: accept an incumbent only when it
#: *matches* the model-priced lower bound (i.e. is provably optimal).
#: Callers trading quality for latency raise it (1.1 accepts anything
#: within 10% of the bound).
DEFAULT_ACCEPT_FACTOR = 1.0

_EPS = 1e-9


def _race_worker(
    name: str, instance: Instance, model: Optional[CostModel] = None
) -> Tuple[Schedule, float]:
    """Run one registered candidate; picklable for process-pool executors."""
    started = time.perf_counter()
    schedule = get_scheduler(name).schedule_under(instance, model)
    return schedule, time.perf_counter() - started


class _Entry:
    """Mutable per-candidate race bookkeeping (frozen into RaceCandidate)."""

    __slots__ = ("name", "rank", "status", "started", "wall", "cost", "schedule")

    def __init__(self, name: str, rank: int) -> None:
        self.name = name
        self.rank = rank
        self.status = "pending"
        self.started = False
        self.wall: Optional[float] = None
        self.cost: Optional[float] = None
        self.schedule: Optional[Schedule] = None

    def freeze(self, winner: bool) -> RaceCandidate:
        return RaceCandidate(
            algorithm=self.name,
            rank=self.rank,
            status=self.status,
            started=self.started,
            wall_time=self.wall,
            cost=self.cost,
            winner=winner,
        )


class _Race:
    """One race in flight: incumbent, timeline and the acceptance test."""

    def __init__(self, model: CostModel, instance: Instance, accept_factor: float):
        self.model = model
        self.clock_start = time.monotonic()
        self.lower_bound = model.lower_bound(instance)
        self.accept_cost = accept_factor * self.lower_bound
        self.incumbent: Optional[_Entry] = None
        self.timeline: List[Tuple[float, float]] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.clock_start

    def record_finish(self, entry: _Entry, schedule: Schedule, wall: float) -> None:
        """Verify and book one finished candidate (failed if infeasible)."""
        entry.started = True
        entry.wall = wall
        try:
            verify_schedule(schedule)
        except Exception:  # noqa: BLE001 - a poisoned candidate loses its slot
            entry.status = "failed"
            return
        entry.status = "finished"
        entry.cost = self.model.schedule_cost(schedule)
        entry.schedule = schedule
        if self.incumbent is None or entry.cost < self.incumbent.cost - _EPS:
            self.incumbent = entry
            self.timeline.append((self.elapsed(), entry.cost))

    def acceptable(self, entry: _Entry) -> bool:
        return entry.status == "finished" and entry.cost <= self.accept_cost + _EPS


def race_candidates(
    request: SolveRequest,
    policy_name: str,
    model: CostModel,
    executor: Optional[Executor] = None,
    accept_factor: float = DEFAULT_ACCEPT_FACTOR,
) -> SolveReport:
    """Race the policy's top-``request.race`` candidates on the instance.

    With ``executor=None`` candidates run serially in rank order (still
    honouring the deadline and early acceptance); otherwise one task per
    candidate is submitted up front and results are *collected* in rank
    order, which is what keeps the winner independent of completion timing.
    The returned report carries the per-candidate outcome table and the
    incumbent timeline in :attr:`~busytime.engine.report.SolveReport.race`;
    the engine fills in the lower bound / objective tail exactly as for any
    other solve.
    """
    instance = request.instance
    deadline = request.deadline
    policy = get_policy(policy_name)
    ranked = policy.rank(instance, request.objective, model=model)
    if not ranked:
        raise RequestValidationError(
            f"no registered algorithm covers objective {request.objective!r} on "
            f"instance {instance.name or '(unnamed)'}"
            + (" (instance carries capacity demands)" if instance.has_demands else "")
        )
    if ranked[0] == SINGLE_MACHINE:
        return _single_machine_report(request, policy_name, model, accept_factor)

    entries = [_Entry(name, rank) for rank, name in enumerate(ranked[: request.race])]
    race = _Race(model, instance, accept_factor)
    accepted: Optional[_Entry] = None
    truncated = False

    if executor is None:
        accepted, truncated = _run_serial(entries, instance, race, deadline)
    else:
        accepted, truncated = _run_concurrent(entries, instance, race, deadline, executor)

    winner = accepted
    fallback = False
    if winner is None:
        finished = [e for e in entries if e.status == "finished"]
        if finished:
            winner = min(finished, key=lambda e: (e.cost, e.rank))
    if winner is None:
        # Nothing finished before the deadline: solve synchronously with the
        # guarantee of last resort so the race still answers (the report
        # stays flagged budget_exhausted).
        fallback = True
        name = (
            "first_fit"
            if get_scheduler("first_fit").handles(instance, request.objective)
            else entries[0].name
        )
        entry = _Entry(name, len(entries))
        started = time.perf_counter()
        schedule = get_scheduler(name).schedule_under(instance, model)
        race.record_finish(entry, schedule, time.perf_counter() - started)
        if entry.status != "finished":
            raise RuntimeError(
                f"race fallback algorithm {name!r} produced an infeasible schedule"
            )
        entries.append(entry)
        winner = entry

    proven: Optional[float] = None
    if model.preserves_busy_time_ratios and not instance.has_demands:
        ratios = []
        for entry in entries:
            if entry.status != "finished":
                continue
            # A candidate's guarantee transfers to the winner only when the
            # winner costs no more than that candidate did.
            if entry is not winner and entry.cost < winner.cost - _EPS:
                continue
            ratio = get_scheduler(entry.name).approximation_ratio
            if ratio is not None and get_scheduler(entry.name).handles(
                instance, request.objective
            ):
                ratios.append(ratio)
        proven = min(ratios, default=None)

    outcome = RaceOutcome(
        candidates=tuple(e.freeze(winner=e is winner) for e in entries),
        deadline=deadline,
        accept_factor=accept_factor,
        decisive=not truncated,
        fallback=fallback,
        incumbent_timeline=tuple(race.timeline),
    )
    return SolveReport(
        schedule=winner.schedule,
        algorithm=winner.name,
        policy=policy_name,
        portfolio=request.portfolio,
        lower_bound=0.0,
        proven_ratio=proven,
        budget_exhausted=truncated,
        race=outcome,
    )


def _run_serial(
    entries: List[_Entry],
    instance: Instance,
    race: _Race,
    deadline: Optional[float],
) -> Tuple[Optional[_Entry], bool]:
    """Rank-order serial execution (the deterministic reference path)."""
    for index, entry in enumerate(entries):
        if deadline is not None and race.elapsed() >= deadline:
            for later in entries[index:]:
                later.status = "cancelled"
            return None, True
        entry.started = True
        started = time.perf_counter()
        try:
            schedule = get_scheduler(entry.name).schedule_under(instance, race.model)
        except Exception:  # noqa: BLE001 - a poisoned candidate loses its slot
            entry.status = "failed"
            entry.wall = time.perf_counter() - started
            continue
        race.record_finish(entry, schedule, time.perf_counter() - started)
        if race.acceptable(entry):
            for later in entries[index + 1 :]:
                later.status = "cancelled"
            return entry, False
    return None, False


def _run_concurrent(
    entries: List[_Entry],
    instance: Instance,
    race: _Race,
    deadline: Optional[float],
    executor: Executor,
) -> Tuple[Optional[_Entry], bool]:
    """Submit every candidate up front; resolve results in rank order."""
    futures = {
        entry.rank: executor.submit(_race_worker, entry.name, instance, race.model)
        for entry in entries
    }
    accepted: Optional[_Entry] = None
    truncated = False
    for entry in entries:
        future = futures[entry.rank]
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - race.elapsed())
        try:
            schedule, wall = future.result(timeout=timeout)
        except FutureTimeoutError:
            truncated = True
            break
        except CancelledError:
            entry.status = "cancelled"
            continue
        except Exception:  # noqa: BLE001 - a poisoned candidate loses its slot
            entry.started = True
            entry.status = "failed"
            continue
        race.record_finish(entry, schedule, wall)
        if race.acceptable(entry):
            accepted = entry
            break

    # Settle the not-yet-resolved tail.  After an early acceptance every
    # later candidate is cancelled even if its result already arrived — the
    # first-acceptable-in-rank-order rule is what makes winners
    # timing-independent.  After a deadline truncation, results that *did*
    # arrive still count (best-finished-so-far is the anytime answer).
    for entry in entries:
        if entry.status != "pending":
            continue
        future = futures[entry.rank]
        never_ran = future.cancel()
        if truncated and not never_ran and future.done():
            try:
                schedule, wall = future.result(timeout=0)
                race.record_finish(entry, schedule, wall)
            except Exception:  # noqa: BLE001
                entry.started = True
                entry.status = "failed"
            continue
        entry.started = not never_ran
        entry.status = "cancelled"
    return accepted, truncated


def _single_machine_report(
    request: SolveRequest,
    policy_name: str,
    model: CostModel,
    accept_factor: float,
) -> SolveReport:
    """The structural shortcut: one machine is optimal, nothing to race."""
    from ..engine.core import _single_machine_schedule

    started = time.perf_counter()
    schedule = _single_machine_schedule(request.instance)
    wall = time.perf_counter() - started
    verify_schedule(schedule)
    cost = model.schedule_cost(schedule)
    candidate = RaceCandidate(
        algorithm=SINGLE_MACHINE,
        rank=0,
        status="finished",
        started=True,
        wall_time=wall,
        cost=cost,
        winner=True,
    )
    outcome = RaceOutcome(
        candidates=(candidate,),
        deadline=request.deadline,
        accept_factor=accept_factor,
        decisive=True,
        fallback=False,
        incumbent_timeline=((wall, cost),),
    )
    return SolveReport(
        schedule=schedule,
        algorithm=SINGLE_MACHINE,
        policy=policy_name,
        portfolio=request.portfolio,
        lower_bound=0.0,
        proven_ratio=1.0,
        budget_exhausted=False,
        race=outcome,
    )
