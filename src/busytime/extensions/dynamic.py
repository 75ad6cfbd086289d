"""Dynamic-workload simulation: job departures and rolling re-optimization.

The paper's motivating systems (lightpath provisioning, cloud hosts) have
churn: jobs depart as well as arrive.  This module replays
:class:`~busytime.core.events.DynamicTrace` event sequences — arrivals and
(possibly early) departures — against the mutable machine state of
:class:`~busytime.core.schedule.ScheduleBuilder`, whose ``assign`` /
``unassign`` mutations are both routed through the incrementally maintained
:class:`~busytime.core.events.SweepProfile` per machine.

Three policy shapes are provided, spanning the online/offline spectrum:

* :class:`NeverMigrate` — pure online: place each arrival once (arrival-order
  FirstFit by default) and never revise;
* :class:`RollingHorizon` — every ``period`` time units, re-solve the *live*
  job set through the existing :class:`~busytime.engine.Engine` and migrate
  to the proposed assignment (adopted only when it lowers the projected
  remaining busy time, so replanning never knowingly hurts);
* :class:`MigrationBudget` — rolling horizon with at most ``budget`` moved
  jobs per replan, applied best-savings-first with per-move feasibility
  checks — the price-of-stability knob real systems turn.

Cost is accounted as *realized* busy time: each machine accrues the measure
of the time it actually spent busy under the assignments that held at the
time, integrated epoch by epoch off the maintained profiles
(``covered_measure_in``).  With no early departures and no migrations this
equals the final schedule's total busy time; early departures shrink it,
migrations re-route the future part of a job's interval to its new machine.

``verify_schedule`` stays the slow-path oracle throughout: the simulator
freezes the live sub-schedule on a configurable cadence (and at every
replan and at the end of the trace) and cross-checks every profile-backed
answer, raising
:class:`~busytime.core.schedule.ProfileOracleMismatchError` on drift.

The online schedulers (:data:`ONLINE_ALGORITHMS`) are the no-churn special
case: every job of a static instance arrives at its start time, is placed
immediately and irrevocably under :class:`NeverMigrate`, and never departs.
They run through the same :meth:`Simulator.feed` as trace and session
replay, so the three place every arrival identically.  Offline FirstFit
(Section 2) is not an online algorithm — it sorts by length, which needs
the whole input — so the honest online baselines are arrival-order
FirstFit, BestFit and NextFit; experiment E14 measures their cost against
offline FirstFit and the Observation 1.1 bound.  On proper instances
arrival-order NextFit *is* the Section 3.1 greedy and inherits its
2-approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.bounds import best_lower_bound
from ..core.events import ARRIVE, DynamicTrace, TraceEvent
from ..core.instance import Instance
from ..core.intervals import Job
from ..core.schedule import Schedule, ScheduleBuilder, verify_schedule

__all__ = [
    "SimulationPolicy",
    "NeverMigrate",
    "RollingHorizon",
    "MigrationBudget",
    "SimulationReport",
    "Simulator",
    "simulate",
    "standard_policies",
    "offline_reference",
    "online_first_fit",
    "online_best_fit",
    "online_next_fit",
    "ONLINE_ALGORITHMS",
]


def offline_reference(
    trace: DynamicTrace, engine=None
) -> Tuple[Optional[float], float]:
    """Hindsight comparator of a trace: ``(offline_cost, lower_bound)``.

    The effective instance (each job truncated to the part that actually
    occupied a machine) solved through the engine, plus its Observation 1.1
    bound.  Both depend only on the trace, never on the replay policy, so
    multi-policy panels compute this once and share it.
    """
    effective = trace.effective_instance()
    if effective.n == 0:
        return None, 0.0
    from ..engine import Engine, SolveRequest

    engine = engine if engine is not None else Engine()
    cost = engine.solve(
        SolveRequest(instance=effective, portfolio=False)
    ).schedule.total_busy_time
    return cost, best_lower_bound(effective)


_PLACEMENTS: Dict[str, Callable[[ScheduleBuilder, Job], Optional[int]]] = {
    "first_fit": ScheduleBuilder.first_fitting_machine,
    "best_fit": ScheduleBuilder.best_fitting_machine,
}


class SimulationPolicy:
    """Base policy: place arrivals, optionally replan on a period.

    Subclasses override :meth:`replan` (called by the simulator whenever the
    trace clock crosses a multiple of :attr:`replan_period`) and may replace
    the arrival placement rule.  Policies mutate machine state only through
    the simulator's ``assign``/``unassign``/``migrate`` helpers so every
    move stays on the profile-maintained path.
    """

    name: str = "abstract"
    #: replan every this many time units; ``None`` disables replanning
    replan_period: Optional[float] = None

    def __init__(self, placement: str = "first_fit") -> None:
        try:
            self._place = _PLACEMENTS[placement]
        except KeyError:
            raise ValueError(
                f"unknown placement {placement!r}; available: {sorted(_PLACEMENTS)}"
            ) from None
        self.placement = placement

    def place(self, builder: ScheduleBuilder, job: Job) -> Optional[int]:
        """Machine index for an arriving job, or ``None`` to open a new one."""
        return self._place(builder, job)

    def replan(self, sim: "Simulator", t: float) -> int:
        """Re-optimize at time ``t``; returns the number of migrations applied."""
        return 0


class NeverMigrate(SimulationPolicy):
    """Pure online: irrevocable arrival-order placement, no replanning.

    Fed the arrivals of a static instance this *is*
    :func:`online_first_fit` (or :func:`online_best_fit` with
    ``placement="best_fit"``); over a trace without early departures the
    realized cost equals that schedule's busy time.
    """

    name = "never_migrate"


class RollingHorizon(SimulationPolicy):
    """Periodic re-optimization of the live job set via the solve engine.

    Every ``period`` time units the policy builds the instance of currently
    live jobs, solves it through :class:`busytime.engine.Engine` (with the
    configured algorithm, or full policy dispatch when ``algorithm=None``)
    and migrates to the proposal — but only when the proposal's *remaining*
    busy time (coverage from the replan instant onward) beats the current
    assignment's, so adopting a replan never knowingly increases the
    realized cost.
    """

    name = "rolling_horizon"

    def __init__(
        self,
        period: float,
        algorithm: Optional[str] = "first_fit",
        portfolio: bool = False,
        placement: str = "first_fit",
    ) -> None:
        super().__init__(placement=placement)
        if not period > 0:  # NaN fails too
            raise ValueError(f"replan period must be positive, got {period}")
        self.replan_period = period
        self.algorithm = algorithm
        self.portfolio = portfolio

    # -- engine proposal ----------------------------------------------------

    def propose(self, sim: "Simulator", t: float) -> Optional[Schedule]:
        """Engine solution over the live job set, or ``None``.

        ``None`` when the live set is empty or the engine solve raises: a
        replan without a verified proposal adopts nothing, the way a
        poisoned race candidate loses only its own slot.  A raising solve
        is counted (``SimulationReport.failed_replans``).
        """
        live = sim.live_instance(name=f"{sim.name}@t={t:g}")
        if live.n == 0:
            return None
        from ..engine import SolveRequest

        request = SolveRequest(
            instance=live, algorithm=self.algorithm, portfolio=self.portfolio
        )
        try:
            # Engine.solve verifies what it returns, so a proposal is always
            # feasible and its machine profiles agree with the oracle.
            return sim.engine.solve(request).schedule
        except Exception:  # noqa: BLE001 - a failed replan adopts nothing
            sim.note_failed_replan()
            return None

    def replan(self, sim: "Simulator", t: float) -> int:
        proposal = self.propose(sim, t)
        if proposal is None:
            return 0
        migrations = sim.plan_migrations(proposal)
        if not migrations:
            return 0
        if not self._adopt(sim, proposal, t):
            return 0
        return sim.apply_migrations(migrations)

    def _adopt(self, sim: "Simulator", proposal: Schedule, t: float) -> bool:
        """Adopt only proposals that lower the projected remaining cost."""
        t_end = sim.horizon_end
        current_future = sum(
            sim.builder.profile_of(i).covered_measure_in(t, t_end)
            for i in range(sim.builder.num_machines)
        )
        proposed_future = sum(
            m.profile.covered_measure_in(t, t_end) for m in proposal.machines
        )
        return proposed_future < current_future - 1e-9


class MigrationBudget(RollingHorizon):
    """Rolling horizon with at most ``budget`` migrations per replan.

    The engine proposal is treated as a *wish list*: candidate moves are
    ranked by their net busy-time saving — what the source machine sheds
    (:meth:`ScheduleBuilder.marginal_busy_release`) minus what the target
    gains (:meth:`ScheduleBuilder.marginal_busy_increase`) — and applied
    one at a time with a per-move feasibility check, stopping at the budget.
    Partial application of a replan can violate the proposal's machine
    packing, so unlike :class:`RollingHorizon` every move is individually
    guarded by ``fits`` and skipped (without consuming budget) when the
    target cannot host the job.
    """

    name = "migration_budget"

    def __init__(
        self,
        period: float,
        budget: int = 4,
        algorithm: Optional[str] = "first_fit",
        portfolio: bool = False,
        placement: str = "first_fit",
    ) -> None:
        super().__init__(
            period, algorithm=algorithm, portfolio=portfolio, placement=placement
        )
        if budget < 0:
            raise ValueError(f"migration budget must be non-negative, got {budget}")
        self.budget = budget

    def replan(self, sim: "Simulator", t: float) -> int:
        if self.budget == 0:
            return 0
        proposal = self.propose(sim, t)
        if proposal is None:
            return 0
        migrations = sim.plan_migrations(proposal)
        builder = sim.builder

        def net_gain(move: Tuple[Job, int]) -> float:
            job, target = move
            released = builder.marginal_busy_release(job)
            if target < builder.num_machines:
                return released - builder.marginal_busy_increase(target, job)
            # A fresh machine pays the job's whole length: never an
            # improvement, but keep the exact figure for the ranking.
            return released - job.length

        applied = 0
        for job, target in sorted(migrations, key=net_gain, reverse=True):
            if applied >= self.budget:
                break
            if net_gain((job, target)) <= 1e-9:
                continue  # no longer improving on the evolved state
            if sim.try_migrate(job, target):
                applied += 1
        return applied


@dataclass(frozen=True)
class SimulationReport:
    """Outcome of one trace replay under one policy."""

    policy: str
    trace: str
    num_events: int
    arrivals: int
    departures: int
    early_departures: int
    migrations: int
    #: replans attempted (failed ones included)
    replans: int
    machines_opened: int
    #: integrated busy time actually accrued across machines (the objective)
    realized_cost: float
    #: hindsight comparator: engine solve over the effective (truncated) jobs
    offline_cost: Optional[float]
    #: Observation 1.1 bound on the effective instance
    lower_bound: float
    oracle_checks: int
    wall_time_seconds: float
    tags: Dict[str, object] = field(default_factory=dict)
    #: replans whose engine solve raised, so they adopted nothing
    failed_replans: int = 0

    @property
    def gap_vs_offline(self) -> Optional[float]:
        """``realized_cost / offline_cost`` (``None`` without a comparator)."""
        if self.offline_cost is None or self.offline_cost <= 0:
            return None
        return self.realized_cost / self.offline_cost

    @property
    def ratio_vs_lb(self) -> float:
        if self.lower_bound <= 0:
            return 1.0
        return self.realized_cost / self.lower_bound

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by the CLI and the benchmarks)."""
        return {
            "policy": self.policy,
            "trace": self.trace,
            "num_events": self.num_events,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "early_departures": self.early_departures,
            "migrations": self.migrations,
            "replans": self.replans,
            "failed_replans": self.failed_replans,
            "machines_opened": self.machines_opened,
            "realized_cost": self.realized_cost,
            "offline_cost": self.offline_cost,
            "gap_vs_offline": self.gap_vs_offline,
            "lower_bound": self.lower_bound,
            "ratio_vs_lb": self.ratio_vs_lb,
            "oracle_checks": self.oracle_checks,
            "wall_time_seconds": self.wall_time_seconds,
            "tags": dict(self.tags),
        }


class Simulator:
    """Replay a :class:`DynamicTrace` under a :class:`SimulationPolicy`.

    The simulator owns the mutable machine state (a
    :class:`ScheduleBuilder` over the trace's full job set), the realized
    cost accounting and the oracle cross-check cadence; the policy decides
    placements and replans through the ``assign``/``unassign`` mutation
    path.  One simulator instance is single-use: construct, :meth:`run`,
    read the report.

    :meth:`run` is a thin loop over the stepwise replay core —
    :meth:`begin`, one :meth:`feed` per event, :meth:`settle` — which is
    also the engine behind *streaming* replay: :meth:`streaming` builds a
    simulator with no trace at all, and a long-lived caller (the service
    layer's session manager, :mod:`busytime.service.sessions`) feeds events
    as they arrive over the wire.  Offline and streaming replay therefore
    share every decision — placements, replan instants, migration planning,
    cost accrual — by construction, which is what the session differential
    suite pins bit-for-bit.
    """

    def __init__(
        self,
        trace: Optional[DynamicTrace],
        policy: SimulationPolicy,
        oracle_check_every: Optional[int] = 256,
        compare_offline: bool = True,
        offline: Optional[Tuple[Optional[float], float]] = None,
        engine=None,
        horizon: Optional[Tuple[float, float]] = None,
        g: Optional[int] = None,
        name: str = "",
    ) -> None:
        if trace is not None:
            trace.validate()
            jobs = tuple(e.job for e in trace.events if e.is_arrival)
            g = trace.g
            horizon = trace.horizon
            name = name or trace.name or "trace"
        else:
            # Streaming mode (see :meth:`streaming`): the job set is
            # revealed event by event, so the builder starts over an empty
            # instance and the replay horizon must be supplied up front —
            # replan scheduling anchors at its start and cost settlement
            # truncates coverage at its end, exactly as the trace's own
            # horizon does offline.
            if g is None or horizon is None:
                raise ValueError("streaming replay needs explicit g and horizon")
            jobs = ()
            name = name or "stream"
        self.trace = trace
        self.policy = policy
        self.name = name
        self.oracle_check_every = oracle_check_every
        self.compare_offline = compare_offline
        #: precomputed :func:`offline_reference` result (multi-policy panels
        #: share one); computed lazily in :meth:`settle` when absent
        self._offline = offline
        self.g = g
        full = Instance(jobs=jobs, g=g, name=name)
        self.builder = ScheduleBuilder(full, algorithm=policy.name)
        if engine is None:
            from ..engine import Engine

            engine = Engine()
        self.engine = engine
        #: exclusive upper end of the simulated clock (last event time)
        self.horizon_end = horizon[1]
        self._cost = 0.0
        self._last_accrued: List[float] = []
        self._start_time = horizon[0]
        self._clock = self._start_time
        self._migrations = 0
        self._replans = 0
        self._failed_replans = 0
        self._oracle_checks = 0
        self._early_departures = 0
        self._arrivals = 0
        self._departures = 0
        self._events_fed = 0
        self._next_replan = float("inf")
        self._began = False
        self._settled = False
        self._ran = False
        self._started_wall = 0.0

    @classmethod
    def streaming(
        cls,
        g: int,
        policy: SimulationPolicy,
        horizon: Tuple[float, float],
        oracle_check_every: Optional[int] = None,
        engine=None,
        name: str = "stream",
    ) -> "Simulator":
        """A trace-less simulator fed one event at a time (:meth:`feed`).

        ``horizon`` plays the role the trace's own horizon plays offline:
        replans fire at ``horizon[0] + k * period`` and final settlement
        truncates coverage at ``horizon[1]``.  Feeding the events of a trace
        with ``horizon == trace.horizon`` therefore reproduces the offline
        replay's decisions and realized cost exactly.  The caller is
        responsible for event validity (sessions run a
        :class:`~busytime.core.events.TraceValidator` in front); the replay
        core only assumes monotone event order.
        """
        sim = cls(
            None,
            policy,
            oracle_check_every=oracle_check_every,
            compare_offline=False,
            engine=engine,
            horizon=horizon,
            g=g,
            name=name,
        )
        sim.begin()
        return sim

    # -- machine-state helpers (the policy-facing mutation API) --------------

    def live_instance(self, name: str = "") -> Instance:
        """The instance of currently live (arrived, not departed) jobs."""
        return Instance(
            jobs=tuple(
                job
                for i in range(self.builder.num_machines)
                for job in self.builder.jobs_on(i)
            ),
            g=self.g,
            name=name or "live",
        )

    def _touch(self, machine_index: int, t: float) -> None:
        """Accrue the machine's realized busy time up to ``t``.

        Called immediately before any mutation of the machine, so the
        accrual always integrates the profile state that actually held over
        the accrued window.  Untouched machines are settled once, at the end
        of the run.
        """
        last = self._last_accrued[machine_index]
        if t > last:
            self._cost += self.builder.profile_of(machine_index).covered_measure_in(
                last, t
            )
            self._last_accrued[machine_index] = t

    def _assign(self, machine_index: Optional[int], job: Job, t: float) -> int:
        if machine_index is None or machine_index >= self.builder.num_machines:
            machine_index = self.builder.open_machine()
            self._last_accrued.append(t)
        self._touch(machine_index, t)
        self.builder.assign(machine_index, job)
        return machine_index

    def _unassign(self, job: Job, t: float) -> int:
        machine_index = self.builder.machine_of(job.id)
        self._touch(machine_index, t)
        return self.builder.unassign(job)

    def plan_migrations(self, proposal: Schedule) -> List[Tuple[Job, int]]:
        """Diff an engine proposal against the current assignment.

        Proposed machines are matched injectively onto existing machine
        indices by maximum job overlap (largest proposed machines first);
        unmatched proposed machines take over currently empty indices or
        brand-new ones.  The returned moves ``(job, target_index)`` — with
        ``target_index`` possibly one past the current machine count,
        meaning "open a fresh machine" — transform the current assignment
        into exactly the proposal when applied in full.
        """
        builder = self.builder
        current = {
            job.id: i
            for i in range(builder.num_machines)
            for job in builder.jobs_on(i)
        }
        taken: set = set()
        mapping: Dict[int, int] = {}
        ordered = sorted(proposal.machines, key=lambda m: -len(m.jobs))
        for machine in ordered:
            votes: Dict[int, int] = {}
            for job in machine.jobs:
                idx = current.get(job.id)
                if idx is not None and idx not in taken:
                    votes[idx] = votes.get(idx, 0) + 1
            if votes:
                best = max(votes, key=lambda i: (votes[i], -i))
                mapping[machine.index] = best
                taken.add(best)
        spare = [
            i
            for i in range(builder.num_machines)
            if i not in taken and not builder.jobs_on(i)
        ]
        next_fresh = builder.num_machines
        for machine in ordered:
            if machine.index in mapping:
                continue
            if spare:
                mapping[machine.index] = spare.pop(0)
            else:
                mapping[machine.index] = next_fresh
                next_fresh += 1
        moves: List[Tuple[Job, int]] = []
        for machine in proposal.machines:
            target = mapping[machine.index]
            for job in machine.jobs:
                if current[job.id] != target:
                    moves.append((job, target))
        return moves

    def apply_migrations(self, moves: Sequence[Tuple[Job, int]]) -> int:
        """Apply a full replan diff: all removals first, then all additions.

        Removing every moving job before re-adding keeps each intermediate
        machine state a subset of either the old or the new packing, so the
        builder's profiles never pass through an overloaded configuration.
        Fresh target indices (one past the machine count at planning time)
        are resolved to real machines on first use, so several moves bound
        for the same fresh machine land together.
        """
        t = self._clock
        base = self.builder.num_machines
        for job, _ in moves:
            self._unassign(job, t)
        fresh: Dict[int, int] = {}
        for job, target in moves:
            if target >= base:
                if target in fresh:
                    self._assign(fresh[target], job, t)
                else:
                    fresh[target] = self._assign(None, job, t)
            else:
                self._assign(target, job, t)
        self._migrations += len(moves)
        return len(moves)

    def try_migrate(self, job: Job, target: int) -> bool:
        """Move one job iff the target machine can host it; True on success.

        A ``target`` one past the current machine count opens a fresh
        machine.  The move is rolled back (and ``False`` returned) when the
        target cannot host the job or already is the job's machine.
        """
        t = self._clock
        source = self._unassign(job, t)
        if target >= self.builder.num_machines:
            self._assign(None, job, t)
            self._migrations += 1
            return True
        if target == source or not self.builder.fits(target, job):
            self._assign(source, job, t)
            return False
        self._assign(target, job, t)
        self._migrations += 1
        return True

    def note_failed_replan(self) -> None:
        """Count a replan whose proposal could not be computed.

        Policies call this when their engine solve raises; the replan still
        counts in ``replans`` (an attempt) and adopts nothing.
        """
        self._failed_replans += 1

    # -- oracle ---------------------------------------------------------------

    def _oracle_check(self) -> None:
        """Freeze the live sub-schedule and run the slow-path oracle on it.

        ``verify_schedule`` re-derives feasibility and busy time from the
        raw job intervals and raises ``ProfileOracleMismatchError`` if any
        maintained profile drifted from the truth — the cross-check the
        whole mutation path answers to.
        """
        verify_schedule(self.builder.freeze_partial())
        self._oracle_checks += 1

    # -- replay ---------------------------------------------------------------

    def begin(self) -> None:
        """Arm the stepwise replay (idempotent until the first :meth:`feed`)."""
        if self._began:
            raise RuntimeError("Simulator replay already begun")
        self._began = True
        self._started_wall = time.monotonic()
        period = self.policy.replan_period
        self._next_replan = (
            self._start_time + period if period is not None else float("inf")
        )
        self._clock = self._start_time

    def feed(self, event: TraceEvent) -> None:
        """Advance the replay through one arrive/depart event.

        Exactly the per-event body of the offline loop: scheduled replans
        that fall at or before the event's instant fire first (so cost
        accrual splits at the replan mark), then the event itself is
        applied through the policy's placement or the unassign path.
        """
        if not self._began or self._settled:
            raise RuntimeError("feed() outside an active begin()/settle() window")
        self._events_fed += 1
        period = self.policy.replan_period
        # Replans fire at their scheduled instant, between the events
        # that straddle it, so cost accrual splits exactly at the mark.
        while self._next_replan <= event.time:
            self._clock = self._next_replan
            self._replans += 1
            self.policy.replan(self, self._next_replan)
            self._oracle_check()
            self._next_replan += period
        self._clock = event.time
        if event.is_arrival:
            self._arrivals += 1
            choice = self.policy.place(self.builder, event.job)
            if choice is not None and not self.builder.fits(choice, event.job):
                raise ValueError(
                    f"policy {self.policy.name} chose machine {choice}, "
                    f"which cannot host job {event.job.id}"
                )
            self._assign(choice, event.job, event.time)
        else:
            self._departures += 1
            if event.time < event.job.end:
                self._early_departures += 1
            self._unassign(event.job, event.time)
        cadence = self.oracle_check_every
        if cadence and self._events_fed % cadence == 0:
            self._oracle_check()

    def realized_cost_so_far(self) -> float:
        """Realized busy time accrued through the current clock (read-only).

        Machines whose accrual lags the clock are integrated virtually —
        no state is mutated, so this is safe to call between events.
        """
        cost = self._cost
        t = self._clock
        for i in range(self.builder.num_machines):
            last = self._last_accrued[i]
            if t > last:
                cost += self.builder.profile_of(i).covered_measure_in(last, t)
        return cost

    def live_assignment(self) -> Dict[str, int]:
        """Current ``job id -> machine index`` map for every live job."""
        return {
            job.id: i
            for i in range(self.builder.num_machines)
            for job in self.builder.jobs_on(i)
        }

    def settle(self) -> SimulationReport:
        """Close the books: final accrual to the horizon end plus the report."""
        if not self._began:
            raise RuntimeError("settle() before begin()")
        if self._settled:
            raise RuntimeError("Simulator already settled")
        self._settled = True
        # Settle every machine's outstanding coverage and close the books.
        for i in range(self.builder.num_machines):
            self._touch(i, self.horizon_end)
        self._oracle_check()

        trace = self.trace
        if self._offline is not None:
            offline_cost, lb = self._offline
        elif self.compare_offline and trace is not None:
            offline_cost, lb = offline_reference(trace, self.engine)
        elif trace is not None:
            offline_cost = None
            effective = trace.effective_instance()
            lb = best_lower_bound(effective) if effective.n else 0.0
        else:
            offline_cost = None
            lb = 0.0

        return SimulationReport(
            policy=self.policy.name,
            trace=trace.name if trace is not None else self.name,
            num_events=self._events_fed,
            arrivals=self._arrivals,
            departures=self._departures,
            early_departures=self._early_departures,
            migrations=self._migrations,
            replans=self._replans,
            failed_replans=self._failed_replans,
            machines_opened=self.builder.num_machines,
            realized_cost=self._cost,
            offline_cost=offline_cost,
            lower_bound=lb,
            oracle_checks=self._oracle_checks,
            wall_time_seconds=time.monotonic() - self._started_wall,
        )

    def run(self) -> SimulationReport:
        if self._ran:
            raise RuntimeError("Simulator instances are single-use; build a new one")
        if self.trace is None:
            raise RuntimeError("streaming simulators are driven via feed()/settle()")
        self._ran = True
        self.begin()
        for event in self.trace.events:
            self.feed(event)
        return self.settle()


def standard_policies(
    trace: DynamicTrace,
    period: Optional[float] = None,
    budget: int = 4,
    algorithm: Optional[str] = "first_fit",
) -> List[SimulationPolicy]:
    """The canonical three-policy panel for a trace.

    ``period`` defaults to an eighth of the trace's time horizon (at least
    eight replans see every workload phase without dominating the runtime).
    """
    lo, hi = trace.horizon
    if period is None:
        width = hi - lo
        period = width / 8.0 if width > 0 else 1.0
    return [
        NeverMigrate(),
        RollingHorizon(period, algorithm=algorithm),
        MigrationBudget(period, budget=budget, algorithm=algorithm),
    ]


def simulate(
    trace: DynamicTrace,
    policies: Optional[Sequence[SimulationPolicy]] = None,
    oracle_check_every: Optional[int] = 256,
    compare_offline: bool = True,
    **panel_options,
) -> List[SimulationReport]:
    """Replay ``trace`` under each policy (default: the standard panel)."""
    if policies is None:
        policies = standard_policies(trace, **panel_options)
    elif panel_options:
        raise TypeError("panel options apply only when policies is None")
    # The hindsight comparator is policy-independent: compute it once and
    # share it across the panel instead of re-solving per replay.
    offline = offline_reference(trace) if compare_offline else None
    return [
        Simulator(
            trace,
            policy,
            oracle_check_every=oracle_check_every,
            compare_offline=compare_offline,
            offline=offline,
        ).run()
        for policy in policies
    ]


# ---------------------------------------------------------------------------
# Online schedulers: arrival-only replay of a static instance
# ---------------------------------------------------------------------------


class _NextFit(NeverMigrate):
    """Arrival-order NextFit: keep one open machine, move on when it is full.

    The only machine ever tried is the last one opened; a job that does not
    fit there opens the next.
    """

    def place(self, builder: ScheduleBuilder, job: Job) -> Optional[int]:
        last = builder.num_machines - 1
        if last >= 0 and builder.fits(last, job):
            return last
        return None


def _replay_arrivals(
    instance: Instance, policy: NeverMigrate, algorithm: str
) -> Schedule:
    """Feed ``instance``'s jobs to a streaming simulator as arrivals only.

    Jobs arrive at their start time, ties broken by job id only: ordering
    simultaneous arrivals by any other attribute (say, end time) would let
    the replay peek at interval shape, which no online system can do.
    Nothing departs or migrates, so the final machine state is the online
    schedule of the full ``instance`` (returned unverified, like every
    algorithm's output).
    """
    sim = Simulator.streaming(
        instance.g, policy, instance.horizon, name=instance.name
    )
    for job in sorted(instance.jobs, key=lambda j: (j.start, j.id)):
        sim.feed(TraceEvent(time=job.start, kind=ARRIVE, job=job))
    live = sim.builder.freeze_partial()
    return Schedule(instance=instance, machines=live.machines, algorithm=algorithm)


def online_first_fit(instance: Instance) -> Schedule:
    """Arrival-order FirstFit: lowest-indexed machine that still fits."""
    return _replay_arrivals(instance, NeverMigrate(), "online_first_fit")


def online_best_fit(instance: Instance) -> Schedule:
    """Arrival-order BestFit (:meth:`ScheduleBuilder.best_fitting_machine`)."""
    return _replay_arrivals(
        instance, NeverMigrate(placement="best_fit"), "online_best_fit"
    )


def online_next_fit(instance: Instance) -> Schedule:
    """Arrival-order NextFit; the Section 3.1 greedy on proper instances."""
    return _replay_arrivals(instance, _NextFit(), "online_next_fit")


ONLINE_ALGORITHMS: Dict[str, Callable[[Instance], Schedule]] = {
    "online_first_fit": online_first_fit,
    "online_best_fit": online_best_fit,
    "online_next_fit": online_next_fit,
}
