"""Structured solve reports.

A :class:`SolveReport` is the engine's response object: the schedule itself
plus everything a consumer (CLI table, experiment harness, JSON archive)
otherwise recomputed ad hoc — lower bounds, the per-component algorithm
decisions, the proven-ratio certificate and wall-clock telemetry.

Reports are frozen dataclasses and picklable, so the batch path can ship
them back from worker processes.  JSON round-tripping lives in
:mod:`busytime.io` (``solve_report_to_dict`` / ``solve_report_from_dict``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from ..core.schedule import Schedule, ScheduleRows

__all__ = ["ComponentDecision", "RaceCandidate", "RaceOutcome", "SolveReport"]


@dataclass(frozen=True)
class RaceCandidate:
    """One candidate's fate in a portfolio race.

    ``status`` is one of ``"finished"`` (produced a feasible schedule),
    ``"failed"`` (raised or returned an infeasible schedule — the slot is
    lost, nothing else), or ``"cancelled"`` (never resolved: either its
    task was revoked before running, or its result was deliberately
    discarded to keep winners timing-independent).  ``started`` records
    whether it began executing at all; ``wall_time``/``cost`` are ``None``
    unless it ran to completion.
    """

    algorithm: str
    rank: int
    status: str
    started: bool
    wall_time: Optional[float] = None
    cost: Optional[float] = None
    winner: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "rank": self.rank,
            "status": self.status,
            "started": self.started,
            "wall_time": self.wall_time,
            "cost": self.cost,
            "winner": self.winner,
        }


@dataclass(frozen=True)
class RaceOutcome:
    """The full outcome table of one portfolio race.

    ``decisive`` is the determinism flag: ``True`` means the winner was
    resolved by the timing-independent rules (first acceptable candidate
    in rank order, or minimum ``(cost, rank)`` over a complete race), so
    repeating the race reproduces it bit for bit; ``False`` means the
    shared deadline truncated the race and the winner is merely the best
    candidate that had finished — the report is also flagged
    ``budget_exhausted`` and the service layer never caches it.
    ``incumbent_timeline`` is the anytime trace: ``(elapsed_seconds,
    cost)`` pairs recorded whenever the best-so-far schedule improved
    (non-increasing in cost by construction).
    """

    candidates: Tuple[RaceCandidate, ...]
    deadline: Optional[float]
    accept_factor: float
    decisive: bool
    fallback: bool = False
    incumbent_timeline: Tuple[Tuple[float, float], ...] = ()

    @property
    def winner(self) -> Optional[RaceCandidate]:
        for candidate in self.candidates:
            if candidate.winner:
                return candidate
        return None

    def as_dict(self) -> Dict[str, object]:
        return {
            "candidates": [c.as_dict() for c in self.candidates],
            "deadline": self.deadline,
            "accept_factor": self.accept_factor,
            "decisive": self.decisive,
            "fallback": self.fallback,
            "incumbent_timeline": [list(point) for point in self.incumbent_timeline],
        }


@dataclass(frozen=True)
class ComponentDecision:
    """What the engine did on one connected component.

    ``proven_ratio`` is the best approximation guarantee among the candidate
    algorithms that ran on the component: the kept schedule costs no more
    than any candidate's, so every candidate's guarantee transfers to it.
    ``None`` means no guarantee applies (e.g. a forced baseline algorithm).
    """

    component: str
    n: int
    algorithm: str
    cost: float
    proven_ratio: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "component": self.component,
            "n": self.n,
            "algorithm": self.algorithm,
            "cost": self.cost,
            "proven_ratio": self.proven_ratio,
        }


@dataclass(frozen=True)
class SolveReport:
    """The engine's structured response to one :class:`SolveRequest`.

    Attributes
    ----------
    schedule:
        The feasible schedule produced for the request's instance.  The
        engine returns :class:`Schedule` objects; the service's result
        store keeps reports whose schedule is flat
        :class:`~busytime.core.schedule.ScheduleRows` (see :meth:`flat`
        and :meth:`with_objects`).
    algorithm:
        Overall producing algorithm: a forced registry name, or ``"auto"``
        for policy-dispatched solves.
    policy:
        Selection policy that made the per-component choices.
    portfolio:
        Whether the per-component portfolio ran.
    objective:
        The registered objective the request priced the solve under
        (``"busy_time"`` is the seed default).
    objective_value:
        The schedule's cost under the request's resolved cost model.  Equals
        :attr:`cost` exactly for the default model; ``None`` only on
        reports built before the engine priced them (old archives).
    lower_bound:
        Lower bound on the optimal *objective value* under the request's
        cost model; for the default model this is exactly the
        Observation 1.1 bound ``max(span, len/g)`` on OPT.
    optimum:
        Exact optimum when requested and small enough, else ``None``.
    components:
        Per-component algorithm decisions (empty for forced solves, which
        treat the instance as one unit).
    proven_ratio:
        Certificate: the schedule provably costs at most ``proven_ratio *
        OPT`` (the worst per-component guarantee — component optima add up,
        so the max transfers to the whole).  ``None`` when no guarantee
        applies.
    budget_exhausted:
        True when the request's ``time_limit`` expired mid-solve and the
        engine fell back to FirstFit for the remaining components, or when
        a race's shared ``deadline`` truncated it before the
        timing-independent winner could be resolved.
    race:
        The per-candidate outcome table and incumbent timeline when the
        solve was a portfolio race (``None`` otherwise).  Telemetry, like
        ``timings``: serialisation strips it together with timings, so
        cached report bytes stay deterministic.
    timings:
        Wall-clock telemetry in seconds: ``schedule`` (algorithm time),
        ``lower_bound``, optional ``optimum``, and ``total``.
    tags:
        The request's free-form labels, echoed back.
    """

    schedule: Union[Schedule, ScheduleRows]
    algorithm: str
    policy: str
    portfolio: bool
    lower_bound: float
    optimum: Optional[float] = None
    components: Tuple[ComponentDecision, ...] = ()
    proven_ratio: Optional[float] = None
    budget_exhausted: bool = False
    race: Optional[RaceOutcome] = None
    objective: str = "busy_time"
    objective_value: Optional[float] = None
    timings: Mapping[str, float] = field(default_factory=dict)
    tags: Mapping[str, object] = field(default_factory=dict)

    # -- representation ------------------------------------------------------

    def flat(self) -> "SolveReport":
        """This report with its schedule as :class:`ScheduleRows` (no job
        objects); the report itself when it already is."""
        if isinstance(self.schedule, ScheduleRows):
            return self
        return replace(self, schedule=ScheduleRows.from_schedule(self.schedule))

    def with_objects(self) -> "SolveReport":
        """This report with its schedule as :class:`Schedule` objects; the
        report itself when it already is.  Flat rows are not re-checked."""
        if isinstance(self.schedule, Schedule):
            return self
        return replace(self, schedule=self.schedule.to_schedule())

    # -- derived -------------------------------------------------------------

    @property
    def cost(self) -> float:
        """The schedule's total busy time (the paper's objective)."""
        return self.schedule.total_busy_time

    @property
    def value(self) -> float:
        """The objective value under the request's cost model.

        Falls back to :attr:`cost` when the report predates pricing (the
        two are identical for the default ``busy_time`` model anyway).
        """
        return self.cost if self.objective_value is None else self.objective_value

    @property
    def num_machines(self) -> int:
        return self.schedule.num_machines

    @property
    def wall_time_seconds(self) -> float:
        """End-to-end solve time (0.0 when telemetry is absent)."""
        return float(self.timings.get("total", 0.0))

    @property
    def ratio_vs_lb(self) -> float:
        """Objective value over the lower bound (1.0 for degenerate zero
        bounds).  Both sides are priced under the same cost model, so the
        ratio stays meaningful across objectives."""
        if self.lower_bound <= 0:
            return 1.0 if self.value <= 0 else float("inf")
        return self.value / self.lower_bound

    @property
    def ratio_vs_opt(self) -> Optional[float]:
        """Objective value over the exact optimum, when computed (both sides
        priced under the request's cost model)."""
        if self.optimum is None or self.optimum <= 0:
            return None
        return self.value / self.optimum

    def summary(self) -> Dict[str, object]:
        """A flat dict for tables and logs (no machine assignment)."""
        out = {
            "instance": self.schedule.instance.name,
            "n": self.schedule.instance.n,
            "g": self.schedule.instance.g,
            "algorithm": self.algorithm,
            "cost": self.cost,
            "machines": self.num_machines,
            "lower_bound": self.lower_bound,
            "ratio_vs_lb": self.ratio_vs_lb,
            "optimum": self.optimum,
            "proven_ratio": self.proven_ratio,
            "wall_time_s": self.wall_time_seconds,
        }
        if self.objective != "busy_time":
            out["objective"] = self.objective
            out["objective_value"] = self.value
        if self.race is not None:
            out["raced"] = len(self.race.candidates)
            out["race_decisive"] = self.race.decisive
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolveReport({self.algorithm}: cost={self.cost:g}, "
            f"machines={self.num_machines}, lb={self.lower_bound:g})"
        )
