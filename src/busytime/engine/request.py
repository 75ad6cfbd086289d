"""Declarative solve requests.

A :class:`SolveRequest` captures *everything* the engine needs to produce a
:class:`~busytime.engine.report.SolveReport`: the instance, the objective,
how the algorithm is picked (a forced registry name or a selection policy),
an optional wall-clock budget and the report options.  Requests are frozen
dataclasses — picklable by construction so they can cross process boundaries
in :meth:`busytime.engine.Engine.solve_many` — and deliberately contain no
callables or open resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from ..core.instance import Instance, InstanceRows
from ..core.objectives import CostModel, get_cost_model, registered_objectives

__all__ = ["SolveRequest", "RequestValidationError", "OBJECTIVES"]


def __getattr__(name: str):
    # `OBJECTIVES` keeps its historical tuple semantics ("busy_time" in
    # OBJECTIVES, iteration) but now reads the live registry of
    # :mod:`busytime.core.objectives` at access time, so objectives
    # registered at runtime become requestable with no engine change.
    # (`from ... import OBJECTIVES` binds a snapshot; use
    # `registered_objectives()` for a guaranteed-live view.)
    if name == "OBJECTIVES":
        return registered_objectives()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RequestValidationError(ValueError):
    """Raised by :meth:`SolveRequest.validate` on an ill-formed request."""


@dataclass(frozen=True)
class SolveRequest:
    """One unit of work for the :class:`~busytime.engine.Engine`.

    No option turns the feasibility check off: the engine runs
    :func:`~busytime.core.schedule.verify_schedule` on every schedule it
    returns (a race, on every candidate that finishes).

    Parameters
    ----------
    instance:
        The instance to schedule: an :class:`Instance`, or the flat
        :class:`~busytime.core.instance.InstanceRows` a parsed document is
        (what ``POST /solve`` submits, so the service can answer cache hits
        without job objects).  :meth:`Engine.solve
        <busytime.engine.Engine.solve>` builds the :class:`Instance` from
        rows once, before solving.
    objective:
        Name of the registered objective to minimise (see
        :mod:`busytime.core.objectives`): ``"busy_time"`` (the paper's
        objective, the default), ``"weighted_busy_time"``,
        ``"machines_plus_busy"``, or any objective registered at runtime.
    cost_model:
        Optional :class:`~busytime.core.objectives.CostModel` overriding the
        objective's registered default parameters (activation cost, busy
        rate, machine weight).  Its ``objective`` must match this request's;
        ``None`` uses the registered default.  Cost-model parameters enter
        the service fingerprint, so differently priced requests never share
        a cache line.
    algorithm:
        Force a specific registered algorithm on the whole instance
        (bypassing component dispatch), or ``None`` to let the selection
        policy choose per connected component.
    policy:
        Name of the selection policy (see :mod:`busytime.engine.policy`);
        ``None`` uses the engine's default.
    portfolio:
        Run every applicable portfolio algorithm per component and keep the
        cheapest feasible schedule (can only help; all candidates are
        feasible).  Ignored when ``algorithm`` is forced.
    time_limit:
        Soft wall-clock budget in seconds for *dispatched* solves.  Once
        exceeded, remaining components fall back to the cheapest-to-compute
        guarantee algorithm (FirstFit) and the report is flagged
        ``budget_exhausted``.  Ignored when ``algorithm`` is forced: a single
        running algorithm cannot be preempted mid-flight.
    race:
        Race the policy's top-``race`` ranked candidates on the whole
        instance instead of dispatching per component (see
        :mod:`busytime.portfolio.racer`): incumbent tracking, early
        acceptance against the lower bound, deterministic winners.  ``0``
        (the default) disables racing; values ``>= 2`` enable it
        (racing one candidate is just a slower single dispatch).
        Incompatible with a forced ``algorithm``.
    deadline:
        Shared wall-clock budget in seconds for a race: candidates still
        unresolved at the deadline are cancelled and the best finished
        schedule is returned (``budget_exhausted``, non-decisive).
        Requires ``race >= 2``; plain dispatched solves budget with
        ``time_limit`` instead.
    compute_optimum:
        Also compute the exact optimum (branch and bound) when the instance
        has at most ``max_jobs_for_optimum`` jobs.
    max_jobs_for_optimum:
        Size cap for the exact solver.
    tags:
        Free-form labels echoed into the report (experiment ids, file names).
    """

    instance: Union[Instance, InstanceRows]
    objective: str = "busy_time"
    cost_model: Optional[CostModel] = None
    algorithm: Optional[str] = None
    policy: Optional[str] = None
    portfolio: bool = True
    time_limit: Optional[float] = None
    race: int = 0
    deadline: Optional[float] = None
    compute_optimum: bool = False
    max_jobs_for_optimum: int = 16
    tags: Mapping[str, object] = field(default_factory=dict)

    def resolved_cost_model(self) -> CostModel:
        """The cost model this request is priced under.

        The explicit ``cost_model`` when set, else the registered default
        for ``objective``.
        """
        if self.cost_model is not None:
            return self.cost_model
        return get_cost_model(self.objective)

    def validate(self, check_algorithm: bool = True) -> None:
        """Raise :class:`RequestValidationError` if the request is ill-formed.

        ``check_algorithm=False`` skips the registry lookup of ``algorithm``
        (used when the caller supplies a scheduler callable out of band, as
        the experiment harness does).
        """
        if not isinstance(self.instance, (Instance, InstanceRows)):
            raise RequestValidationError(
                f"instance must be a busytime Instance, got {type(self.instance).__name__}"
            )
        if self.objective not in registered_objectives():
            raise RequestValidationError(
                f"unknown objective {self.objective!r}; supported: "
                f"{registered_objectives()}"
            )
        if self.cost_model is not None:
            if not isinstance(self.cost_model, CostModel):
                raise RequestValidationError(
                    f"cost_model must be a CostModel, got "
                    f"{type(self.cost_model).__name__}"
                )
            if self.cost_model.objective != self.objective:
                raise RequestValidationError(
                    f"cost_model prices objective {self.cost_model.objective!r} "
                    f"but the request asks for {self.objective!r}"
                )
        # Budget checks are written so that NaN fails them (every
        # comparison with NaN is false, and JSON bodies may carry NaN).
        if self.time_limit is not None and not self.time_limit >= 0:
            raise RequestValidationError(
                f"time_limit must be non-negative, got {self.time_limit}"
            )
        if self.race < 0 or self.race == 1:
            raise RequestValidationError(
                f"race must be 0 (disabled) or >= 2 (candidates to race), "
                f"got {self.race}"
            )
        if self.race and self.algorithm is not None:
            raise RequestValidationError(
                "race and a forced algorithm are incompatible: racing asks "
                "the selection policy for candidates"
            )
        if self.deadline is not None:
            if not self.deadline >= 0:
                raise RequestValidationError(
                    f"deadline must be non-negative, got {self.deadline}"
                )
            if self.race < 2:
                raise RequestValidationError(
                    "deadline requires race >= 2 (plain dispatched solves "
                    "budget with time_limit)"
                )
        if self.max_jobs_for_optimum < 0:
            raise RequestValidationError(
                f"max_jobs_for_optimum must be non-negative, got {self.max_jobs_for_optimum}"
            )
        if self.algorithm is not None and check_algorithm:
            from ..algorithms.base import get_scheduler

            try:
                scheduler = get_scheduler(self.algorithm)
            except KeyError as exc:
                # args[0]: str() of a KeyError quotes its message.
                raise RequestValidationError(exc.args[0]) from None
            # A forced algorithm bypasses structural dispatch, but the
            # problem-model axis is not negotiable: an algorithm that
            # ignores demands would hand back a capacity-violating
            # schedule, and one that never heard of the objective would
            # optimise the wrong quantity.
            if self.instance.has_demands and not scheduler.demand_aware:
                raise RequestValidationError(
                    f"algorithm {self.algorithm!r} is not demand-aware but "
                    f"the instance carries capacity demands; demand-aware "
                    f"algorithms declare demand_aware=True"
                )
            if self.instance.is_flex and not scheduler.window_aware:
                raise RequestValidationError(
                    f"algorithm {self.algorithm!r} is not window-aware but "
                    f"the instance carries flex windows, a site capacity cap "
                    f"or background load; window-aware algorithms declare "
                    f"window_aware=True"
                )
            if not scheduler.supports_objective(self.objective):
                raise RequestValidationError(
                    f"algorithm {self.algorithm!r} does not declare support "
                    f"for objective {self.objective!r} (declared: "
                    f"{scheduler.supported_objectives})"
                )
        if self.policy is not None:
            from .policy import get_policy

            try:
                get_policy(self.policy)
            except KeyError as exc:
                raise RequestValidationError(exc.args[0]) from None

    def options_dict(self) -> dict:
        """The request's options (everything but the instance), JSON-ready.

        The *resolved* cost model is serialised (the registered default when
        no override was given), so two requests naming the same objective
        with equal parameters produce identical option documents — and
        therefore identical service fingerprints — regardless of whether the
        model was spelled out.
        """
        return {
            "objective": self.objective,
            "cost_model": self.resolved_cost_model().to_dict(),
            "algorithm": self.algorithm,
            "policy": self.policy,
            "portfolio": self.portfolio,
            "time_limit": self.time_limit,
            "race": self.race,
            "deadline": self.deadline,
            "compute_optimum": self.compute_optimum,
            "max_jobs_for_optimum": self.max_jobs_for_optimum,
            "tags": dict(self.tags),
        }
