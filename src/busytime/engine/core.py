"""The solve-session engine: ``SolveRequest -> Engine -> SolveReport``.

Every entry point of the package — :func:`busytime.auto_schedule`, the
experiment harness, the CLI, the examples — routes scheduling work through
:class:`Engine`, the one place that implements the orchestration loop the
paper's algorithms need around them:

1. split the instance into connected components (Section 1.4 w.l.o.g.);
2. per component, rank the applicable registered algorithms via the request's
   selection policy (capability metadata, see :mod:`busytime.engine.policy`);
3. run the preferred algorithm — or, with ``portfolio=True``, every
   applicable portfolio algorithm — and keep the cheapest feasible schedule;
4. assemble the merged schedule, the Observation 1.1 lower bound, the
   per-component decisions, the proven-ratio certificate and timings into a
   :class:`~busytime.engine.report.SolveReport`.

:meth:`Engine.solve_many` is the batch path: it preserves request order and
optionally fans out across a ``concurrent.futures`` process pool.  Requests
and reports are plain frozen dataclasses, so the pool ships them with
ordinary pickling and the parallel results are identical to the serial ones
(all selectable algorithms are deterministic).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import Scheduler, get_scheduler
from ..core.instance import Instance, InstanceRows, connected_components
from ..core.objectives import CostModel
from ..core.schedule import Machine, Schedule
from .policy import DEFAULT_POLICY, SINGLE_MACHINE, SelectionPolicy, get_policy
from .report import ComponentDecision, SolveReport
from .request import RequestValidationError, SolveRequest

__all__ = ["Engine", "solve", "solve_many"]


def _single_machine_schedule(component: Instance) -> Schedule:
    """All jobs on one machine: cost ``span(J)``, matching the span bound,
    hence optimal — feasible exactly when the clique number is at most ``g``.
    Unverified, like every algorithm's output."""
    return Schedule(
        instance=component,
        machines=(Machine(index=0, jobs=component.jobs),),
        algorithm=SINGLE_MACHINE,
        meta={"optimal": True},
    )


def _solve_component(
    component: Instance,
    portfolio: bool,
    policy: SelectionPolicy,
    objective: str,
    model: CostModel,
) -> Tuple[ComponentDecision, Schedule]:
    """Best schedule for one connected component under the given policy.

    Candidates are ranked for the requested *problem model* (objective +
    demand-awareness, see :meth:`Scheduler.handles`) and compared by their
    cost under the request's :class:`~busytime.core.objectives.CostModel` —
    for the default model that comparison is bit-for-bit the seed's
    total-busy-time comparison.
    """
    ranked = policy.rank(component, objective, model=model)
    if not ranked:
        raise RequestValidationError(
            f"no registered algorithm covers objective {objective!r} on "
            f"component {component.name or '(unnamed)'}"
            + (" (instance carries capacity demands)" if component.has_demands else "")
        )
    if ranked[0] == SINGLE_MACHINE:
        sched = _single_machine_schedule(component)
        decision = ComponentDecision(
            component=component.name,
            n=component.n,
            algorithm=SINGLE_MACHINE,
            cost=model.schedule_cost(sched),
            proven_ratio=1.0,
        )
        return decision, sched

    if portfolio:
        names = [n for n in ranked if get_scheduler(n).portfolio_member]
        if not names:
            # Every ranked algorithm opted out of the portfolio (possible
            # for a runtime objective whose only declarer is a
            # post-optimiser): run the policy's single pick rather than
            # handing min() an empty candidate list.
            names = [ranked[0]]
    else:
        names = [ranked[0]]
    # FirstFit is the guarantee of last resort wherever its declared
    # capabilities cover the component's problem model (always, for the
    # built-in objectives).
    if "first_fit" not in names and get_scheduler("first_fit").handles(
        component, objective
    ):
        names.append("first_fit")

    candidates = [
        (name, get_scheduler(name).schedule_under(component, model)) for name in names
    ]
    name, best = min(candidates, key=lambda c: model.schedule_cost(c[1]))
    # The kept schedule costs no more than any candidate's, so the best
    # guarantee among the candidates certifies it — provided the cost model
    # preserves busy-time ratios (a pure rescaling) *and* the instance is
    # rigid: the paper's approximation proofs cover the unit-demand model
    # only, so demand-carrying components get no certificate.
    proven = None
    if model.preserves_busy_time_ratios and not component.has_demands:
        proven = min(
            (
                get_scheduler(n).approximation_ratio
                for n in names
                if get_scheduler(n).approximation_ratio is not None
            ),
            default=None,
        )
    decision = ComponentDecision(
        component=component.name,
        n=component.n,
        algorithm=name,
        cost=model.schedule_cost(best),
        proven_ratio=proven,
    )
    return decision, best


class Engine:
    """Facade turning :class:`SolveRequest` objects into :class:`SolveReport` s.

    The engine is stateless apart from its default policy name, so one
    instance can be shared freely (and worker processes rebuild an equivalent
    one from nothing).
    """

    def __init__(self, default_policy: str = DEFAULT_POLICY) -> None:
        get_policy(default_policy)  # fail fast on unknown names
        self.default_policy = default_policy

    # -- single request -------------------------------------------------------

    def solve(
        self,
        request: SolveRequest,
        scheduler: Optional[Callable[[Instance], Schedule]] = None,
        *,
        deadline: Optional[float] = None,
        race: Optional[int] = None,
        executor=None,
    ) -> SolveReport:
        """Solve one request.

        ``scheduler`` optionally supplies the scheduling callable out of
        band (the experiment harness measures arbitrary callables this way);
        ``request.algorithm`` then only labels the report.

        ``deadline`` and ``race`` override the request's corresponding
        fields (convenience for callers holding a plain request):
        ``race >= 2`` races the policy's top candidates on the whole
        instance (see :mod:`busytime.portfolio.racer`) under the shared
        wall-clock ``deadline``.  ``executor`` optionally supplies a
        ``concurrent.futures`` executor for the race's candidates; without
        one they run serially in rank order (same winner either way —
        racing is deterministic except under deadline truncation).
        """
        if race is not None or deadline is not None:
            request = replace(
                request,
                race=request.race if race is None else race,
                deadline=request.deadline if deadline is None else deadline,
            )
        if isinstance(request.instance, InstanceRows):
            # Parsed rows (a served request): build the Instance once, here.
            request = replace(request, instance=request.instance.to_instance())
        request.validate(check_algorithm=scheduler is None)
        started = time.monotonic()
        timings: Dict[str, float] = {}
        policy_name = request.policy or self.default_policy
        model = request.resolved_cost_model()

        forced = scheduler is not None or request.algorithm is not None
        if forced and scheduler is None and get_scheduler(request.algorithm).composite:
            # A forced *composite* (the "auto" dispatcher) is the engine's
            # own dispatch loop wearing a registry name; running it through
            # its plain `instance -> Schedule` function would rebuild a
            # default request and silently drop this request's objective,
            # cost model, policy and portfolio flag.  Route it through the
            # dispatcher directly so the problem model travels intact.
            forced = False
        if forced:
            report = self._solve_forced(request, scheduler, policy_name, timings, model)
        elif request.race >= 2 and request.instance.n > 0:
            report = self._solve_raced(request, policy_name, timings, model, executor)
        else:
            report = self._solve_dispatched(request, policy_name, timings, model)

        lb_started = time.monotonic()
        # The model lower bound: exactly the Observation 1.1 bound under the
        # default model, activation/rate-priced otherwise.
        lower_bound = model.lower_bound(request.instance)
        timings["lower_bound"] = time.monotonic() - lb_started

        optimum: Optional[float] = None
        if (
            request.compute_optimum
            and request.instance.n <= request.max_jobs_for_optimum
            # The exact solvers minimise busy time; their answer is the
            # model optimum only when the model is a positive rescaling of
            # busy time (activation-priced optima need a different search).
            and model.preserves_busy_time_ratios
            # They also assume fixed intervals and no site cap: on a flex
            # instance their value is the *fixed-placement* optimum, which
            # neither bounds nor certifies the placed one.
            and not request.instance.is_flex
        ):
            from ..exact import exact_optimal_cost

            opt_started = time.monotonic()
            optimum = exact_optimal_cost(
                request.instance,
                initial_upper_bound=report.schedule.total_busy_time,
                max_jobs=request.max_jobs_for_optimum,
            )
            # Price the busy-time optimum under the model (a no-op rescale
            # for the default model: * 1.0 is exact).
            optimum = model.price_busy_time(optimum)
            timings["optimum"] = time.monotonic() - opt_started

        timings["total"] = time.monotonic() - started
        return replace(
            report,
            lower_bound=lower_bound,
            optimum=optimum,
            objective=request.objective,
            objective_value=model.schedule_cost(report.schedule),
            timings=dict(timings),
            tags=dict(request.tags),
        )

    def _solve_forced(
        self,
        request: SolveRequest,
        scheduler: Optional[Callable[[Instance], Schedule]],
        policy_name: str,
        timings: Dict[str, float],
        model: CostModel,
    ) -> SolveReport:
        """Run one named (or supplied) algorithm on the whole instance."""
        if scheduler is None:
            scheduler = get_scheduler(request.algorithm)
        label = request.algorithm or getattr(scheduler, "name", "custom")
        started = time.monotonic()
        if isinstance(scheduler, Scheduler):
            # Registered algorithms receive the resolved cost model (the
            # tariff travels on the model); plain callables keep the bare
            # ``instance -> Schedule`` contract.
            schedule = scheduler.schedule_under(request.instance, model)
        else:
            schedule = scheduler(request.instance)
        timings["schedule"] = time.monotonic() - started
        # The one oracle pass on what the caller is handed.
        schedule.validate()
        proven: Optional[float] = None
        if (
            isinstance(scheduler, Scheduler)
            and model.preserves_busy_time_ratios
            # The paper's ratio proofs cover the rigid (unit-demand) model
            # only; demand-carrying instances get no certificate.
            and not request.instance.has_demands
            and scheduler.handles(request.instance, request.objective)
        ):
            proven = scheduler.approximation_ratio
        return SolveReport(
            schedule=schedule,
            algorithm=label,
            policy=policy_name,
            portfolio=False,
            lower_bound=0.0,
            proven_ratio=proven,
        )

    def _solve_raced(
        self,
        request: SolveRequest,
        policy_name: str,
        timings: Dict[str, float],
        model: CostModel,
        executor,
    ) -> SolveReport:
        """Portfolio race on the whole instance (see the racer's contracts).

        The racer runs :func:`~busytime.core.schedule.verify_schedule` once
        on every candidate that finishes, and only a verified candidate can
        win, so the winner gets no second pass here.
        """
        from ..portfolio.racer import race_candidates

        started = time.monotonic()
        report = race_candidates(request, policy_name, model, executor=executor)
        timings["schedule"] = time.monotonic() - started
        return report

    def _solve_dispatched(
        self,
        request: SolveRequest,
        policy_name: str,
        timings: Dict[str, float],
        model: CostModel,
    ) -> SolveReport:
        """Component-wise dispatch through the selection policy."""
        instance = request.instance
        policy = get_policy(policy_name)
        started = time.monotonic()
        deadline = (
            started + request.time_limit if request.time_limit is not None else None
        )

        if instance.n == 0:
            timings["schedule"] = time.monotonic() - started
            return SolveReport(
                schedule=Schedule(instance=instance, machines=(), algorithm="auto"),
                algorithm="auto",
                policy=policy_name,
                portfolio=request.portfolio,
                lower_bound=0.0,
                proven_ratio=1.0,
            )

        machines: List[Machine] = []
        decisions: List[ComponentDecision] = []
        budget_exhausted = False
        for component in connected_components(instance):
            if deadline is not None and time.monotonic() >= deadline:
                # Budget gone: fall back to the cheapest-to-compute guarantee
                # algorithm so the solve still returns a feasible schedule
                # (FirstFit is demand-aware and declares every built-in
                # objective, so the fallback covers the whole model axis).
                budget_exhausted = True
                if not get_scheduler("first_fit").handles(
                    component, request.objective
                ):
                    # A runtime-registered objective FirstFit never
                    # declared: the no-coverage outcome must not depend on
                    # whether the deadline beat the component — run the
                    # policy's single pick (which raises the same
                    # RequestValidationError when nothing covers it).
                    decision, sched = _solve_component(
                        component, False, policy, request.objective, model
                    )
                else:
                    sched = get_scheduler("first_fit").schedule_under(component, model)
                    decision = ComponentDecision(
                        component=component.name,
                        n=component.n,
                        algorithm="first_fit",
                        cost=model.schedule_cost(sched),
                        proven_ratio=(
                            get_scheduler("first_fit").approximation_ratio
                            if model.preserves_busy_time_ratios
                            and not component.has_demands
                            else None
                        ),
                    )
            else:
                decision, sched = _solve_component(
                    component, request.portfolio, policy, request.objective, model
                )
            decisions.append(decision)
            for m in sched.machines:
                machines.append(Machine(index=len(machines), jobs=m.jobs))
        timings["schedule"] = time.monotonic() - started

        schedule = Schedule(
            instance=instance,
            machines=tuple(machines),
            algorithm="auto",
            meta={
                "components": [d.as_dict() for d in decisions],
                "portfolio": request.portfolio,
            },
        )
        # The one oracle pass on what the caller is handed: the component
        # schedules were not verified on their own.
        schedule.validate()
        ratios = [d.proven_ratio for d in decisions]
        # Component optima add up, so the worst per-component guarantee
        # certifies the merged schedule.
        proven = max(ratios) if all(r is not None for r in ratios) else None
        return SolveReport(
            schedule=schedule,
            algorithm="auto",
            policy=policy_name,
            portfolio=request.portfolio,
            lower_bound=0.0,
            components=tuple(decisions),
            proven_ratio=proven,
            budget_exhausted=budget_exhausted,
        )

    # -- batch ----------------------------------------------------------------

    def solve_many(
        self,
        requests: Sequence[SolveRequest],
        max_workers: Optional[int] = None,
        chunksize: int = 1,
    ) -> List[SolveReport]:
        """Solve a batch of requests, preserving input order.

        **Order is part of the contract**: ``reports[i]`` answers
        ``requests[i]``, always.  This holds on the serial path, on the
        process-pool path (``pool.map`` is order-preserving regardless of
        task completion order), and for *mixed* batches where some
        requests race (``race >= 2``) and others dispatch a single
        candidate — a racing request that outlives its slower neighbours
        never shifts anyone's slot.  Raced requests run their candidates
        serially inside their worker (no pool-in-pool); their winners are
        the same as an executor-backed race would pick, because race
        winners are timing-independent by construction.

        ``max_workers`` > 1 fans the batch out across a process pool (one
        request per task, ``chunksize`` tunable for many small instances).
        Callers that batch repeatedly submit :func:`_pool_worker` tasks to
        their own long-lived pool instead (the service layer's
        ``_solve_batch`` does), amortising pool startup across batches.
        All selectable algorithms are deterministic, so the parallel path
        returns the same reports as the serial one, modulo wall-clock
        timings.

        Workers inherit the parent's registry via the ``fork`` start method
        where the platform offers it; elsewhere (spawn/forkserver) workers
        re-import the package from scratch, so algorithms and policies
        registered at *runtime* (e.g. via the ``register_scheduler``
        decorator in a script) are only available to the pool on fork
        platforms — register them at import time (in a module workers also
        import) to be portable.
        """
        prepared = []
        for request in requests:
            request.validate()
            if request.policy is None:
                # Resolve the engine's default into the request itself: the
                # pool workers rebuild their own engines, so the policy must
                # travel with the (picklable) request, never via engine state.
                request = replace(request, policy=self.default_policy)
            prepared.append(request)
        if max_workers is not None and max_workers > 1 and len(prepared) > 1:
            mp_context = None
            if "fork" in multiprocessing.get_all_start_methods():
                mp_context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=max_workers, mp_context=mp_context
            ) as pool:
                return list(pool.map(_pool_worker, prepared, chunksize=chunksize))
        return [self.solve(request) for request in prepared]


_WORKER_ENGINE: Optional[Engine] = None


def _pool_worker(request: SolveRequest) -> SolveReport:
    """Top-level (picklable) worker for the process-pool batch path.

    One engine is built per worker process and reused across tasks, instead
    of constructing (and re-validating) a fresh one per request.  The
    engine's own default policy is irrelevant here: ``solve_many`` resolves
    the parent's default into every shipped request before submission.
    """
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        _WORKER_ENGINE = Engine()
    return _WORKER_ENGINE.solve(request)


_DEFAULT_ENGINE: Optional[Engine] = None


def _default_engine() -> Engine:
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def solve(
    request: SolveRequest,
    scheduler: Optional[Callable[[Instance], Schedule]] = None,
    *,
    deadline: Optional[float] = None,
    race: Optional[int] = None,
    executor=None,
) -> SolveReport:
    """Module-level convenience: solve one request with the default engine."""
    return _default_engine().solve(
        request, scheduler=scheduler, deadline=deadline, race=race, executor=executor
    )


def solve_many(
    requests: Sequence[SolveRequest],
    max_workers: Optional[int] = None,
    chunksize: int = 1,
) -> List[SolveReport]:
    """Module-level convenience: batch solve with the default engine."""
    return _default_engine().solve_many(
        requests, max_workers=max_workers, chunksize=chunksize
    )
