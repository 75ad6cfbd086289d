"""busytime — minimizing total busy time in parallel (interval) scheduling.

A faithful, laptop-scale reproduction of

    M. Flammini, G. Monaco, L. Moscardelli, H. Shachnai, M. Shalom, T. Tamir,
    S. Zaks.  *Minimizing total busy time in parallel scheduling with
    application to optical networks.*  IPDPS 2009 / Theoretical Computer
    Science 411 (2010) 3553-3562.

The package provides:

* the core data model (:mod:`busytime.core`): intervals, jobs, instances,
  schedules and the Observation 1.1 lower bounds;
* the paper's algorithms (:mod:`busytime.algorithms`): FirstFit
  (4-approximation, Section 2), the NextFit greedy for proper interval
  graphs (2-approximation, Section 3.1), Bounded_Length ((2+eps), Section
  3.2), the clique algorithm (2-approximation, Appendix), plus baselines and
  an auto-dispatching portfolio;
* exact solvers for small instances (:mod:`busytime.exact`), used as OPT
  references;
* the optical-network application (:mod:`busytime.optical`): traffic
  grooming / regenerator minimisation on path networks via the Section 4
  reduction;
* instance generators (:mod:`busytime.generators`) including the Fig. 4
  adversarial family, and an experiment harness (:mod:`busytime.analysis`);
* the solve-session engine (:mod:`busytime.engine`): one request/response
  API — ``SolveRequest -> Engine -> SolveReport`` — shared by the CLI, the
  experiment harness and the examples, with per-component algorithm
  selection, portfolio execution, batch fan-out and structured reports;
* the service layer (:mod:`busytime.service`): solve-as-a-service on top
  of the engine — canonical request fingerprints (invariant under job
  relabeling and time translation), a content-addressed result cache,
  in-flight dedupe, micro-batching, and a stdlib HTTP frontend behind
  ``busytime serve`` / ``busytime submit``;
* the portfolio layer (:mod:`busytime.portfolio`): anytime racing of the
  top ranked candidates under a shared deadline (``SolveRequest(race=…,
  deadline=…)``).

Quick start::

    from busytime import Engine, Instance, SolveRequest

    inst = Instance.from_intervals([(0, 3), (1, 4), (2, 6), (5, 9)], g=2)
    report = Engine().solve(SolveRequest(instance=inst))
    print(report.cost, report.num_machines, report.lower_bound)
    for decision in report.components:       # which algorithm ran where
        print(decision.component, decision.algorithm, decision.proven_ratio)

The batch path fans out across instances (optionally in a process pool)::

    reports = Engine().solve_many(requests, max_workers=4)

Individual algorithms remain available as plain functions
(``first_fit(inst) -> Schedule``) and through the registry
(:func:`get_scheduler`); :func:`auto_schedule` is a thin wrapper returning
just the engine's schedule.
"""

from .algorithms import (
    algorithm_table,
    auto_schedule,
    available_schedulers,
    best_fit,
    bounded_length,
    clique_schedule,
    first_fit,
    get_scheduler,
    machine_minimizing,
    next_fit_by_start,
    proper_greedy,
    random_assignment,
    select_algorithm,
    singleton,
)
from .core import (
    CostModel,
    Instance,
    Interval,
    Job,
    Machine,
    Schedule,
    ScheduleBuilder,
    best_lower_bound,
    combined_bound,
    connected_components,
    get_cost_model,
    parallelism_bound,
    register_objective,
    registered_objectives,
    span,
    span_bound,
    total_demand_length,
    total_length,
)
from .engine import (
    Engine,
    RequestValidationError,
    SolveReport,
    SolveRequest,
    solve,
    solve_many,
)
from .exact import branch_and_bound_optimum, brute_force_optimum, exact_optimal_cost, exact_optimum
from .optical import (
    Lightpath,
    PathNetwork,
    Traffic,
    WavelengthAssignment,
    groom,
    traffic_to_instance,
)
from . import portfolio
from .portfolio import race_candidates

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Interval",
    "Job",
    "Instance",
    "Machine",
    "Schedule",
    "ScheduleBuilder",
    "connected_components",
    "span",
    "total_length",
    "parallelism_bound",
    "span_bound",
    "combined_bound",
    "best_lower_bound",
    "total_demand_length",
    "CostModel",
    "get_cost_model",
    "register_objective",
    "registered_objectives",
    # algorithms
    "first_fit",
    "proper_greedy",
    "clique_schedule",
    "bounded_length",
    "auto_schedule",
    "select_algorithm",
    "machine_minimizing",
    "next_fit_by_start",
    "best_fit",
    "singleton",
    "random_assignment",
    "get_scheduler",
    "available_schedulers",
    "algorithm_table",
    # engine
    "Engine",
    "SolveRequest",
    "SolveReport",
    "RequestValidationError",
    "solve",
    "solve_many",
    # exact
    "exact_optimum",
    "exact_optimal_cost",
    "branch_and_bound_optimum",
    "brute_force_optimum",
    # portfolio
    "portfolio",
    "race_candidates",
    # optical
    "PathNetwork",
    "Lightpath",
    "Traffic",
    "WavelengthAssignment",
    "traffic_to_instance",
    "groom",
]
