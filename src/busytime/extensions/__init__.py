"""Extensions beyond the paper's core results.

* :mod:`busytime.extensions.dynamic` — dynamic workloads with churn: job
  departures, rolling-horizon re-optimization through the solve engine and
  migration-budget policies, replayed over arrive/depart event traces; its
  arrival-only special case gives the online schedulers
  (:data:`ONLINE_ALGORITHMS`) that measure the price of irrevocable
  decisions.
* the flex model of the cited follow-up work [15] — release times,
  deadlines and capacity demands — is part of the core
  (:class:`busytime.core.intervals.Job`); its fix-then-pack heuristic is
  :func:`busytime.algorithms.placement.anchor_first_fit`.
* ring-topology grooming (the direction of [9]) lives with the rest of the
  optical application in :mod:`busytime.optical.ring`.
"""

from .dynamic import (
    ONLINE_ALGORITHMS,
    MigrationBudget,
    NeverMigrate,
    RollingHorizon,
    SimulationPolicy,
    SimulationReport,
    Simulator,
    online_best_fit,
    online_first_fit,
    online_next_fit,
    simulate,
    standard_policies,
)

__all__ = [
    "online_first_fit",
    "online_best_fit",
    "online_next_fit",
    "ONLINE_ALGORITHMS",
    "SimulationPolicy",
    "NeverMigrate",
    "RollingHorizon",
    "MigrationBudget",
    "SimulationReport",
    "Simulator",
    "simulate",
    "standard_policies",
]
