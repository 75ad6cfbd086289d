"""E19 — demand-aware FirstFit vs the demand-weighted lower bound ([15]-style corpus).

The follow-up model of Khandekar–Schieber–Shachnai–Tamir [15] gives every
job a capacity demand ``s_j``; a machine may host any job set whose total
demand at each instant is at most ``g``.  The core carries that model
first-class: ``Job.demand``, the demand-weighted ``SweepProfile``
counters and the demand-aware ``fits`` check the greedy family runs on.

This module regenerates the comparison:

* demand-aware FirstFit on a rigid [15]-style corpus
  (:func:`busytime.generators.demand_loaded_instance`) produces feasible
  schedules (validated by the demand-aware ``verify_schedule`` oracle)
  whose cost respects the demand-weighted Observation 1.1 bound
  ``combined_bound = max(span(J), sum len_j s_j / g)``;
* on these rigid instances ``best_lower_bound`` (which may refine the
  combined bound per component or on cliques) equals it exactly;
* the observed cost stays within the trivial ``len(J) <= g * LB`` net, the
  same last-resort inequality the rigid differential corpus pins.
"""

from __future__ import annotations

from busytime.algorithms.first_fit import first_fit
from busytime.core.bounds import best_lower_bound, combined_bound
from busytime.core.schedule import verify_schedule
from busytime.generators import demand_loaded_instance

CORPUS = [
    dict(n=200, g=4, seed=31),
    dict(n=400, g=6, seed=32),
    dict(n=800, g=8, seed=33),
]


def test_demand_firstfit_vs_combined_bound(benchmark, attach_rows):
    rows = []
    for params in CORPUS:
        inst = demand_loaded_instance(**params)
        assert inst.has_demands
        schedule = first_fit(inst)
        verify_schedule(schedule)  # demand-aware slow-path oracle
        lb = best_lower_bound(inst)
        assert lb == combined_bound(inst)
        assert schedule.total_busy_time >= lb - 1e-9
        # Last-resort net: cost <= len(J) <= sum len_j s_j = g * (len_s/g).
        assert schedule.total_busy_time <= inst.g * lb + 1e-9
        rows.append(
            {
                **params,
                "max_demand": inst.max_demand,
                "peak_demand": inst.peak_demand,
                "machines": schedule.num_machines,
                "cost": round(schedule.total_busy_time, 3),
                "lower_bound": round(lb, 3),
                "ratio_vs_lb": round(schedule.total_busy_time / lb, 3),
            }
        )

    timed = demand_loaded_instance(**CORPUS[-1])
    schedule = benchmark(lambda: first_fit(timed))
    verify_schedule(schedule)
    attach_rows(
        benchmark,
        rows,
        experiment="E19-demand-aware-firstfit",
        validated_by_verify_schedule=True,
    )


def test_unit_demand_corpus_is_unchanged_by_the_axis(benchmark, attach_rows):
    """A demand corpus capped at demand 1 is bit-for-bit the rigid workload:
    same partitions whether demands are spelled out or absent."""
    from busytime.core.instance import Instance
    from busytime.core.intervals import Job

    inst = demand_loaded_instance(n=400, g=4, max_demand=1, seed=34)
    assert not inst.has_demands
    stripped = Instance(
        jobs=tuple(Job(id=j.id, interval=j.interval) for j in inst.jobs),
        g=inst.g,
        name=inst.name,
    )
    direct = first_fit(stripped)
    spelled = benchmark(lambda: first_fit(inst))
    verify_schedule(spelled)
    assert spelled.assignment() == direct.assignment()
    assert spelled.total_busy_time == direct.total_busy_time
    attach_rows(
        benchmark,
        [
            {
                "n": 400,
                "g": 4,
                "seed": 34,
                "machines": spelled.num_machines,
                "cost": round(spelled.total_busy_time, 3),
            }
        ],
        experiment="E19-demand-aware-firstfit",
    )
