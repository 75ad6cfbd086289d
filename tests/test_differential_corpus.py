"""Differential corpus: every registered algorithm vs the oracle and bounds.

A seeded corpus drawn from all four generator families — random
(:mod:`busytime.generators.random_instances`), structured
(:mod:`busytime.generators.structured`), adversarial
(:mod:`busytime.generators.adversarial`) and optical
(:mod:`busytime.generators.optical_traffic` via the Section 4.2 reduction)
— is run through **every algorithm in the registry**, so a newly registered
algorithm gets oracle coverage for free, with no test to write:

* the produced schedule must pass :func:`verify_schedule` — the slow-path
  feasibility/cost oracle, which also cross-checks the sweep-profile fast
  path (`ProfileOracleMismatchError` on drift);
* its cost must respect the Observation 1.1 lower bound
  ``max(len(J)/g, span(J))``;
* FirstFit — the guarantee of last resort — must stay within factor ``g``
  of the lower bound (every schedule costs at most ``len(J)``, and
  ``len(J) <= g * len(J)/g <= g * LB``), a cheap pairwise sanity net that
  catches wildly broken cost accounting in any comparison experiment.

Algorithms are only run on instances their declared capabilities cover
(:meth:`Scheduler.handles`), mirroring the engine's selection rules.
"""

from __future__ import annotations

import importlib

import pytest

import busytime.core.events as events_module
from busytime.algorithms import get_scheduler
from busytime.algorithms.base import available_schedulers
from busytime.core.bounds import best_lower_bound
from busytime.core.instance import Instance
from busytime.core.schedule import verify_schedule
from busytime.generators import (
    bounded_length_instance,
    bursty_instance,
    clique_instance,
    firstfit_lower_bound_instance,
    laminar_instance,
    poisson_arrivals_instance,
    proper_instance,
    ranked_shift_proper_instance,
    stairs_instance,
    uniform_random_instance,
    uniform_traffic,
)
from busytime.optical import traffic_to_instance

# ``busytime.algorithms`` re-exports the ``first_fit`` *function* under the
# submodule's name, so go through importlib for the module object.
_ff_module = importlib.import_module("busytime.algorithms.first_fit")


def _optical_instance(seed: int) -> Instance:
    return traffic_to_instance(uniform_traffic(10, 30, 3, seed=seed))


#: The corpus: one entry per (family, construction).  Sizes stay small so
#: the full registry x corpus product remains tier-1 fast.
CORPUS = [
    # random family
    ("random-uniform", uniform_random_instance(40, 3, seed=0)),
    ("random-poisson", poisson_arrivals_instance(40, 3, seed=1)),
    ("random-bursty", bursty_instance(40, 4, seed=2)),
    # structured family
    ("structured-proper", proper_instance(30, 3, seed=3)),
    ("structured-clique", clique_instance(18, 3, seed=4)),
    ("structured-bounded", bounded_length_instance(30, 3, d=3.0, seed=5)),
    ("structured-laminar", laminar_instance(25, 3, seed=6)),
    ("structured-stairs", stairs_instance(24, 3)),
    # adversarial family
    ("adversarial-fig4", firstfit_lower_bound_instance(4)),
    ("adversarial-ranked-shift", ranked_shift_proper_instance(4)),
    # optical family (Section 4.2 reduction)
    ("optical-uniform", _optical_instance(7)),
]

ALGORITHMS = available_schedulers()


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_registry_algorithm_against_oracle_and_bounds(name, label, instance):
    scheduler = get_scheduler(name)
    if not scheduler.handles(instance):
        pytest.skip(f"{name} does not declare {label}'s instance class")
    schedule = scheduler(instance)
    # The slow-path oracle: feasibility, coverage, and the profile cross-check.
    verify_schedule(schedule)
    lb = best_lower_bound(instance)
    assert schedule.total_busy_time >= lb - 1e-9, (
        f"{name} on {label}: cost {schedule.total_busy_time} below the "
        f"Observation 1.1 bound {lb}"
    )


@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_firstfit_within_factor_g_of_lower_bound(label, instance):
    schedule = get_scheduler("first_fit")(instance)
    lb = best_lower_bound(instance)
    assert schedule.total_busy_time <= instance.g * lb + 1e-9, (
        f"first_fit on {label}: cost {schedule.total_busy_time} exceeds "
        f"g * LB = {instance.g * lb}"
    )


def _run_with_size_thresholds(monkeypatch, scheduler, instance, threshold):
    """Run ``scheduler`` with both scheduling array paths gated at
    ``threshold`` items, and read off everything the differential compares
    before the gates move again (machine profiles are built lazily)."""
    monkeypatch.setattr(events_module, "BULK_FROM_INTERVALS_MIN", threshold)
    monkeypatch.setattr(_ff_module, "BULK_FIRST_FIT_MIN", threshold)
    schedule = scheduler(instance)
    verify_schedule(schedule)
    verify_schedule(schedule, mode="batch")
    return (
        schedule.assignment(),
        [tuple(j.id for j in m.jobs) for m in schedule.machines],
        schedule.total_busy_time,
    )


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_array_paths_are_bit_for_bit(name, label, instance, monkeypatch):
    """Input size alone picks the numpy paths (``SweepProfile.from_intervals``
    from ``BULK_FROM_INTERVALS_MIN`` intervals, the FirstFit bitmask kernel
    from ``BULK_FIRST_FIT_MIN`` jobs), so they must change nothing: every
    registry algorithm on every corpus family produces the identical
    machine partition and per-machine job order with both gates forced
    down to one item as with both forced out of reach, and identical costs
    up to accumulation-order ulps (a kernel machine's covered length is
    summed by ``from_intervals``, a builder machine's insertion by
    insertion)."""
    scheduler = get_scheduler(name)
    if not scheduler.handles(instance):
        pytest.skip(f"{name} does not declare {label}'s instance class")
    arrays = _run_with_size_thresholds(monkeypatch, scheduler, instance, 1)
    builder = _run_with_size_thresholds(monkeypatch, scheduler, instance, 10**9)
    assert arrays[:2] == builder[:2], (
        f"{name} on {label}: array paths changed the schedule"
    )
    assert abs(arrays[2] - builder[2]) <= 1e-9 * max(1.0, builder[2])


def test_corpus_spans_all_structural_classes():
    """The corpus must keep exercising every classifier branch."""
    classes = {instance.classify() for _, instance in CORPUS}
    assert {"general", "proper", "clique", "laminar"} <= classes


def test_newly_registered_algorithm_is_covered():
    """The suite picks up registry additions with no test changes: the
    parametrisation is read from the live registry at collection time."""
    assert set(ALGORITHMS) == set(available_schedulers())
    assert "first_fit" in ALGORITHMS and "auto" in ALGORITHMS
