"""The problem-model axis: pluggable objectives + demand-aware capacity.

Four layers of coverage:

* **Cost models** — the frozen :class:`CostModel`, the objective registry,
  serialisation, and the exact degeneration of the default model to the
  seed's total-busy-time semantics.
* **Demand-aware core** — feasibility, bounds and the exact solver under
  the [15] capacity model, cross-checked against the slow-path oracle.
* **Differential regression** — on the existing differential corpus, every
  registered algorithm under unit demands and the default ``busy_time``
  model must reproduce the seed behaviour bit-for-bit: identical machine
  partitions and exactly equal (``==``, not approx) costs whether invoked
  directly, through the engine, or priced through the default model; the
  FirstFit partition additionally matches a preserved copy of the seed's
  clip-and-rescan implementation.
* **Routing** — selection policies and request validation route
  demand-carrying or non-default-objective work only to algorithms that
  declare support; fingerprints distinguish cost models and demands and
  are stable across a process restart.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import List, Optional

import pytest

from busytime import Engine, Instance, SolveRequest
from busytime.algorithms.base import (
    FunctionScheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
)
from busytime.algorithms.first_fit import first_fit, first_fit_order
from busytime.core.bounds import (
    best_lower_bound,
    min_machines_bound,
    parallelism_bound,
)
from busytime.core.instance import Instance
from busytime.core.intervals import (
    Interval,
    Job,
    max_point_demand,
    max_point_load,
)
from busytime.core.objectives import (
    CostModel,
    get_cost_model,
    register_objective,
    registered_objectives,
)
from busytime.core.schedule import InfeasibleScheduleError, verify_schedule
from busytime.engine import RequestValidationError
from busytime.engine.policy import get_policy
from busytime.exact import exact_optimal_cost
from busytime.generators import demand_loaded_instance, uniform_random_instance
from busytime.service.canonical import request_fingerprint

from test_differential_corpus import CORPUS


def _demand_instance(n: int = 20, g: int = 4, seed: int = 5) -> Instance:
    return demand_loaded_instance(n, g, seed=seed)


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_registry_defaults(self):
        assert registered_objectives()[0] == "busy_time"
        assert set(registered_objectives()) >= {
            "busy_time",
            "weighted_busy_time",
            "machines_plus_busy",
        }
        assert get_cost_model("machines_plus_busy").activation_cost == 1.0
        with pytest.raises(KeyError, match="unknown objective"):
            get_cost_model("nope")

    def test_default_model_is_seed_semantics_exactly(self):
        inst = uniform_random_instance(60, 3, seed=9)
        schedule = first_fit(inst)
        model = get_cost_model("busy_time")
        # Exact equality, not approx: 0.0 + 1.0 * b is exact in IEEE floats
        # and the summation order matches total_busy_time.
        assert schedule.cost_under(model) == schedule.total_busy_time
        assert model.lower_bound(inst) == best_lower_bound(inst)

    def test_machines_plus_busy_prices_activation(self):
        inst = uniform_random_instance(40, 3, seed=2)
        schedule = first_fit(inst)
        model = get_cost_model("machines_plus_busy")
        assert schedule.cost_under(model) == pytest.approx(
            schedule.num_machines + schedule.total_busy_time
        )
        assert model.lower_bound(inst) == pytest.approx(
            min_machines_bound(inst) + best_lower_bound(inst)
        )

    def test_weighted_model_scales(self):
        inst = uniform_random_instance(30, 3, seed=4)
        schedule = first_fit(inst)
        model = CostModel(objective="weighted_busy_time", busy_rate=2.5)
        assert schedule.cost_under(model) == pytest.approx(
            2.5 * schedule.total_busy_time
        )
        assert model.preserves_busy_time_ratios
        assert not get_cost_model("machines_plus_busy").preserves_busy_time_ratios

    def test_serialisation_round_trip_and_validation(self):
        model = CostModel(
            objective="machines_plus_busy",
            activation_cost=3.0,
            busy_rate=0.5,
            machine_weight=2.0,
        )
        assert CostModel.from_dict(model.to_dict()) == model
        with pytest.raises(ValueError, match="unknown cost-model fields"):
            CostModel.from_dict({"objective": "busy_time", "surprise": 1})
        with pytest.raises(ValueError, match="must be a number"):
            CostModel.from_dict({"busy_rate": "fast"})
        with pytest.raises(ValueError):
            CostModel(activation_cost=-1.0)
        with pytest.raises(ValueError):
            CostModel(machine_weight=0.0)

    def test_runtime_registered_objective_is_requestable(self):
        name = "test_runtime_objective"
        if name not in registered_objectives():
            register_objective(CostModel(objective=name, busy_rate=7.0))
        assert name in registered_objectives()
        # No algorithm declares it, so dispatch must refuse loudly...
        inst = uniform_random_instance(12, 2, seed=1)
        with pytest.raises(RequestValidationError, match="no registered algorithm"):
            Engine().solve(SolveRequest(instance=inst, objective=name))
        # ...unless the structural single-machine shortcut applies (one
        # machine is optimal under every model).
        clique = Instance.from_intervals([(0, 4), (1, 5)], g=2, name="tiny")
        report = Engine().solve(SolveRequest(instance=clique, objective=name))
        assert report.objective == name
        assert report.objective_value == pytest.approx(7.0 * report.cost)


# ---------------------------------------------------------------------------
# Demand-aware core
# ---------------------------------------------------------------------------


class TestDemandAwareCore:
    def test_job_demand_validation(self):
        with pytest.raises(ValueError, match="demand must be >= 1"):
            Job(id=0, interval=Interval(0, 1), demand=0)
        with pytest.raises(ValueError, match="must be an integer"):
            Job(id=0, interval=Interval(0, 1), demand=1.5)
        with pytest.raises(ValueError, match="can never be scheduled"):
            Instance(jobs=(Job(id=0, interval=Interval(0, 1), demand=3),), g=2)

    def test_demand_feasibility_is_sum_not_cardinality(self):
        # Two demand-2 jobs overlap: cardinality 2 <= g=3 but demand 4 > 3.
        jobs = (
            Job(id=0, interval=Interval(0, 4), demand=2),
            Job(id=1, interval=Interval(2, 6), demand=2),
        )
        inst = Instance(jobs=jobs, g=3)
        schedule = first_fit(inst)
        verify_schedule(schedule)
        assert schedule.num_machines == 2  # one machine would be overloaded
        from busytime.core.schedule import Machine, Schedule

        bad = Schedule(
            instance=inst,
            machines=(Machine(index=0, jobs=jobs),),
            algorithm="bad",
        )
        with pytest.raises(InfeasibleScheduleError, match="total demand"):
            bad.validate()

    def test_unit_demand_degenerates_to_cardinality(self):
        inst = uniform_random_instance(80, 3, seed=7)
        assert not inst.has_demands
        assert inst.peak_demand == inst.clique_number
        assert inst.total_demand_length == inst.total_length
        assert parallelism_bound(inst) == inst.total_length / inst.g

    def test_demand_bounds_and_exact_optimum(self):
        inst = _demand_instance(n=10, g=3, seed=11)
        lb = best_lower_bound(inst)
        assert lb >= inst.total_demand_length / inst.g - 1e-9
        opt = exact_optimal_cost(inst, max_jobs=12)
        assert opt >= lb - 1e-9
        schedule = first_fit(inst)
        verify_schedule(schedule)
        assert schedule.total_busy_time >= opt - 1e-9
        # The demand oracle agrees machine by machine.
        for m in schedule.machines:
            assert m.peak_demand == max_point_demand(m.jobs) <= inst.g

    def test_engine_demand_end_to_end(self):
        inst = _demand_instance(n=40, g=4, seed=13)
        report = Engine().solve(SolveRequest(instance=inst))
        report.schedule.validate()
        assert report.cost >= report.lower_bound - 1e-9
        # Only demand-aware algorithms may appear in the decisions.
        for decision in report.components:
            if decision.algorithm == "single_machine":
                continue
            assert get_scheduler(decision.algorithm).demand_aware


# ---------------------------------------------------------------------------
# Differential regression: unit demand + default model == seed, bit for bit
# ---------------------------------------------------------------------------


def _seed_fits(machine_jobs: List[Job], job: Job, g: int) -> bool:
    """The seed's clip-and-rescan feasibility check, preserved verbatim."""
    clipped: List[Interval] = []
    for other in machine_jobs:
        inter = other.interval.intersection(job.interval)
        if inter is not None:
            clipped.append(inter)
    if len(clipped) < g:
        return True
    return max_point_load(clipped) <= g - 1


def _seed_first_fit_partition(instance: Instance) -> List[List[Job]]:
    """The seed FirstFit loop over the preserved cardinality check."""
    machines: List[List[Job]] = []
    for job in first_fit_order(instance.jobs):
        target: Optional[int] = None
        for idx, mjobs in enumerate(machines):
            if _seed_fits(mjobs, job, instance.g):
                target = idx
                break
        if target is None:
            machines.append([job])
        else:
            machines[target].append(job)
    return machines


@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_firstfit_reproduces_seed_partition_bit_for_bit(label, instance):
    """The demand generalisation must not move a single job on the rigid
    corpus: same machines, same contents, same order, same exact cost."""
    seed_partition = _seed_first_fit_partition(instance)
    schedule = first_fit(instance)
    assert [[j.id for j in m.jobs] for m in schedule.machines] == [
        [j.id for j in m] for m in seed_partition
    ]
    from busytime.core.intervals import span

    # Same cost up to the float-summation grouping difference between the
    # maintained profile measure and a from-scratch span regrouping — the
    # exact tolerance verify_schedule's oracle cross-check enforces.
    seed_cost = sum(span(m) for m in seed_partition)
    assert abs(schedule.total_busy_time - seed_cost) <= 1e-9 * max(1.0, seed_cost)


@pytest.mark.parametrize("name", available_schedulers())
@pytest.mark.parametrize("label,instance", CORPUS, ids=[c[0] for c in CORPUS])
def test_registry_algorithms_are_stable_under_the_model_axis(name, label, instance):
    """Direct call, engine-forced solve and default-model pricing agree
    exactly (same assignments, same ``==`` cost) on unit-demand instances."""
    scheduler = get_scheduler(name)
    if not scheduler.handles(instance):
        pytest.skip(f"{name} does not declare {label}'s instance class")
    direct = scheduler(instance)
    again = scheduler(instance)
    assert direct.assignment() == again.assignment(), f"{name} is unstable"
    assert direct.total_busy_time == again.total_busy_time
    model = get_cost_model("busy_time")
    assert direct.cost_under(model) == direct.total_busy_time
    report = Engine().solve(
        SolveRequest(instance=instance, algorithm=name)
    )
    assert report.schedule.assignment() == direct.assignment()
    assert report.cost == direct.total_busy_time
    assert report.objective == "busy_time"
    assert report.objective_value == report.cost


def test_fingerprints_stable_across_process_restart(tmp_path):
    """Canonical fingerprints are content hashes, not process artifacts."""
    instances = {
        "rigid": CORPUS[0][1],
        "demand": _demand_instance(n=15, g=3, seed=17),
    }
    script = tmp_path / "fp.py"
    script.write_text(
        "import json, sys\n"
        "from busytime import SolveRequest\n"
        "from busytime.io import instance_from_dict\n"
        "from busytime.service.canonical import request_fingerprint\n"
        "docs = json.load(open(sys.argv[1]))\n"
        "out = {k: request_fingerprint(SolveRequest(\n"
        "    instance=instance_from_dict(doc),\n"
        "    objective='machines_plus_busy' if k == 'demand' else 'busy_time',\n"
        ")) for k, doc in docs.items()}\n"
        "print(json.dumps(out))\n"
    )
    from busytime.io import instance_to_dict

    payload = tmp_path / "instances.json"
    payload.write_text(
        json.dumps({k: instance_to_dict(v) for k, v in instances.items()})
    )
    local = {
        k: request_fingerprint(
            SolveRequest(
                instance=inst,
                objective="machines_plus_busy" if k == "demand" else "busy_time",
            )
        )
        for k, inst in instances.items()
    }
    import os
    import pathlib

    repo_root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    result = subprocess.run(
        [sys.executable, str(script), str(payload)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=str(repo_root),
    )
    assert json.loads(result.stdout) == local


def test_fingerprint_distinguishes_demands_and_cost_models():
    base = uniform_random_instance(10, 3, seed=21)
    demanding = Instance(
        jobs=tuple(
            Job(id=j.id, interval=j.interval, demand=2 if j.id == 0 else 1)
            for j in base.jobs
        ),
        g=3,
        name=base.name,
    )
    fp = request_fingerprint(SolveRequest(instance=base))
    assert fp != request_fingerprint(SolveRequest(instance=demanding))
    assert fp != request_fingerprint(
        SolveRequest(instance=base, objective="weighted_busy_time")
    )
    assert request_fingerprint(
        SolveRequest(instance=base, objective="weighted_busy_time")
    ) != request_fingerprint(
        SolveRequest(
            instance=base,
            objective="weighted_busy_time",
            cost_model=CostModel(objective="weighted_busy_time", busy_rate=2.0),
        )
    )
    # Spelling out the registered default changes nothing.
    assert fp == request_fingerprint(
        SolveRequest(instance=base, cost_model=get_cost_model("busy_time"))
    )


# ---------------------------------------------------------------------------
# Routing + registration validation
# ---------------------------------------------------------------------------


class TestRouting:
    def test_policies_route_demands_only_to_demand_aware(self):
        inst = _demand_instance(n=30, g=3, seed=23)
        assert inst.peak_demand > inst.g  # no single-machine shortcut
        for policy_name in ("best_ratio", "first_fit"):
            ranked = get_policy(policy_name).rank(inst)
            assert ranked, policy_name
            for name in ranked:
                assert get_scheduler(name).demand_aware, (policy_name, name)

    def test_policies_route_objectives_only_to_declarers(self):
        inst = uniform_random_instance(30, 2, seed=25)
        assert inst.clique_number > inst.g
        ranked = get_policy("best_ratio").rank(inst, "machines_plus_busy")
        assert ranked
        for name in ranked:
            assert get_scheduler(name).supports_objective("machines_plus_busy")
        # The activation-priced objective additionally ranks its natural
        # ratio-less declarer so the portfolio can let it win on machine
        # count; ratio-carrying candidates still come first.
        assert "machine_min" in ranked
        assert ranked.index("first_fit") < ranked.index("machine_min")
        default_ranked = get_policy("best_ratio").rank(inst)
        assert "machine_min" not in default_ranked

    def test_activation_heavy_pricing_can_pick_machine_min(self):
        """With a large activation cost the portfolio's model-priced
        comparison must be able to prefer the machine-count minimiser."""
        inst = uniform_random_instance(40, 3, seed=35)
        model = CostModel(objective="machines_plus_busy", activation_cost=1000.0)
        report = Engine().solve(
            SolveRequest(
                instance=inst, objective="machines_plus_busy", cost_model=model
            )
        )
        ff = Engine().solve(SolveRequest(instance=inst, algorithm="first_fit"))
        assert report.num_machines <= ff.num_machines
        assert report.objective_value <= model.schedule_cost(ff.schedule) + 1e-9

    def test_forced_algorithm_capability_errors(self):
        demanding = _demand_instance(n=10, g=3, seed=27)
        with pytest.raises(RequestValidationError, match="not demand-aware"):
            SolveRequest(instance=demanding, algorithm="machine_min").validate()
        rigid = uniform_random_instance(10, 3, seed=27)
        with pytest.raises(RequestValidationError, match="does not declare support"):
            SolveRequest(
                instance=rigid,
                objective="machines_plus_busy",
                algorithm="proper_greedy",
            ).validate()
        with pytest.raises(RequestValidationError, match="prices objective"):
            SolveRequest(
                instance=rigid,
                objective="busy_time",
                cost_model=CostModel(objective="weighted_busy_time"),
            ).validate()

    def test_forced_auto_keeps_the_problem_model(self):
        """Forcing the composite "auto" (as HTTP clients can) must not drop
        the request's objective/cost model: it routes through the
        dispatcher, so the forced and dispatched answers coincide."""
        from busytime.generators import bursty_instance

        inst = bursty_instance(60, 3, seed=0)
        model = CostModel(objective="machines_plus_busy", activation_cost=50.0)
        forced = Engine().solve(
            SolveRequest(
                instance=inst,
                algorithm="auto",
                objective="machines_plus_busy",
                cost_model=model,
            )
        )
        dispatched = Engine().solve(
            SolveRequest(
                instance=inst,
                objective="machines_plus_busy",
                cost_model=model,
            )
        )
        assert forced.objective_value == dispatched.objective_value
        assert forced.schedule.assignment() == dispatched.schedule.assignment()

    def test_objectives_constant_keeps_tuple_semantics(self):
        import busytime.engine.request as request_module

        assert "busy_time" in request_module.OBJECTIVES
        assert tuple(request_module.OBJECTIVES) == registered_objectives()

    def test_loader_rejects_fractional_demand(self):
        from busytime.io import instance_from_dict, instance_to_dict

        doc = instance_to_dict(_demand_instance(n=4, g=3, seed=1))
        for bad in (2.5, float("inf"), float("nan"), True):
            doc["jobs"][0]["demand"] = bad
            with pytest.raises(ValueError, match="integral"):
                instance_from_dict(doc)
        doc["jobs"][0]["demand"] = 2.0  # integral floats are fine
        assert instance_from_dict(doc).jobs[0].demand == 2

    def test_rank_honours_the_resolved_model_override(self):
        """A busy_time request priced with an activation override must get
        the same candidate set as the machines_plus_busy spelling."""
        inst = uniform_random_instance(30, 2, seed=25)
        override = CostModel(objective="busy_time", activation_cost=1.0)
        ranked = get_policy("best_ratio").rank(inst, "busy_time", model=override)
        assert "machine_min" in ranked
        r1 = Engine().solve(
            SolveRequest(instance=inst, objective="busy_time", cost_model=override)
        )
        r2 = Engine().solve(
            SolveRequest(
                instance=inst,
                objective="machines_plus_busy",
                cost_model=CostModel(
                    objective="machines_plus_busy", activation_cost=1.0
                ),
            )
        )
        assert r1.objective_value == r2.objective_value
        assert r1.schedule.assignment() == r2.schedule.assignment()

    def test_weighted_objective_end_to_end(self):
        inst = uniform_random_instance(40, 3, seed=29)
        model = CostModel(objective="weighted_busy_time", busy_rate=2.0)
        report = Engine().solve(
            SolveRequest(
                instance=inst,
                objective="weighted_busy_time",
                cost_model=model,
                compute_optimum=True,
                max_jobs_for_optimum=0,
            )
        )
        assert report.objective == "weighted_busy_time"
        assert report.objective_value == pytest.approx(2.0 * report.cost)
        assert report.lower_bound == pytest.approx(2.0 * best_lower_bound(inst))
        # Certificates survive a pure rescaling.
        assert report.proven_ratio is not None
        assert report.ratio_vs_lb == pytest.approx(
            report.cost / best_lower_bound(inst)
        )


class TestRegistrationValidation:
    """The FunctionScheduler metadata footgun, fixed and fenced."""

    def _dummy(self, instance):  # pragma: no cover - never runs
        raise AssertionError

    def test_default_instance_classes_is_the_declared_class_only(self):
        s = FunctionScheduler(self._dummy, name="_t_default", instance_class="proper")
        assert s.instance_classes == ("proper",)
        # ... and that explicitly does NOT include "general":
        general = uniform_random_instance(12, 2, seed=1)
        assert not general.is_proper()
        assert not s.handles(general)

    def test_unknown_instance_class_rejected_at_registration(self):
        s = FunctionScheduler(
            self._dummy, name="_t_typo", instance_classes=("generall",)
        )
        with pytest.raises(ValueError, match="unknown instance class"):
            register_scheduler(s)
        assert "_t_typo" not in available_schedulers()

    def test_unknown_primary_class_rejected(self):
        s = FunctionScheduler(
            self._dummy,
            name="_t_primary",
            instance_class="propper",
            instance_classes=("general",),
        )
        with pytest.raises(ValueError, match="instance_class"):
            register_scheduler(s)

    def test_empty_instance_classes_rejected(self):
        s = FunctionScheduler(self._dummy, name="_t_empty", instance_classes=())
        with pytest.raises(ValueError, match="declares no instance classes"):
            register_scheduler(s)

    def test_bounded_length_without_ratio_rejected(self):
        s = FunctionScheduler(
            self._dummy, name="_t_bounded", instance_classes=("bounded_length",)
        )
        with pytest.raises(ValueError, match="max_length_ratio"):
            register_scheduler(s)

    def test_empty_supported_objectives_rejected(self):
        s = FunctionScheduler(
            self._dummy, name="_t_noobj", supported_objectives=()
        )
        with pytest.raises(ValueError, match="supported_objectives"):
            register_scheduler(s)

    def test_whole_registry_passes_its_own_validation(self):
        from busytime.algorithms.base import _validate_capabilities

        for name in available_schedulers():
            _validate_capabilities(get_scheduler(name))
