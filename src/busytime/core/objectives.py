"""Pluggable objectives: the cost-model axis of the problem space.

The paper's objective — minimise the sum of machine busy times — is one
point in a family.  Its own motivation (Section 4) prices optical hardware
by *activation* plus busy time, and the follow-up work [15] generalises the
capacity model.  This module makes the family a first-class, serialisable
API axis:

* a frozen :class:`CostModel` prices one machine as
  ``machine_weight * (activation_cost + busy_rate * busy_time)`` and a
  schedule as the sum over its non-empty machines;
* a registry maps *objective names* to default cost models.  Three ship
  built in:

  ``busy_time``
      the seed semantics and the default: ``activation_cost = 0``,
      ``busy_rate = 1`` — a schedule's cost is exactly its total busy time,
      bit-for-bit (``1.0 * b`` and ``0.0 + b`` are exact in IEEE floats and
      the summation order matches :attr:`Schedule.total_busy_time`);
  ``weighted_busy_time``
      busy time under a configurable per-unit rate (an energy price, a
      tariff); the default rate is 1 and callers override it through a
      request's ``cost_model``;
  ``machines_plus_busy``
      the optical-grooming shape: every opened machine pays a fixed
      activation cost ``a`` (default 1) on top of its busy time.

Everything downstream — :meth:`Schedule.cost_under`, the engine's candidate
selection and report values, the analysis ratios, the service fingerprint —
evaluates through a :class:`CostModel`, so a new objective plugs in by
registering a model and declaring algorithm support
(:attr:`busytime.algorithms.base.AlgorithmInfo.supported_objectives`).

Lower bounds generalise too: any feasible schedule opens at least
``ceil(peak_demand / g)`` machines (at the demand peak) and accrues at
least the Observation 1.1 busy time, so
``machine_weight * (activation_cost * ceil(peak/g) + busy_rate * LB)``
lower-bounds the optimal model cost (:meth:`CostModel.lower_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..pricing.series import TariffSeries

__all__ = [
    "CostModel",
    "DEFAULT_OBJECTIVE",
    "register_objective",
    "get_cost_model",
    "registered_objectives",
]

#: The seed objective; requests that name nothing get this.
DEFAULT_OBJECTIVE = "busy_time"


@dataclass(frozen=True)
class CostModel:
    """A pricing rule for schedules: the serialisable problem-model axis.

    Parameters
    ----------
    objective:
        The registered objective name this model instantiates.
    activation_cost:
        Fixed cost ``a`` paid once per opened (non-empty) machine — the
        optical-grooming activation term.  Must be >= 0.
    busy_rate:
        Price per unit of machine busy time.  Must be >= 0.
    machine_weight:
        Optional uniform multiplier on every machine's priced cost (a
        heterogeneity hook for fleet-wide scaling).  Must be > 0.
    tariff:
        Optional :class:`~busytime.pricing.series.TariffSeries` making the
        per-unit price *time-varying*: a machine's busy measure is priced
        band by band (``busy_rate`` multiplies the tariff).  ``None`` keeps
        the flat rate; a constant tariff is still a rescaling of busy time.
    """

    objective: str = DEFAULT_OBJECTIVE
    activation_cost: float = 0.0
    busy_rate: float = 1.0
    machine_weight: float = 1.0
    tariff: Optional[TariffSeries] = None

    def __post_init__(self) -> None:
        if not self.objective or not isinstance(self.objective, str):
            raise ValueError("objective must be a non-empty string")
        if self.activation_cost < 0:
            raise ValueError(
                f"activation_cost must be >= 0, got {self.activation_cost}"
            )
        if self.busy_rate < 0:
            raise ValueError(f"busy_rate must be >= 0, got {self.busy_rate}")
        if self.machine_weight <= 0:
            raise ValueError(
                f"machine_weight must be > 0, got {self.machine_weight}"
            )
        if self.tariff is not None and not isinstance(self.tariff, TariffSeries):
            raise ValueError(
                f"tariff must be a TariffSeries, got {type(self.tariff).__name__}"
            )

    # -- evaluation ----------------------------------------------------------

    def machine_cost(self, busy_time: float) -> float:
        """The priced cost of one opened machine with the given busy time."""
        return self.machine_weight * (
            self.activation_cost + self.busy_rate * busy_time
        )

    def priced_busy_measure(self, machine) -> float:
        """One machine's busy measure priced by the tariff (rate 1 busy_rate).

        Without a tariff this is the machine's busy time unchanged.  A
        constant tariff multiplies it (exact ``1.0 * b`` for the unit
        tariff); a time-varying tariff integrates the machine's
        :class:`~busytime.core.events.SweepProfile` covered measure band by
        band.
        """
        if self.tariff is None:
            return machine.busy_time
        if self.tariff.is_constant:
            return self.tariff.rates[0] * machine.busy_time
        lo = min(j.start for j in machine.jobs)
        hi = max(j.end for j in machine.jobs)
        return self.tariff.coverage_cost(machine.profile, lo, hi)

    def schedule_cost(self, schedule) -> float:
        """The priced cost of a schedule: sum over its non-empty machines.

        Under the default model this equals
        :attr:`~busytime.core.schedule.Schedule.total_busy_time` exactly
        (same summands, same order).
        """
        if self.tariff is None:
            return sum(
                self.machine_cost(m.busy_time) for m in schedule.machines if m.jobs
            )
        return sum(
            self.machine_cost(self.priced_busy_measure(m))
            for m in schedule.machines
            if m.jobs
        )

    def lower_bound(self, instance) -> float:
        """A valid lower bound on the optimal model cost of ``instance``.

        ``machine_weight * (activation_cost * min_machines + busy_rate *
        busy_LB)`` where ``min_machines = ceil(peak_demand / g)`` and
        ``busy_LB`` is the (demand-aware) Observation 1.1 bound of
        :func:`busytime.core.bounds.best_lower_bound`.  Both terms hold for
        every feasible schedule simultaneously, so their priced sum does
        too.  Degenerates exactly to ``busy_LB`` under the default model.

        A time-varying tariff swaps ``busy_LB`` for the window-aware
        bounds of :mod:`busytime.pricing.bounds` (tariff-weighted
        parallelism, per-band mandatory demand); a constant tariff simply
        rescales the flat bound.
        """
        from .bounds import best_lower_bound, min_machines_bound

        if self.tariff is None:
            busy = best_lower_bound(instance)
        elif self.tariff.is_constant:
            busy = self.tariff.rates[0] * best_lower_bound(instance)
        else:
            from ..pricing.bounds import tariff_lower_bound

            busy = tariff_lower_bound(instance, self.tariff)
        return self.machine_weight * (
            self.activation_cost * min_machines_bound(instance)
            + self.busy_rate * busy
        )

    # -- properties the engine branches on ------------------------------------

    @property
    def preserves_busy_time_ratios(self) -> bool:
        """True when the model is a positive scalar multiple of busy time.

        For such models every ``ALG <= c * OPT`` guarantee proved for the
        busy-time objective transfers verbatim (both sides scale by
        ``machine_weight * busy_rate``), so proven-ratio certificates and
        busy-time optima remain meaningful.  A time-varying tariff prices
        equal busy times differently depending on *where* they fall, so it
        breaks the rescaling; a constant tariff does not.
        """
        return (
            self.activation_cost == 0
            and self.busy_rate > 0
            and (
                self.tariff is None
                or (self.tariff.is_constant and self.tariff.rates[0] > 0)
            )
        )

    def price_busy_time(self, busy_time: float) -> float:
        """Price a *total busy time* under this model — valid only when
        :attr:`preserves_busy_time_ratios` holds.

        Used to translate a busy-time optimum (the exact solvers minimise
        busy time) into the model's units: with no activation term the
        model cost of any schedule is ``machine_weight * busy_rate *
        total_busy_time``, a multiplication by ``1.0`` (exact) for the
        default model.  An activation-priced model has no such rescaling —
        its optimum needs a different search — hence the guard.
        """
        if not self.preserves_busy_time_ratios:
            raise ValueError(
                f"cost model for {self.objective!r} is not a rescaling of "
                f"busy time (activation_cost={self.activation_cost}, "
                f"tariff={'set' if self.tariff is not None else 'none'}); a "
                f"busy-time optimum cannot be priced under it"
            )
        if self.tariff is None:
            return self.machine_weight * (self.busy_rate * busy_time)
        return self.machine_weight * (
            self.busy_rate * (self.tariff.rates[0] * busy_time)
        )

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (inverse of :meth:`from_dict`).

        The ``tariff`` key appears only when a tariff is set, so documents
        and fingerprints of flat-rate models are byte-identical to the
        pre-tariff era.
        """
        out: Dict[str, object] = {
            "objective": self.objective,
            "activation_cost": self.activation_cost,
            "busy_rate": self.busy_rate,
            "machine_weight": self.machine_weight,
        }
        if self.tariff is not None:
            out["tariff"] = self.tariff.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CostModel":
        """Rebuild a model from :meth:`to_dict` output (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ValueError(
                f"cost model must be a JSON object, got {type(data).__name__}"
            )
        unknown = set(data) - {
            "objective",
            "activation_cost",
            "busy_rate",
            "machine_weight",
            "tariff",
        }
        if unknown:
            raise ValueError(f"unknown cost-model fields: {sorted(unknown)}")
        kwargs: Dict[str, object] = {}
        if "objective" in data:
            kwargs["objective"] = data["objective"]
        for key in ("activation_cost", "busy_rate", "machine_weight"):
            if key in data:
                value = data[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(
                        f"cost-model field {key!r} must be a number, got "
                        f"{type(value).__name__}"
                    )
                kwargs[key] = float(value)
        if "tariff" in data and data["tariff"] is not None:
            kwargs["tariff"] = TariffSeries.from_dict(data["tariff"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Objective registry
# ---------------------------------------------------------------------------

_OBJECTIVES: Dict[str, CostModel] = {}


def register_objective(model: CostModel, overwrite: bool = False) -> CostModel:
    """Register ``model`` as the default for its objective name."""
    if model.objective in _OBJECTIVES and not overwrite:
        raise KeyError(f"objective {model.objective!r} already registered")
    _OBJECTIVES[model.objective] = model
    return model


def get_cost_model(objective: str) -> CostModel:
    """The registered default :class:`CostModel` for an objective name."""
    try:
        return _OBJECTIVES[objective]
    except KeyError:
        raise KeyError(
            f"unknown objective {objective!r}; registered: "
            f"{registered_objectives()}"
        ) from None


def registered_objectives() -> Tuple[str, ...]:
    """All registered objective names, default first then alphabetical."""
    rest = sorted(name for name in _OBJECTIVES if name != DEFAULT_OBJECTIVE)
    if DEFAULT_OBJECTIVE in _OBJECTIVES:
        return (DEFAULT_OBJECTIVE, *rest)
    return tuple(rest)


register_objective(CostModel(objective="busy_time"))
register_objective(CostModel(objective="weighted_busy_time"))
register_objective(CostModel(objective="machines_plus_busy", activation_cost=1.0))
# Time-of-use pricing: the registry default is the unit tariff (exactly
# busy_time semantics); callers attach a real TariffSeries through their
# request's cost_model.
register_objective(CostModel(objective="tariff_busy_time"))
