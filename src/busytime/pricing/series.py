"""Step-function value objects for tariff-aware busy-time scheduling.

The busy-time objective of conf_ipps_FlamminiMMSSTZ09 prices every busy
minute identically.  Production deployments do not: electricity tariffs
and CO₂-intensity traces are piecewise-constant *series*, and a site
hosts inflexible background load that pre-occupies capacity.  This
module holds the two pure value objects the rest of the stack consumes:

:class:`TariffSeries`
    a piecewise-constant rate over time — ``rates[i]`` applies on the
    half-open band ``[breakpoints[i-1], breakpoints[i])`` with the first
    and last rates extending to ``-inf`` / ``+inf``.  ``integrate`` and
    ``coverage_cost`` use exact per-band arithmetic so a constant tariff
    degenerates bit-for-bit to the flat ``busy_rate`` path.

:class:`BackgroundLoad`
    an inflexible demand profile — integer capacity ``levels[i]`` is
    pre-occupied on ``[breakpoints[i], breakpoints[i+1]]`` and zero
    outside — charged against the site-wide capacity cap, never against
    a single machine's ``g``.

Both are stdlib-only and import nothing from the rest of ``busytime``,
so ``core`` can depend on them without cycles.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isfinite
from typing import Any, Dict, Iterator, Sequence, Tuple

__all__ = ["TariffSeries", "BackgroundLoad"]


def _check_breakpoints(breakpoints: Sequence[float], owner: str) -> Tuple[float, ...]:
    out = tuple(float(b) for b in breakpoints)
    for b in out:
        if not isfinite(b):
            raise ValueError(f"{owner} breakpoints must be finite, got {b!r}")
    for lo, hi in zip(out, out[1:]):
        if not lo < hi:
            raise ValueError(
                f"{owner} breakpoints must be strictly increasing, got {lo} >= {hi}"
            )
    return out


@dataclass(frozen=True)
class TariffSeries:
    """A piecewise-constant busy-time rate.

    ``rates`` has exactly ``len(breakpoints) + 1`` entries: ``rates[0]``
    applies before the first breakpoint, ``rates[i]`` on
    ``[breakpoints[i-1], breakpoints[i])``, and ``rates[-1]`` after the
    last breakpoint.  A constant tariff is ``TariffSeries((), (r,))``.
    """

    breakpoints: Tuple[float, ...] = ()
    rates: Tuple[float, ...] = (1.0,)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "breakpoints", _check_breakpoints(self.breakpoints, "tariff")
        )
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if len(rates) != len(self.breakpoints) + 1:
            raise ValueError(
                "tariff needs len(breakpoints) + 1 rates, got "
                f"{len(self.breakpoints)} breakpoints and {len(rates)} rates"
            )
        for r in rates:
            if not isfinite(r) or r < 0:
                raise ValueError(f"tariff rates must be finite and >= 0, got {r!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        """True when a single rate applies everywhere (exact comparison)."""
        first = self.rates[0]
        return all(r == first for r in self.rates[1:])

    @property
    def min_rate(self) -> float:
        return min(self.rates)

    @property
    def max_rate(self) -> float:
        return max(self.rates)

    def rate_at(self, t: float) -> float:
        """The rate in force at time ``t`` (bands are closed-left)."""
        return self.rates[bisect_right(self.breakpoints, t)]

    def bands(self, lo: float, hi: float) -> Iterator[Tuple[float, float, float]]:
        """Yield ``(band_lo, band_hi, rate)`` clipped to ``[lo, hi]``.

        Only bands of positive clipped length are produced; their union
        is exactly ``[lo, hi]`` when ``lo < hi``.
        """
        if hi <= lo:
            return
        bp = self.breakpoints
        i = bisect_right(bp, lo)
        cursor = lo
        while cursor < hi:
            band_hi = bp[i] if i < len(bp) else hi
            top = min(band_hi, hi)
            if top > cursor:
                yield cursor, top, self.rates[i]
            cursor = top
            i += 1

    def min_rate_in(self, lo: float, hi: float) -> float:
        """The minimum rate over bands intersecting the window ``[lo, hi]``."""
        if hi < lo:
            raise ValueError(f"empty window [{lo}, {hi}]")
        if hi == lo:
            return self.rate_at(lo)
        return min(rate for _, _, rate in self.bands(lo, hi))

    def integrate(self, lo: float, hi: float) -> float:
        """``∫_lo^hi rate(t) dt`` with exact per-band arithmetic."""
        if hi <= lo:
            return 0.0
        if self.is_constant:
            return self.rates[0] * (hi - lo)
        return sum(rate * (b_hi - b_lo) for b_lo, b_hi, rate in self.bands(lo, hi))

    def coverage_cost(self, profile: Any, lo: float, hi: float) -> float:
        """Price a profile's covered (busy) measure band by band.

        ``profile`` is any machine profile exposing ``covered_measure_in``
        and ``measure`` (:class:`~busytime.core.events.SweepProfile`
        does).  ``[lo, hi]`` must enclose the
        profile's busy span.  The constant fast path multiplies the
        maintained total measure — for a unit tariff that is exactly the
        flat busy-time value, bit for bit.
        """
        if self.is_constant:
            return self.rates[0] * profile.measure
        return sum(
            rate * profile.covered_measure_in(b_lo, b_hi)
            for b_lo, b_hi, rate in self.bands(lo, hi)
        )

    def shifted(self, delta: float) -> "TariffSeries":
        """The same rate function translated by ``delta`` time units."""
        if delta == 0 or not self.breakpoints:
            return self
        return TariffSeries(
            tuple(b + delta for b in self.breakpoints), self.rates, self.name
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "breakpoints": list(self.breakpoints),
            "rates": list(self.rates),
        }
        if self.name:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TariffSeries":
        if not isinstance(doc, dict):
            raise ValueError(f"tariff document must be a mapping, got {type(doc).__name__}")
        unknown = set(doc) - {"breakpoints", "rates", "name"}
        if unknown:
            raise ValueError(f"unknown tariff keys: {sorted(unknown)}")
        return cls(
            breakpoints=tuple(doc.get("breakpoints", ())),
            rates=tuple(doc.get("rates", (1.0,))),
            name=str(doc.get("name", "")),
        )


@dataclass(frozen=True)
class BackgroundLoad:
    """Inflexible load pre-occupying site capacity.

    ``levels[i]`` units of demand occupy ``[breakpoints[i],
    breakpoints[i+1]]``; outside the breakpoint range the background is
    zero.  Levels are integers in the same units as job demands and the
    site capacity cap.
    """

    breakpoints: Tuple[float, ...]
    levels: Tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "breakpoints", _check_breakpoints(self.breakpoints, "background")
        )
        if len(self.breakpoints) < 2:
            raise ValueError("background load needs at least two breakpoints")
        levels = tuple(int(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) != len(self.breakpoints) - 1:
            raise ValueError(
                "background load needs len(breakpoints) - 1 levels, got "
                f"{len(self.breakpoints)} breakpoints and {len(levels)} levels"
            )
        for v in levels:
            if v < 0:
                raise ValueError(f"background levels must be >= 0, got {v}")

    @property
    def max_level(self) -> int:
        return max(self.levels, default=0)

    def level_at(self, t: float) -> int:
        """The background demand at ``t`` (closed bands: the max of the
        bands containing ``t``, matching the closed-interval semantics of
        the rest of the model)."""
        bp = self.breakpoints
        if t < bp[0] or t > bp[-1]:
            return 0
        lo = bisect_left(bp, t)
        hi = bisect_right(bp, t)
        # Bands adjacent to t: indices [lo - 1, hi) clipped to the level range.
        first = max(lo - 1, 0)
        last = min(hi, len(self.levels))
        return max(self.levels[first:last], default=0)

    def bands(self) -> Iterator[Tuple[float, float, int]]:
        """Yield ``(lo, hi, level)`` for every band with positive level."""
        for i, level in enumerate(self.levels):
            if level > 0:
                yield self.breakpoints[i], self.breakpoints[i + 1], level

    def shifted(self, delta: float) -> "BackgroundLoad":
        if delta == 0:
            return self
        return BackgroundLoad(
            tuple(b + delta for b in self.breakpoints), self.levels, self.name
        )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "breakpoints": list(self.breakpoints),
            "levels": list(self.levels),
        }
        if self.name:
            doc["name"] = self.name
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "BackgroundLoad":
        if not isinstance(doc, dict):
            raise ValueError(
                f"background document must be a mapping, got {type(doc).__name__}"
            )
        unknown = set(doc) - {"breakpoints", "levels", "name"}
        if unknown:
            raise ValueError(f"unknown background keys: {sorted(unknown)}")
        return cls(
            breakpoints=tuple(doc.get("breakpoints", ())),
            levels=tuple(doc.get("levels", ())),
            name=str(doc.get("name", "")),
        )
