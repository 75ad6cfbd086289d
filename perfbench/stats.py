"""Order statistics and the success/cost accounting of one run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

#: Candidate tail percentiles, highest first: the usual reporting ones
#: (README.md says why there is no p98).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A tail percentile is reported only with at least this many samples above it.
TAIL_BEYOND = 10


def _rank(samples: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` (exact for tenths of a percent)."""
    return max(1, -(-round(p * 10) * samples // 1000))


def samples_beyond(samples: int, p: float) -> int:
    """How many of ``samples`` values lie above their ``p`` percentile."""
    return samples - _rank(samples, p)


def choose_tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ``TAIL_BEYOND`` samples above it."""
    for p in TAIL_LADDER:
        if samples_beyond(samples, p) >= TAIL_BEYOND:
            return p
    raise ValueError(
        f"{samples} samples leave fewer than {TAIL_BEYOND} beyond every percentile "
        f"from p{TAIL_LADDER[-1]:g} up"
    )


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (a value that was actually measured)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def median(values: Iterable[float], default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile (``statistics.quantiles``, n=4), median and third quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


@dataclass
class Tally:
    """Attempts, failures and the served-cost / lower-bound sums of a run."""

    attempted: int = 0
    failed: int = 0
    served_cost: float = 0.0
    lower_bound: float = 0.0

    def record(self, ok: bool, ops: int = 1) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops

    def add_cost(self, cost: float, lower_bound: float) -> None:
        self.served_cost += cost
        self.lower_bound += lower_bound

    @property
    def success_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted

    @property
    def cost_ratio(self) -> float:
        if self.lower_bound <= 0:
            raise ValueError("cost ratio over an empty quality window")
        return self.served_cost / self.lower_bound


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}
