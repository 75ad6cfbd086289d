"""Anytime portfolio racing.

The portfolio layer sits between the selection policies (which *rank*
candidates from static capability metadata) and the engine (which runs
them): :mod:`~busytime.portfolio.racer` races the top ranked candidates
under a shared deadline with deterministic winners.  A request with
``race >= 2`` is the one way to beat the policy's static single pick.
"""

from .racer import DEFAULT_ACCEPT_FACTOR, race_candidates

__all__ = [
    "DEFAULT_ACCEPT_FACTOR",
    "race_candidates",
]
