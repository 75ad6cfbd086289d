"""Seeded inputs for the served-path benchmark.

Everything a run sends is a pure function of ``--seed``: the cold request
stream, the hot requests and the session streams.  The server only ever sees
the generated request bodies.

The work does not depend on the seed.  Every instance and trace comes from a
fixed corpus: request ``i`` takes its family from a fixed rotation, its
``g`` from a fixed cycle, its size from a golden-ratio (Weyl) sequence over
the log-uniform range and its jobs from a generator seed of its own.  The
seed disguises that corpus: it relabels the jobs and shifts them in time by
a dyadic offset, draws the order of the hot requests, and names and
relabels the sessions.  The service solves the canonical form of an
instance, which quotients relabeling and translation out, so two seeds send
different bytes that cost the server the same work.  That keeps the
seed-to-seed spread of the timings down to the host's own: when the seed
drew the jobs, the server CPU time of one cold slot varied twofold between
seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from busytime import Instance
from busytime import io as bio
from busytime.core.events import DynamicTrace, TraceEvent
from busytime.core.intervals import Interval, Job
from busytime.generators import (
    bursty_instance,
    clique_instance,
    demand_loaded_instance,
    poisson_arrivals_instance,
    proper_instance,
    uniform_dynamic_trace,
    uniform_random_instance,
)

FAMILIES = ("uniform", "poisson", "bursty", "demand", "proper", "clique")
N_RANGE = (100, 2000)
G_RANGE = (2, 8)
#: one request in this many is raced
RACE_EVERY = 8
RACE_WIDTH = 3
#: far above any solve here, so the race is never truncated and its winner
#: stays deterministic
RACE_DEADLINE_MS = 30_000
RACE_N_MAX = 500
#: request shapes in one cold cycle: every family, three races
COLD_CYCLE = 24

#: hot pool: larger than the server's memory tier (see server.STORE_CAPACITY)
#: so about a third of the hits come from disk
HOT_POOL = 24
HOT_N_RANGE = (100, 1000)
#: coordinates snap to this dyadic grid, so dyadic disguise shifts are exact.
#: It is fine enough to keep distinct endpoints apart: at 1/1024, proper
#: instances gained shared endpoints, stopped being proper, and their races
#: ran the local-search candidate for seconds.
GRID = float(2 ** 20)

#: session_long: E22's policies (scripts/bench_sessions.py), streaming-heavy,
#: with replanning sessions so the engine path stays in the numbers
SESSION_POLICIES: Tuple[Tuple[str, Optional[float], int], ...] = (
    ("never_migrate", None, 4),
    ("rolling_horizon", 25.0, 4),
    ("never_migrate", None, 4),
    ("migration_budget", 25.0, 2),
)
SESSION_JOBS = 500  # -> 1000 events per session
SESSION_G = 3
SESSION_BATCH = 5

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: generator seeds of the corpus derive from this, never from ``--seed``
CORPUS = 12


def _mix(*parts: int) -> int:
    """A stable 31-bit seed derived from integers (no hash randomization)."""
    value = 0x9E3779B1
    for part in parts:
        value = (value * 1_000_003 + part) & 0x7FFFFFFF
    return value


def stratified_n(index: int, lo: int, hi: int) -> int:
    """Size of request ``index``: a Weyl sequence over log-uniform [lo, hi]."""
    u = (0.5 + index * _GOLDEN) % 1.0
    return int(round(lo * (hi / lo) ** u))


def cycled_g(index: int) -> int:
    """``g`` of request ``index``: every value of the range, stride 3."""
    lo, hi = G_RANGE
    return lo + (3 * index) % (hi - lo + 1)


def make_instance(family: str, n: int, g: int, seed: int) -> Instance:
    """One instance of a named family (the service's traffic mix)."""
    if family == "uniform":
        return uniform_random_instance(n, g, seed=seed)
    if family == "poisson":
        return poisson_arrivals_instance(n, g, seed=seed)
    if family == "bursty":
        return bursty_instance(n, g, seed=seed)
    if family == "demand":
        return demand_loaded_instance(n, g, max_demand=min(3, g), seed=seed)
    if family == "proper":
        return proper_instance(n, g, seed=seed)
    if family == "clique":
        return clique_instance(n, g, seed=seed)
    raise ValueError(f"unknown family {family!r}")


def quantized(instance: Instance) -> Instance:
    """Snap coordinates to the dyadic grid (demands kept)."""
    jobs = []
    for j in instance.jobs:
        start = round(j.start * GRID)
        end = max(round(j.end * GRID), start + 1)
        jobs.append(
            Job(id=j.id, interval=Interval(start / GRID, end / GRID), demand=j.demand)
        )
    return Instance(jobs=tuple(jobs), g=instance.g, name=instance.name)


def disguised(instance: Instance, rng: random.Random) -> Instance:
    """Relabeled, dyadically time-shifted copy: new bytes, same fingerprint."""
    delta = rng.randrange(-1024, 1024) / 16.0
    jobs = list(instance.jobs)
    rng.shuffle(jobs)
    base = rng.randrange(100_000, 900_000)
    return Instance(
        jobs=tuple(
            Job(
                id=base + k,
                interval=Interval(j.start + delta, j.end + delta),
                demand=j.demand,
            )
            for k, j in enumerate(jobs)
        ),
        g=instance.g,
        name=f"{instance.name}@{delta:g}",
    )


def solve_body(instance: Instance, options: Optional[Dict[str, object]] = None) -> bytes:
    return json.dumps(
        {"instance": bio.instance_to_dict(instance), "options": options or {}, "wait": True}
    ).encode("utf-8")


@dataclass
class SolveOp:
    """One pre-encoded ``POST /solve`` plus what the gate needs to check it."""

    index: int
    instance: Instance
    body: bytes
    base: int = -1  # hot pool index this op disguises (-1: cold)


def cold_op(seed: int, index: int) -> SolveOp:
    """Request ``index`` of the cold stream (every one a distinct instance).

    The stream repeats a cycle of ``COLD_CYCLE`` request shapes (family,
    n, g, raced or not) with fresh jobs each time, so any number of whole
    cycles has the same cost mix.  The jobs come from the corpus, on the
    dyadic grid, and the seed disguises them.

    Raced requests are proper instances of at most ``RACE_N_MAX`` jobs: on
    that family the top three candidates are proper_greedy, bounded_length
    and first_fit.  On the other families the local-search candidate
    (first_fit_ls) enters the top three and runs for seconds at n = 200 and
    for a minute at n = 400, which would make the race deadline-bound and
    its winner timing-dependent.
    """
    cycle, slot = divmod(index, COLD_CYCLE)
    if slot % RACE_EVERY == RACE_EVERY - 1:
        family = "proper"
        n = stratified_n(slot // RACE_EVERY, N_RANGE[0], RACE_N_MAX)
        options = {"race": RACE_WIDTH, "deadline_ms": RACE_DEADLINE_MS}
    else:
        family = FAMILIES[slot % len(FAMILIES)]
        n = stratified_n(slot, *N_RANGE)
        options = {}
    base = quantized(make_instance(family, n, cycled_g(slot), _mix(CORPUS, cycle, slot, 1)))
    instance = disguised(base, random.Random(_mix(seed, index, 2)))
    return SolveOp(index, instance, solve_body(instance, options))


def warmup_ops(seed: int) -> List[SolveOp]:
    """One small request per family plus one race, disjoint from every stream."""
    shapes = [(family, {}) for family in FAMILIES]
    shapes.append(("proper", {"race": RACE_WIDTH, "deadline_ms": RACE_DEADLINE_MS}))
    ops = []
    for k, (family, options) in enumerate(shapes):
        base = quantized(make_instance(family, 200, 3, _mix(CORPUS, 99_991, k)))
        instance = disguised(base, random.Random(_mix(seed, 99_991, k)))
        ops.append(SolveOp(-1 - k, instance, solve_body(instance, options)))
    return ops


def hot_pool() -> List[Instance]:
    """The distinct base instances solved during set-up."""
    pool = []
    for k in range(HOT_POOL):
        family = FAMILIES[k % len(FAMILIES)]
        n = stratified_n(k, *HOT_N_RANGE)
        pool.append(quantized(make_instance(family, n, cycled_g(k), _mix(CORPUS, k, 8))))
    return pool


def hot_op(seed: int, index: int, pool: List[Instance]) -> SolveOp:
    """Request ``index`` of the hot stream: a disguise of a uniformly drawn
    pool entry.  Under independent uniform draws an LRU tier holding C of
    the P entries answers about C/P of the hits from memory."""
    rng = random.Random(_mix(seed, index, 4))
    base = rng.randrange(len(pool))
    instance = disguised(pool[base], rng)
    return SolveOp(index, instance, solve_body(instance), base=base)


@dataclass
class SessionSpec:
    """One streaming session: its config document and event rows."""

    session_id: str
    trace: DynamicTrace
    policy: str
    period: Optional[float]
    budget: int
    rows: List[Dict[str, object]]

    def config(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "g": self.trace.g,
            "horizon": list(self.trace.horizon),
            "policy": self.policy,
            "replan_period": self.period,
            "budget": self.budget,
        }


def relabeled(trace: DynamicTrace, offset: int) -> DynamicTrace:
    """``trace`` with every job id raised by ``offset``.

    The shift keeps the order of ids, so every tie the replay breaks by id
    breaks the same way.
    """
    return DynamicTrace(
        events=tuple(
            TraceEvent(e.time, e.kind, replace(e.job, id=e.job.id + offset))
            for e in trace.events
        ),
        g=trace.g,
        name=trace.name,
    )


def session_generation(seed: int, generation: int, jobs: int = SESSION_JOBS) -> List[SessionSpec]:
    """The sessions of one generation (a new generation starts when one ends).

    The traces come from the corpus; the seed names the sessions and
    relabels their jobs (six-digit ids on every seed, so bodies and
    checkpoints keep their size).
    """
    specs = []
    for k, (policy, period, budget) in enumerate(SESSION_POLICIES):
        trace = relabeled(
            uniform_dynamic_trace(n=jobs, g=SESSION_G, seed=_mix(CORPUS, generation, k, 5)),
            random.Random(_mix(seed, generation, k, 5)).randrange(100_000, 800_000),
        )
        specs.append(
            SessionSpec(
                session_id=f"s{seed}-g{generation}-{k}",
                trace=trace,
                policy=policy,
                period=period,
                budget=budget,
                rows=[bio.trace_event_to_dict(e) for e in trace.events],
            )
        )
    return specs
