"""Cross-checks of the sweep-line machine state against the slow-path oracle.

The :class:`~busytime.core.events.SweepProfile` answers the hot-path
questions — "does job J fit under the parallelism bound g", "what is this
machine's busy time", "what is the load at instant t" — from incrementally
maintained state.  Every answer has a brute-force counterpart in
:mod:`busytime.core.intervals` (``max_point_load``, ``span``,
``point_load``); these tests assert the two always agree, on adversarially
shaped hypothesis inputs and on the randomized instance families of
:mod:`busytime.generators.random_instances`.  The numpy path of
:meth:`SweepProfile.from_intervals` is pinned against the python one.
"""

from __future__ import annotations

from typing import List, Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import busytime.core.events as events_module
from busytime.core.events import BULK_FROM_INTERVALS_MIN, SweepProfile
from busytime.core.intervals import (
    Interval,
    Job,
    max_point_demand,
    max_point_load,
    point_demand,
    point_load,
    span,
)
from busytime.core.schedule import (
    ProfileOracleMismatchError,
    ScheduleBuilder,
    verify_schedule,
)
from busytime.generators.random_instances import (
    bursty_instance,
    poisson_arrivals_instance,
    uniform_random_instance,
)


def oracle_fits(machine_jobs: Sequence[Job], job: Job, g: int) -> bool:
    """The seed's clip-and-rescan feasibility check, kept as the oracle."""
    clipped: List[Interval] = []
    for other in machine_jobs:
        inter = other.interval.intersection(job.interval)
        if inter is not None:
            clipped.append(inter)
    if len(clipped) < g:
        return True
    return max_point_load(clipped) <= g - 1


# Endpoints drawn from a small grid so touching/coincident endpoints (the
# closed-interval corner cases) appear constantly; zero-length intervals
# are legal and exercised.
coords = st.integers(min_value=0, max_value=12).map(float)
interval_sets = st.lists(
    st.tuples(coords, coords).map(lambda p: Interval(min(p), max(p))),
    min_size=0,
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(interval_sets)
def test_profile_matches_oracle_on_interval_sets(ivs):
    prof = SweepProfile()
    for iv in ivs:
        prof.add(iv.start, iv.end)
    batch = SweepProfile.from_intervals(ivs)

    assert prof.count == batch.count == len(ivs)
    assert prof.max_load() == batch.max_load() == max_point_load(ivs)
    assert prof.measure == pytest.approx(span(ivs))
    assert batch.measure == pytest.approx(span(ivs))
    # Point loads agree with the oracle at endpoints, midpoints and outside.
    probes = {iv.start for iv in ivs} | {iv.end for iv in ivs}
    probes |= {(iv.start + iv.end) / 2 for iv in ivs} | {-1.0, 13.0}
    for t in probes:
        assert prof.load_at(t) == point_load(ivs, t), f"load_at({t})"
        assert batch.load_at(t) == point_load(ivs, t)


@settings(max_examples=200, deadline=None)
@given(interval_sets, st.tuples(coords, coords).map(lambda p: (min(p), max(p))))
def test_max_load_in_matches_oracle_window(ivs, window):
    lo, hi = window
    prof = SweepProfile.from_intervals(ivs)
    # Oracle: clip every interval to the closed window and take the peak.
    clipped = [
        inter
        for iv in ivs
        if (inter := iv.intersection(Interval(lo, hi))) is not None
    ]
    assert prof.max_load_in(lo, hi) == max_point_load(clipped)
    for g in (1, 2, 3, 5):
        assert prof.fits(lo, hi, g) == (max_point_load(clipped) <= g - 1)
    # Covered measure in the window == span of the clipped intervals, the
    # quantity behind BestFit's marginal-growth query.
    assert prof.covered_measure_in(lo, hi) == pytest.approx(span(clipped))


@settings(max_examples=150, deadline=None)
@given(interval_sets, st.randoms(use_true_random=False))
def test_add_remove_round_trip(ivs, rnd):
    """Removing a subset leaves exactly the profile of the remainder."""
    prof = SweepProfile()
    for iv in ivs:
        prof.add(iv.start, iv.end)
    keep, drop = [], []
    for iv in ivs:
        (keep if rnd.random() < 0.5 else drop).append(iv)
    for iv in drop:
        prof.remove(iv.start, iv.end)
    assert prof.count == len(keep)
    assert prof.max_load() == max_point_load(keep)
    assert prof.measure == pytest.approx(span(keep), abs=1e-9)
    for t in {iv.start for iv in ivs} | {iv.end for iv in ivs}:
        assert prof.load_at(t) == point_load(keep, t)


def test_remove_unknown_interval_raises():
    prof = SweepProfile()
    prof.add(0.0, 2.0)
    with pytest.raises(KeyError):
        prof.remove(0.5, 1.5)


def test_reversed_interval_rejected():
    prof = SweepProfile()
    with pytest.raises(ValueError, match="precedes"):
        prof.add(5.0, 3.0)


def test_remove_never_added_raises():
    prof = SweepProfile()
    prof.add(0.0, 4.0)
    with pytest.raises(KeyError, match="never added"):
        prof.remove(1.0, 3.0)
    with pytest.raises(KeyError, match="unit demands"):
        prof.remove(0.0, 4.0, demand=2)


# -- demand-weighted profile ([15] capacity model) ----------------------------
#
# Every query gains a demand-weighted twin; the brute-force oracle is
# point_demand / max_point_demand over Jobs carrying their demands.  Unit
# demands must leave the weighted path un-materialised (the rigid fast path).

demand_jobs = st.lists(
    st.tuples(
        st.tuples(coords, coords).map(lambda p: Interval(min(p), max(p))),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=0,
    max_size=25,
).map(
    lambda rows: [
        Job(id=i, interval=iv, demand=d) for i, (iv, d) in enumerate(rows)
    ]
)


@settings(max_examples=200, deadline=None)
@given(demand_jobs)
def test_demand_profile_matches_oracle_at_all_breakpoints(jobs):
    prof = SweepProfile()
    for j in jobs:
        prof.add(j.start, j.end, demand=j.demand)
    batch = SweepProfile.from_intervals(jobs)
    assert prof.max_demand() == batch.max_demand() == max_point_demand(jobs)
    assert prof.max_load() == batch.max_load() == max_point_load(jobs)
    assert prof.measure == pytest.approx(span(jobs))
    probes = {j.start for j in jobs} | {j.end for j in jobs}
    probes |= {(j.start + j.end) / 2 for j in jobs} | {-1.0, 13.0}
    for t in probes:
        assert prof.demand_at(t) == point_demand(jobs, t), f"demand_at({t})"
        assert batch.demand_at(t) == point_demand(jobs, t)
        assert prof.load_at(t) == point_load(jobs, t)
    # The weighted arrays materialise exactly when a non-unit demand exists.
    assert prof.has_demands == any(j.demand != 1 for j in jobs)


@settings(max_examples=200, deadline=None)
@given(demand_jobs, st.tuples(coords, coords).map(lambda p: (min(p), max(p))))
def test_demand_window_queries_match_clipped_oracle(jobs, window):
    lo, hi = window
    prof = SweepProfile.from_intervals(jobs)
    clipped = [
        Job(id=j.id, interval=inter, demand=j.demand)
        for j in jobs
        if (inter := j.interval.intersection(Interval(lo, hi))) is not None
    ]
    assert prof.max_demand_in(lo, hi) == max_point_demand(clipped)
    for g in (1, 2, 3, 5, 8):
        for d in (1, 2, 3):
            assert prof.fits(lo, hi, g, demand=d) == (
                max_point_demand(clipped) + d <= g
            )


@settings(max_examples=150, deadline=None)
@given(demand_jobs, st.randoms(use_true_random=False))
def test_demand_add_remove_equals_rebuild_of_survivors(jobs, rnd):
    """Fuzzed add/remove with demands: the profile equals the brute-force
    demand load of the survivors at every breakpoint."""
    prof = SweepProfile()
    for j in jobs:
        prof.add(j.start, j.end, demand=j.demand)
    keep, drop = [], []
    for j in jobs:
        (keep if rnd.random() < 0.5 else drop).append(j)
    for j in drop:
        prof.remove(j.start, j.end, demand=j.demand)
    assert prof.count == len(keep)
    assert prof.max_demand() == max_point_demand(keep)
    assert prof.max_load() == max_point_load(keep)
    assert prof.measure == pytest.approx(span(keep), abs=1e-9)
    for t in {j.start for j in jobs} | {j.end for j in jobs} | {-1.0, 6.5, 13.0}:
        assert prof.demand_at(t) == point_demand(keep, t), f"demand_at({t})"
        assert prof.load_at(t) == point_load(keep, t)


@settings(max_examples=100, deadline=None)
@given(demand_jobs, st.randoms(use_true_random=False))
def test_builder_assign_unassign_exact_inverse_with_demands(jobs, rnd):
    """assign . unassign == identity on demand-carrying machine state."""
    from busytime.core.instance import Instance

    g = 8  # above the max fuzzed demand, so every job is schedulable
    inst = Instance(jobs=tuple(jobs), g=g, name="demand-fuzz")
    builder = ScheduleBuilder(inst, algorithm="demand-fuzz")
    for job in jobs:
        builder.assign_first_fit(job)
    snapshot = [
        (tuple(builder.jobs_on(i)), builder.profile_of(i).copy())
        for i in range(builder.num_machines)
    ]
    removed = [(builder.machine_of(j.id), j) for j in jobs if rnd.random() < 0.5]
    for _, job in removed:
        builder.unassign(job)
    for idx, job in reversed(removed):
        builder.assign(idx, job)
    for i, (jobs_before, profile_before) in enumerate(snapshot):
        after = builder.profile_of(i)
        assert after.count == profile_before.count
        assert after.max_demand() == profile_before.max_demand()
        assert after.max_load() == profile_before.max_load()
        assert after.measure == pytest.approx(profile_before.measure, abs=1e-9)
        for t in {j.start for j in jobs_before} | {j.end for j in jobs_before}:
            assert after.demand_at(t) == profile_before.demand_at(t)
    # The mutated state still passes the (demand-aware) slow-path oracle.
    verify_schedule(builder.freeze())


# -- fuzzed mutation sequences (the dynamic-workload invariants) --------------
#
# The dynamic simulator drives SweepProfile through arbitrary interleavings
# of add (arrivals, migrations in) and remove (departures, migrations out).
# After *any* op sequence the profile must be semantically identical to one
# rebuilt from scratch over the surviving interval multiset.

# Each op is (interval, removal-schedule): `when` in [0, 1) interleaves the
# interval's removal among the later insertions; None keeps it forever.
op_sequences = st.lists(
    st.tuples(
        st.tuples(coords, coords).map(lambda p: Interval(min(p), max(p))),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.999)),
    ),
    min_size=0,
    max_size=30,
)


def _assert_profiles_agree(prof: SweepProfile, survivors: List[Interval]) -> None:
    """``prof`` must answer every query like a rebuild over ``survivors``."""
    rebuilt = SweepProfile.from_intervals(survivors)
    assert prof.count == rebuilt.count == len(survivors)
    assert prof.max_load() == rebuilt.max_load() == max_point_load(survivors)
    assert prof.measure == pytest.approx(span(survivors), abs=1e-9)
    probes = {iv.start for iv in survivors} | {iv.end for iv in survivors}
    probes |= {(iv.start + iv.end) / 2 for iv in survivors} | {-1.0, 6.5, 13.0}
    for t in probes:
        assert prof.load_at(t) == point_load(survivors, t), f"load_at({t})"
    for lo, hi in ((0.0, 12.0), (2.0, 7.0), (6.0, 6.0)):
        assert prof.max_load_in(lo, hi) == rebuilt.max_load_in(lo, hi)
        assert prof.covered_measure_in(lo, hi) == pytest.approx(
            rebuilt.covered_measure_in(lo, hi), abs=1e-9
        )


@settings(max_examples=200, deadline=None)
@given(op_sequences)
def test_interleaved_add_remove_equals_rebuild_of_survivors(ops):
    """Fuzzed add/remove interleavings leave exactly the survivors' profile.

    Removals are interleaved *between* later insertions (not batched at the
    end), the access pattern of trace replay: arrive, arrive, depart,
    arrive, ...
    """
    prof = SweepProfile()
    pending: List[tuple] = []  # (position, interval) scheduled removals
    survivors: List[Interval] = []
    for step, (iv, when) in enumerate(ops):
        for pos, doomed in [p for p in pending if p[0] <= step]:
            prof.remove(doomed.start, doomed.end)
            pending.remove((pos, doomed))
        prof.add(iv.start, iv.end)
        if when is None:
            survivors.append(iv)
        else:
            # Schedule the removal before one of the remaining insertions.
            remaining = len(ops) - step - 1
            pending.append((step + 1 + int(when * (remaining + 1)), iv))
    for _, doomed in pending:
        prof.remove(doomed.start, doomed.end)
    _assert_profiles_agree(prof, survivors)


@settings(max_examples=100, deadline=None)
@given(interval_sets, st.randoms(use_true_random=False))
def test_builder_unassign_is_exact_inverse_of_assign(ivs, rnd):
    """assign . unassign == identity on the builder's whole machine state."""
    from busytime.core.instance import Instance

    jobs = [Job(id=i, interval=iv) for i, iv in enumerate(ivs)]
    inst = Instance(jobs=tuple(jobs), g=2, name="fuzz")
    builder = ScheduleBuilder(inst, algorithm="fuzz")
    for job in jobs:
        builder.assign_first_fit(job)
    snapshot = [
        (tuple(builder.jobs_on(i)), builder.profile_of(i).copy())
        for i in range(builder.num_machines)
    ]
    # Unassign a random subset, then re-assign each job to its old machine
    # (reverse order, so interleaved states are exercised too).
    removed = [(builder.machine_of(j.id), j) for j in jobs if rnd.random() < 0.5]
    for _, job in removed:
        builder.unassign(job)
    for idx, job in reversed(removed):
        builder.assign(idx, job)
    for i, (jobs_before, profile_before) in enumerate(snapshot):
        assert set(j.id for j in builder.jobs_on(i)) == set(
            j.id for j in jobs_before
        )
        after = builder.profile_of(i)
        assert after.count == profile_before.count
        assert after.measure == pytest.approx(profile_before.measure, abs=1e-9)
        assert after.max_load() == profile_before.max_load()
        for t in {j.start for j in jobs_before} | {j.end for j in jobs_before}:
            assert after.load_at(t) == profile_before.load_at(t)
    # The whole mutated state still passes the independent slow-path oracle.
    verify_schedule(builder.freeze())


@settings(max_examples=100, deadline=None)
@given(interval_sets, st.randoms(use_true_random=False))
def test_builder_survivors_match_rebuild_after_unassign(ivs, rnd):
    """After departures, every machine equals a from-scratch rebuild of its
    surviving jobs — the invariant ``freeze_partial`` validation rests on."""
    from busytime.core.instance import Instance

    jobs = [Job(id=i, interval=iv) for i, iv in enumerate(ivs)]
    inst = Instance(jobs=tuple(jobs), g=3, name="fuzz")
    builder = ScheduleBuilder(inst, algorithm="fuzz")
    for job in jobs:
        builder.assign_first_fit(job)
    for job in jobs:
        if rnd.random() < 0.5:
            builder.unassign(job)
    for i in range(builder.num_machines):
        _assert_profiles_agree(
            builder.profile_of(i), [j.interval for j in builder.jobs_on(i)]
        )
    verify_schedule(builder.freeze_partial())


@pytest.mark.parametrize(
    "maker,kwargs",
    [
        (uniform_random_instance, dict(horizon=60.0)),
        (poisson_arrivals_instance, dict()),
        (bursty_instance, dict()),
    ],
    ids=["uniform", "poisson", "bursty"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_builder_fits_matches_oracle_on_random_instances(maker, kwargs, seed):
    """Replay FirstFit and check *every* fits decision against the oracle."""
    inst = maker(n=120, g=3, seed=seed, **kwargs)
    builder = ScheduleBuilder(inst, algorithm="oracle-replay")
    order = sorted(inst.jobs, key=lambda j: (-j.length, j.start, j.id))
    for job in order:
        for idx in range(builder.num_machines):
            assert builder.fits(idx, job) == oracle_fits(
                builder.jobs_on(idx), job, inst.g
            ), f"fits({idx}, J{job.id}) diverges from oracle"
        builder.assign_first_fit(job)
    # Maintained busy time vs the from-scratch span, machine by machine.
    for idx in range(builder.num_machines):
        assert builder.machine_busy_time(idx) == pytest.approx(
            span(builder.jobs_on(idx))
        )
    assert builder.total_busy_time == pytest.approx(
        sum(span(builder.jobs_on(i)) for i in range(builder.num_machines))
    )
    # The frozen schedule passes the independent slow-path oracle, which
    # itself re-verifies profile peak and busy time per machine.
    schedule = builder.freeze()
    verify_schedule(schedule)


def test_profile_oracle_mismatch_raises_runtime_error():
    """A corrupted fast path must surface as an internal error, not as
    'schedule infeasible' (which ``is_feasible`` would silently swallow)."""
    from busytime.algorithms.first_fit import first_fit

    inst = uniform_random_instance(n=10, g=3, horizon=20.0, seed=3)
    schedule = first_fit(inst)
    machine = schedule.machines[0]
    corrupted = SweepProfile.from_intervals(machine.jobs)
    corrupted._point = [p + 1 for p in corrupted._point]
    object.__setattr__(machine, "_profile", corrupted)
    with pytest.raises(ProfileOracleMismatchError):
        verify_schedule(schedule)
    # ...and it must NOT be absorbed by the feasibility predicate.
    with pytest.raises(ProfileOracleMismatchError):
        schedule.is_feasible()


def test_machine_profile_queries_match_schedule_oracle():
    inst = uniform_random_instance(n=80, g=4, horizon=40.0, seed=11)
    from busytime.algorithms.first_fit import first_fit

    schedule = first_fit(inst)
    for m in schedule.machines:
        assert m.peak_parallelism == max_point_load(m.jobs)
        assert m.busy_time == pytest.approx(span(m.jobs))
        for t in (0.0, 10.0, 25.0, 39.5):
            assert m.active_job_count(t) == point_load(m.jobs, t)
    ts = sorted({j.start for j in inst.jobs})[:20]
    for t in ts:
        oracle_mt = sum(
            1 for m in schedule.machines if point_load(m.jobs, t) > 0
        )
        assert schedule.machines_active_at(t) == oracle_mt
    assert schedule.peak_parallelism == max(
        max_point_load(m.jobs) for m in schedule.machines
    )


# -- brute-force differential over an integer grid ----------------------------
#
# Random add/remove/query interleavings are driven simultaneously through the
# profile and a literal list of live intervals, asserting exact equality at
# every step for the cardinality queries and their demand-weighted twins.
# Integer coordinates keep covered measures exact.

COORD_MAX = 40


class BruteProfile:
    """The definition, executed literally: a list of live intervals."""

    def __init__(self):
        self.live = []

    def add(self, start, end, demand=1):
        self.live.append((start, end, demand))

    def remove(self, start, end, demand=1):
        self.live.remove((start, end, demand))

    @property
    def count(self):
        return len(self.live)

    def load_at(self, t):
        return sum(1 for s, e, _ in self.live if s <= t <= e)

    def demand_at(self, t):
        return sum(d for s, e, d in self.live if s <= t <= e)

    def _candidates(self, a, b):
        pts = {a, b}
        for s, e, _ in self.live:
            if a <= s <= b:
                pts.add(s)
            if a <= e <= b:
                pts.add(e)
        return sorted(pts)

    def max_load_in(self, a, b):
        return max((self.load_at(t) for t in self._candidates(a, b)), default=0)

    def max_demand_in(self, a, b):
        return max((self.demand_at(t) for t in self._candidates(a, b)), default=0)

    def max_load(self):
        return self.max_load_in(-1, COORD_MAX + 2)

    def max_demand(self):
        return self.max_demand_in(-1, COORD_MAX + 2)

    @property
    def measure(self):
        return self.covered_measure_in(-1, COORD_MAX + 2)

    def covered_measure_in(self, a, b):
        if b <= a:
            return 0.0
        pts = self._candidates(a, b)
        total = 0.0
        for lo, hi in zip(pts, pts[1:]):
            mid = (lo + hi) / 2.0
            if any(s <= mid <= e for s, e, _ in self.live):
                total += hi - lo
        return total

    def fits(self, a, b, g, demand=1):
        return self.max_demand_in(a, b) + demand <= g


grid_starts = st.integers(min_value=0, max_value=COORD_MAX - 10)
grid_lengths = st.integers(min_value=0, max_value=10)
mixed_demands = st.sampled_from([1, 1, 1, 2, 4])


def grid_op_sequences(demand_strategy):
    # Each entry: (kind, start, length, demand).  kind 1 = remove (targets
    # the i-th oldest live interval, modulo the live count), else add.
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            grid_starts,
            grid_lengths,
            demand_strategy,
        ),
        min_size=1,
        max_size=40,
    )


def run_differential(ops):
    prof = SweepProfile()
    brute = BruteProfile()
    for kind, start, length, demand in ops:
        if kind == 1 and brute.live:
            s, e, d = brute.live[start % len(brute.live)]
            prof.remove(s, e, demand=d)
            brute.remove(s, e, demand=d)
        else:
            s, e = float(start), float(start + length)
            prof.add(s, e, demand=demand)
            brute.add(s, e, demand=demand)
        assert prof.count == brute.count
        assert prof.max_load() == brute.max_load()
        assert prof.max_demand() == brute.max_demand()
        assert prof.measure == brute.measure
        for t in (start - 1, start, start + 0.5, start + length, COORD_MAX):
            assert prof.load_at(t) == brute.load_at(t)
            assert prof.demand_at(t) == brute.demand_at(t)
        windows = (
            (start, start + length),
            (start - 2, start + length + 2),
            (0, COORD_MAX),
            (start + 0.5, start + length + 0.5),
        )
        for a, b in windows:
            assert prof.max_load_in(a, b) == brute.max_load_in(a, b)
            assert prof.max_demand_in(a, b) == brute.max_demand_in(a, b)
            assert prof.covered_measure_in(a, b) == brute.covered_measure_in(a, b)
            for g in (1, 3, 8):
                for d in (1, 2):
                    assert prof.fits(a, b, g, demand=d) == brute.fits(
                        a, b, g, demand=d
                    )


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(ops=grid_op_sequences(st.just(1)))
def test_differential_unit_demand(ops):
    run_differential(ops)


@FUZZ
@given(ops=grid_op_sequences(mixed_demands))
def test_differential_weighted_demand(ops):
    run_differential(ops)


grid_jobs = st.lists(
    st.tuples(grid_starts, grid_lengths, mixed_demands), min_size=0, max_size=30
).map(
    lambda triples: [
        Job(id=i, interval=Interval(float(s), float(s + l)), demand=d)
        for i, (s, l, d) in enumerate(triples)
    ]
)


@FUZZ
@given(jobs=grid_jobs)
def test_from_intervals_and_copy_parity(jobs):
    # Force the numpy fast path regardless of batch size, then disable it.
    try:
        events_module.BULK_FROM_INTERVALS_MIN = 1
        fast = SweepProfile.from_intervals(jobs)
        events_module.BULK_FROM_INTERVALS_MIN = 10**9
        slow = SweepProfile.from_intervals(jobs)
    finally:
        events_module.BULK_FROM_INTERVALS_MIN = BULK_FROM_INTERVALS_MIN
    snapshot = fast.copy()
    assert fast.breakpoints == slow.breakpoints
    assert fast.count == slow.count == snapshot.count
    assert fast.measure == slow.measure
    for t in range(-1, COORD_MAX + 2):
        assert fast.load_at(t) == slow.load_at(t) == snapshot.load_at(t)
        assert fast.demand_at(t) == slow.demand_at(t)
    # Mutating the copy leaves the original untouched.
    snapshot.add(0.0, 5.0)
    assert snapshot.load_at(1.0) == fast.load_at(1.0) + 1


@pytest.mark.parametrize("n", [0, 1, 2, 7, BULK_FROM_INTERVALS_MIN - 1, BULK_FROM_INTERVALS_MIN, 150])
def test_covered_measure_is_the_batch_profile_measure(n):
    """``covered_measure`` of endpoint columns is, bit for bit and type
    included, the measure ``from_intervals`` gives the same intervals."""
    import random

    rng = random.Random(n)
    for trial in range(25):
        ivs = []
        for _ in range(n):
            start = rng.uniform(-7.0, 7.0)
            length = 0.0 if trial % 5 == 0 or rng.random() < 0.2 else rng.uniform(0.0, 3.0)
            ivs.append(Interval(start, start + length))
        expected = SweepProfile.from_intervals(ivs).measure
        got = events_module.covered_measure([iv.start for iv in ivs], [iv.end for iv in ivs])
        assert (type(got), repr(got)) == (type(expected), repr(expected))
