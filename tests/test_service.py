"""Tests for the solve-as-a-service layer (busytime.service).

Covers the four layers of the subsystem: canonicalization + fingerprints
(including the slow-path oracle test over fuzzed instances), the
content-addressed result store, the SolveService facade (cache hits,
in-flight dedupe, micro-batching, admission control, failure isolation) and
the HTTP frontend + CLI client.

The fuzzed instances use dyadic-rational coordinates (multiples of 1/16) so
that translating them by dyadic deltas is *exact* in binary floating point:
fingerprint equality is then a property of the canonicalization, not of
lucky rounding.
"""

import json
import random
import threading
import urllib.error
import urllib.request

import pytest

from busytime import Engine, Instance, SolveRequest
from busytime import io as bio
from busytime.cli import main
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import ScheduleRows
from busytime.generators import uniform_random_instance
from busytime.service import (
    AdmissionError,
    AdmissionLimits,
    JobFailedError,
    ResultStore,
    ServiceClosedError,
    ServiceDrainingError,
    ServiceOverloadedError,
    SolveService,
    canonical_request,
    canonicalize,
    decanonicalize_report,
    make_server,
    request_fingerprint,
    submit_instance,
)

# ---------------------------------------------------------------------------
# Fuzz helpers: dyadic instances and their symmetry variants
# ---------------------------------------------------------------------------


def dyadic_instance(rng: random.Random, n: int, g: int, name: str = "fuzz") -> Instance:
    """A random instance whose coordinates are multiples of 1/16."""
    jobs = []
    for i in range(n):
        start = rng.randrange(0, 512) / 16.0
        length = rng.randrange(1, 128) / 16.0
        jobs.append(Job(id=i, interval=Interval(start, start + length)))
    return Instance(jobs=tuple(jobs), g=g, name=name)


def relabeled_variant(instance: Instance, rng: random.Random) -> Instance:
    """Same job set, shuffled order and fresh (non-consecutive) ids."""
    jobs = list(instance.jobs)
    rng.shuffle(jobs)
    new_ids = rng.sample(range(10_000, 10_000 + 10 * len(jobs)), len(jobs))
    return Instance(
        jobs=tuple(
            Job(id=new_id, interval=j.interval, weight=j.weight, tag=j.tag)
            for new_id, j in zip(new_ids, jobs)
        ),
        g=instance.g,
        name="relabeled",
    )


def shifted_variant(instance: Instance, delta: float) -> Instance:
    """Every interval translated by ``delta`` (callers pass dyadic deltas)."""
    return Instance(
        jobs=tuple(
            Job(
                id=j.id,
                interval=Interval(j.start + delta, j.end + delta),
                weight=j.weight,
                tag=j.tag,
            )
            for j in instance.jobs
        ),
        g=instance.g,
        name="shifted",
    )


# ---------------------------------------------------------------------------
# Canonicalization + fingerprints
# ---------------------------------------------------------------------------


class TestCanonicalization:
    def test_canonical_instance_starts_at_zero_with_consecutive_ids(self):
        inst = dyadic_instance(random.Random(0), 10, g=2)
        form = canonicalize(shifted_variant(inst, 100.0))
        assert min(j.start for j in form.instance.jobs) == 0.0
        assert [j.id for j in form.instance.jobs] == list(range(10))
        assert form.offset == 100.0 + min(j.start for j in inst.jobs)
        assert form.name == "shifted"

    def test_id_map_round_trips_every_job(self):
        rng = random.Random(1)
        inst = relabeled_variant(dyadic_instance(rng, 12, g=3), rng)
        form = canonicalize(inst)
        by_id = {j.id: j for j in inst.jobs}
        for canonical_job in form.instance.jobs:
            original = by_id[form.id_map[canonical_job.id]]
            assert original.start - form.offset == canonical_job.start
            assert original.end - form.offset == canonical_job.end

    def test_canonical_lexsort_path_matches_tuple_sort(self, monkeypatch):
        """Large instances sort with ``np.lexsort``; the python tuple sort must
        give the same rows, id map and fingerprint, ties and all."""
        import busytime.service.canonical as canonical_module

        n = canonical_module.CANONICAL_LEXSORT_MIN + 100
        rng = random.Random(3)
        ids = rng.sample(range(10 * n), n)
        jobs = []
        for k in range(n):
            # Coarse grid: many starts/ends coincide, and with only a few
            # weights, tags and demands some jobs differ in their id alone.
            start = rng.randrange(0, 64) / 4.0
            jobs.append(
                Job(
                    id=ids[k],
                    interval=Interval(start, start + rng.randrange(0, 8) / 4.0),
                    weight=rng.choice([0.5, 1.0, 2.5]),
                    tag=rng.choice(["", "a", "b", "ab"]),
                    demand=rng.choice([1, 2, 3]),
                )
            )
        inst = Instance(jobs=tuple(jobs), g=4, name="ties")
        lexsorted = canonicalize(inst)
        lexsorted_fp = request_fingerprint(SolveRequest(instance=inst))
        monkeypatch.setattr(canonical_module, "CANONICAL_LEXSORT_MIN", 10**9)
        tuple_sorted = canonicalize(inst)
        assert lexsorted.rows == tuple_sorted.rows
        assert lexsorted.id_map == tuple_sorted.id_map
        assert lexsorted_fp == request_fingerprint(SolveRequest(instance=inst))

    def test_empty_instance_canonicalizes(self):
        a = Instance(jobs=(), g=2, name="empty-a")
        b = Instance(jobs=(), g=2, name="empty-b")
        assert request_fingerprint(SolveRequest(instance=a)) == request_fingerprint(
            SolveRequest(instance=b)
        )

    def test_fingerprint_sensitive_to_what_matters(self):
        inst = dyadic_instance(random.Random(2), 8, g=2)
        base = request_fingerprint(SolveRequest(instance=inst))
        assert base != request_fingerprint(SolveRequest(instance=inst.with_g(3)))
        assert base != request_fingerprint(
            SolveRequest(instance=inst, algorithm="first_fit")
        )
        assert base != request_fingerprint(SolveRequest(instance=inst, portfolio=False))
        moved = shifted_variant(inst, 0.0625)  # a *non-uniform* change would
        jobs = list(moved.jobs)  # also differ; here we nudge one job only
        jobs[0] = Job(id=jobs[0].id, interval=Interval(jobs[0].start, jobs[0].end + 0.5))
        assert base != request_fingerprint(
            SolveRequest(instance=Instance(jobs=tuple(jobs), g=2))
        )

    def test_service_fingerprint_resolves_the_engine_default_policy(self):
        # policy=None means "this engine's default": two services with
        # different defaults sharing one store must not alias each other's
        # cached answers, so the effective policy lands in the fingerprint.
        inst = dyadic_instance(random.Random(4), 8, g=2)
        fingerprints = {}
        for policy in ("best_ratio", "first_fit"):
            with SolveService(
                engine=Engine(default_policy=policy), start_worker=False
            ) as service:
                job = service.submit(SolveRequest(instance=inst))
                fingerprints[policy] = service.poll(job)["fingerprint"]
        assert fingerprints["best_ratio"] != fingerprints["first_fit"]
        # ...while an explicit policy equal to the default is the same line.
        with SolveService(start_worker=False) as service:
            implicit = service.poll(
                service.submit(SolveRequest(instance=inst))
            )["fingerprint"]
            explicit = service.poll(
                service.submit(SolveRequest(instance=inst, policy="best_ratio"))
            )["fingerprint"]
        assert implicit == explicit == fingerprints["best_ratio"]

    def test_fingerprint_ignores_labels(self):
        inst = dyadic_instance(random.Random(3), 8, g=2, name="labelled")
        a = request_fingerprint(SolveRequest(instance=inst, tags={"who": "a"}))
        b = request_fingerprint(SolveRequest(instance=inst, tags={"who": "b"}))
        assert a == b


class TestCanonicalOracle:
    """The acceptance-criteria oracle: over fuzzed instances, symmetry
    variants fingerprint identically and their served schedules cost the
    same as a direct engine solve."""

    @pytest.mark.parametrize("seed", range(8))
    def test_variants_fingerprint_identically(self, seed):
        rng = random.Random(seed)
        inst = dyadic_instance(rng, rng.randrange(5, 18), g=rng.randrange(1, 5))
        request = SolveRequest(instance=inst)
        base = request_fingerprint(request)
        for delta in (-64.0, -3.25, 0.5, 17.0, 1024.0):
            variant = shifted_variant(inst, delta)
            assert request_fingerprint(SolveRequest(instance=variant)) == base
        for _ in range(3):
            variant = relabeled_variant(inst, rng)
            assert request_fingerprint(SolveRequest(instance=variant)) == base
        combined = relabeled_variant(shifted_variant(inst, 12.5), rng)
        assert request_fingerprint(SolveRequest(instance=combined)) == base

    @pytest.mark.parametrize("seed", range(8))
    def test_decanonicalized_solve_matches_direct_solve(self, seed):
        rng = random.Random(100 + seed)
        inst = dyadic_instance(rng, rng.randrange(5, 16), g=rng.randrange(1, 4))
        variant = relabeled_variant(shifted_variant(inst, 8.0), rng)
        request = SolveRequest(instance=variant)

        direct = Engine().solve(request)
        canonical, form = canonical_request(request)
        canonical_report = Engine().solve(canonical)
        served = decanonicalize_report(canonical_report, form, variant)

        served.schedule.validate()  # the slow-path oracle on the original axis
        assert served.cost == pytest.approx(direct.cost)
        assert served.num_machines == direct.num_machines
        assert served.lower_bound == pytest.approx(direct.lower_bound)
        assert served.proven_ratio == direct.proven_ratio
        assert set(served.schedule.assignment()) == {j.id for j in variant.jobs}

    def test_served_report_equals_direct_report(self):
        inst = dyadic_instance(random.Random(42), 14, g=2, name="served")
        request = SolveRequest(instance=inst, tags={"case": "oracle"})
        direct = Engine().solve(request)
        with SolveService() as service:
            served = service.solve(request, timeout=30)
        assert served.cost == pytest.approx(direct.cost)
        assert served.num_machines == direct.num_machines
        assert served.lower_bound == pytest.approx(direct.lower_bound)
        assert served.algorithm == direct.algorithm
        assert dict(served.tags) == {"case": "oracle"}
        assert served.schedule.instance is inst  # caller's instance, not a copy


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


def _canonical_report_for(instance: Instance):
    request = SolveRequest(instance=instance)
    canonical, _ = canonical_request(request)
    return request_fingerprint(request), Engine().solve(canonical)


def _damaged_doc(change):
    def damage(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)

    return damage


def _drop_job(doc):
    machine = doc["schedule"]["machines"][0]
    machine["job_ids"] = machine["job_ids"][1:]


def _fractional_job_id(doc):
    for machine in doc["schedule"]["machines"]:
        machine["job_ids"] = [0.5 if v == 0 else v for v in machine["job_ids"]]


def _text_job_ids(doc):
    machine = doc["schedule"]["machines"][0]
    machine["job_ids"] = [str(v) for v in machine["job_ids"]]


def _fractional_machine_index(doc):
    doc["schedule"]["machines"][0]["index"] += 0.5


#: How a stored entry is damaged: a function of the entry's text.
_DAMAGED_ENTRIES = {
    "unparseable": lambda text: "{not json",
    "truncated": lambda text: text[: len(text) // 2],
    "non-object": lambda text: "[1, 2, 3]",
    "wrong-format": _damaged_doc(lambda d: d.update(format="busytime-schedule")),
    "future-version": _damaged_doc(lambda d: d.update(version=99)),
    "infeasible-schedule": _damaged_doc(_drop_job),
    "machines-int": _damaged_doc(lambda d: d["schedule"].update(machines=5)),
    "job-ids-int": _damaged_doc(
        lambda d: d["schedule"]["machines"][0].update(job_ids=7)
    ),
    "machine-row-string": _damaged_doc(
        lambda d: d["schedule"]["machines"].__setitem__(0, "row")
    ),
    "instance-jobs-null": _damaged_doc(
        lambda d: d["schedule"]["instance"].update(jobs=None)
    ),
    "components-int": _damaged_doc(lambda d: d.update(components=5)),
    "tags-list": _damaged_doc(lambda d: d.update(tags=[1])),
    # json writes 1e400 as Infinity and reads it back as a float infinity.
    "g-inf": _damaged_doc(lambda d: d["schedule"]["instance"].update(g=1e400)),
    "job-id-inf": _damaged_doc(
        lambda d: d["schedule"]["machines"][0]["job_ids"].__setitem__(0, 1e400)
    ),
    "job-id-fraction": _damaged_doc(_fractional_job_id),
    # Values int() would change into ones the oracle accepts.
    "job-ids-text": _damaged_doc(_text_job_ids),
    "machine-index-fraction": _damaged_doc(_fractional_machine_index),
    "g-fraction": _damaged_doc(lambda d: d["schedule"]["instance"].update(g=2.5)),
}


class TestResultStore:
    def test_memory_hit_and_miss_counters(self):
        store = ResultStore(capacity=4)
        fp, report = _canonical_report_for(dyadic_instance(random.Random(0), 6, g=2))
        assert store.get(fp) is None
        store.put(fp, report)
        cached = store.get(fp)
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["puts"]) == (1, 1, 1)
        assert stats["hit_rate"] == 0.5
        # The memory tier keeps one flat copy (no job objects), telemetry
        # included, and shares it by reference.
        assert isinstance(cached.schedule, ScheduleRows)
        assert bio.solve_report_to_dict(cached) == bio.solve_report_to_dict(report)
        assert store.get(fp) is cached

    def test_disk_entries_are_written_on_one_line(self, tmp_path):
        store = ResultStore(directory=tmp_path)
        fp, report = _canonical_report_for(dyadic_instance(random.Random(9), 12, g=2))
        store.put(fp, report)
        store.put_document("session-1", {"events": [{"time": 1.0}] * 3, "applied": 3})
        for path in (store._disk_path(fp), store._document_path("session-1")):
            text = path.read_text()
            assert "\n" not in text and ", " not in text and ": " not in text
        assert bio.solve_report_to_dict(store.get(fp), include_timings=False) == json.loads(
            store._disk_path(fp).read_text()
        )

    def test_indented_entries_still_load(self, tmp_path):
        """Entries an earlier writer left indented load through every reader."""
        fp, report = _canonical_report_for(dyadic_instance(random.Random(10), 12, g=2))
        doc = bio.solve_report_to_dict(report, include_timings=False)
        writer = ResultStore(directory=tmp_path)
        path = writer._disk_path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2))
        checkpoint = {"format": "x", "applied": 2, "events": [{"time": 0.5}]}
        doc_path = writer._document_path("old-session")
        doc_path.parent.mkdir(parents=True, exist_ok=True)
        doc_path.write_text(json.dumps(checkpoint, indent=2))

        reader = ResultStore(directory=tmp_path)
        loaded = reader.get(fp)
        assert loaded is not None and reader.stats()["disk_hits"] == 1
        assert bio.solve_report_to_dict(loaded, include_timings=False) == doc
        warmer = ResultStore(directory=tmp_path)
        assert warmer.warm([fp[:2]]) == 1 and fp in warmer
        assert reader.get_document("old-session") == checkpoint

    def test_lru_evicts_least_recently_used(self):
        store = ResultStore(capacity=2)
        entries = [
            _canonical_report_for(dyadic_instance(random.Random(s), 5, g=2))
            for s in range(3)
        ]
        store.put(*entries[0])
        store.put(*entries[1])
        assert store.get(entries[0][0]) is not None  # 0 is now most recent
        store.put(*entries[2])  # evicts 1, the LRU
        assert store.get(entries[1][0]) is None
        assert store.get(entries[0][0]) is not None
        assert store.stats()["evictions"] == 1

    def test_disk_tier_survives_memory_eviction(self, tmp_path):
        store = ResultStore(capacity=1, directory=tmp_path / "cache")
        entries = [
            _canonical_report_for(dyadic_instance(random.Random(s), 5, g=2))
            for s in range(2)
        ]
        store.put(*entries[0])
        store.put(*entries[1])  # evicts 0 from memory; disk copy remains
        report = store.get(entries[0][0])
        assert report is not None
        assert report.cost == pytest.approx(entries[0][1].cost)
        assert store.stats()["disk_hits"] == 1

    def test_disk_round_trip_is_deterministic(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "cache")
        fp, report = _canonical_report_for(dyadic_instance(random.Random(7), 8, g=2))
        store.put(fp, report)
        # Entries land in the shard-prefix subdirectory (fp[:2]).
        path = tmp_path / "cache" / fp[:2] / f"{fp}.json"
        first_bytes = path.read_text()
        store.put(fp, report)
        assert path.read_text() == first_bytes  # timings excluded on disk

    @pytest.mark.parametrize("reader", ["get", "warm"])
    @pytest.mark.parametrize("damage", sorted(_DAMAGED_ENTRIES))
    def test_damaged_disk_entry_is_a_miss_not_an_error(self, tmp_path, damage, reader):
        """One reader for every disk entry: ``get`` misses, ``warm`` skips
        (and still warms the entries after it)."""
        store = ResultStore(capacity=8, directory=tmp_path / "cache")
        good_fp, good = _canonical_report_for(dyadic_instance(random.Random(10), 5, g=2))
        fp, report = _canonical_report_for(dyadic_instance(random.Random(9), 5, g=2))
        store.put(good_fp, good)
        store.put(fp, report)
        path = store._disk_path(fp)
        # Rewritten last, so warm (newest first) reaches it before the good one.
        path.write_text(_DAMAGED_ENTRIES[damage](path.read_text()))
        store.clear_memory()
        if reader == "get":
            assert store.get(fp) is None
            assert store.get(good_fp) is not None
        else:
            assert store.warm([fp[:2], good_fp[:2]]) == 1
            assert store.get(good_fp) is not None
            assert store.stats()["disk_hits"] == 0

    def test_legacy_flat_entries_are_read_through_the_same_loader(self, tmp_path):
        flat = ResultStore(capacity=2, directory=tmp_path / "cache", shard_depth=0)
        fp, report = _canonical_report_for(dyadic_instance(random.Random(9), 5, g=2))
        flat.put(fp, report)
        store = ResultStore(capacity=2, directory=tmp_path / "cache")
        assert store.get(fp) is not None  # read from the flat path
        (tmp_path / "cache" / f"{fp}.json").write_text("{not json")
        store.clear_memory()
        assert store.get(fp) is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ResultStore(capacity=0)

    def test_disk_tier_cap_evicts_oldest_entries(self, tmp_path):
        import os
        import time as _time

        entries = [
            _canonical_report_for(dyadic_instance(random.Random(s), 5, g=2))
            for s in range(5)
        ]
        # Seed the directory uncapped, with distinct, ordered mtimes (the
        # eviction key) so the test does not depend on filesystem timestamp
        # resolution or put ordering.
        seeder = ResultStore(capacity=2, directory=tmp_path / "cache")
        for index, (fp, report) in enumerate(entries[:4]):
            seeder.put(fp, report)
            path = tmp_path / "cache" / fp[:2] / f"{fp}.json"
            stamp = _time.time() - 100 + index
            os.utime(path, (stamp, stamp))
        # A capped store over the same directory: its next write must
        # enforce the budget by evicting the oldest entries.
        store = ResultStore(
            capacity=2, directory=tmp_path / "cache", max_disk_entries=3
        )
        store.put(*entries[4])
        assert store.disk_entries() <= 3
        stats = store.stats()
        assert stats["disk_evictions"] >= 2
        assert stats["max_disk_entries"] == 3
        store.clear_memory()
        # The newest survive; the oldest were evicted.
        assert store.get(entries[4][0]) is not None
        assert store.get(entries[3][0]) is not None
        assert store.get(entries[0][0]) is None

    def test_warm_loads_disk_prefixes_into_memory(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "cache")
        entries = [
            _canonical_report_for(dyadic_instance(random.Random(s), 5, g=2))
            for s in range(4)
        ]
        for fp, report in entries:
            store.put(fp, report)
        store.clear_memory()
        warmed = store.warm([fp[:2] for fp, _ in entries])
        assert warmed == 4
        assert len(store) == 4
        assert store.stats()["warmed"] == 4
        # Warmed entries are memory hits now — no disk read involved.
        disk_hits_before = store.stats()["disk_hits"]
        assert store.get(entries[0][0]) is not None
        assert store.stats()["disk_hits"] == disk_hits_before

    def test_two_stores_share_one_disk_directory(self, tmp_path):
        # Two services pointed at the same disk tier (the pre-cluster way
        # to share results): a report solved by one is a disk hit in the
        # other, and concurrent writers do not corrupt entries (each put
        # goes through its own tempfile + atomic rename).
        directory = tmp_path / "shared"
        inst = dyadic_instance(random.Random(300), 6, g=2, name="shared")
        with SolveService(store=ResultStore(capacity=8, directory=directory)) as a:
            first = a.solve(SolveRequest(instance=inst))
        with SolveService(store=ResultStore(capacity=8, directory=directory)) as b:
            second = b.solve(SolveRequest(instance=inst))
            stats = b.stats()["store"]
        assert stats["disk_hits"] == 1
        assert second.cost == pytest.approx(first.cost)
        second.schedule.validate()


# ---------------------------------------------------------------------------
# SolveService
# ---------------------------------------------------------------------------


class TestSolveService:
    def test_cache_hit_on_equivalent_request(self):
        inst = dyadic_instance(random.Random(20), 10, g=2)
        variant = relabeled_variant(shifted_variant(inst, 32.0), random.Random(21))
        with SolveService() as service:
            first = service.solve(SolveRequest(instance=inst), timeout=30)
            job2 = service.submit(SolveRequest(instance=variant))
            second = service.result(job2, timeout=30)
            assert service.poll(job2)["cached"] is True
            stats = service.stats()
        assert first.cost == pytest.approx(second.cost)
        assert stats["store"]["hits"] == 1
        assert stats["store"]["misses"] == 1
        # The cached answer is mapped onto the *variant's* job ids.
        assert set(second.schedule.assignment()) == {j.id for j in variant.jobs}

    def test_inflight_dedupe_solves_once(self):
        service = SolveService(start_worker=False)
        inst = dyadic_instance(random.Random(22), 8, g=2)
        job_a = service.submit(SolveRequest(instance=inst))
        job_b = service.submit(SolveRequest(instance=relabeled_variant(inst, random.Random(23))))
        assert service.poll(job_b)["deduped"] is True
        assert service.process_once(block=False) == 1  # one flight, two jobs
        assert service.result(job_a, timeout=5).cost == pytest.approx(
            service.result(job_b, timeout=5).cost
        )
        stats = service.stats()
        assert stats["deduped_inflight"] == 1
        assert stats["completed"] == 2
        assert stats["store"]["puts"] == 1
        service.close()

    def test_micro_batching_groups_distinct_requests(self):
        service = SolveService(start_worker=False, batch_size=8, batch_window=0.0)
        instances = [dyadic_instance(random.Random(s), 6, g=2) for s in range(30, 34)]
        jobs = [service.submit(SolveRequest(instance=i)) for i in instances]
        assert service.process_once(block=False) == 4
        for job_id, instance in zip(jobs, instances):
            report = service.result(job_id, timeout=5)
            assert report.cost == pytest.approx(
                Engine().solve(SolveRequest(instance=instance)).cost
            )
        stats = service.stats()
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 4
        assert stats["largest_batch"] == 4
        service.close()

    def test_batch_size_caps_one_drain(self):
        service = SolveService(start_worker=False, batch_size=2, batch_window=0.0)
        for s in range(40, 43):
            service.submit(SolveRequest(instance=dyadic_instance(random.Random(s), 5, g=2)))
        assert service.process_once(block=False) == 2
        assert service.process_once(block=False) == 1
        assert service.stats()["largest_batch"] == 2
        service.close()

    def test_admission_rejects_oversized_instance(self):
        service = SolveService(limits=AdmissionLimits(max_jobs=5), start_worker=False)
        big = dyadic_instance(random.Random(50), 6, g=2)
        with pytest.raises(AdmissionError, match="6 jobs"):
            service.submit(SolveRequest(instance=big))
        assert service.stats()["rejected"] == 1
        service.close()

    def test_admission_rejects_excessive_time_limit(self):
        service = SolveService(
            limits=AdmissionLimits(max_time_limit=1.0), start_worker=False
        )
        inst = dyadic_instance(random.Random(51), 5, g=2)
        with pytest.raises(AdmissionError, match="time_limit"):
            service.submit(SolveRequest(instance=inst, time_limit=5.0))
        service.close()

    def test_admission_caps_forced_algorithm_size(self):
        # Forced solves cannot be preempted by a time budget, so they get
        # the tighter size cap instead of head-of-line blocking the worker.
        service = SolveService(
            limits=AdmissionLimits(max_jobs=100, max_forced_jobs=10),
            start_worker=False,
        )
        big = dyadic_instance(random.Random(54), 20, g=2)
        with pytest.raises(AdmissionError, match="cannot be preempted"):
            service.submit(SolveRequest(instance=big, algorithm="first_fit"))
        # The same instance is admitted under policy dispatch (with the
        # default time budget injected) and under the forced cap.
        service.submit(SolveRequest(instance=big))
        small = dyadic_instance(random.Random(55), 8, g=2)
        service.submit(SolveRequest(instance=small, algorithm="first_fit"))
        service.close()

    def test_admission_supplies_default_time_limit(self):
        limits = AdmissionLimits(max_time_limit=7.5)
        admitted = limits.admit(
            SolveRequest(instance=dyadic_instance(random.Random(52), 5, g=2))
        )
        assert admitted.time_limit == 7.5
        forced = limits.admit(
            SolveRequest(
                instance=dyadic_instance(random.Random(53), 5, g=2),
                algorithm="first_fit",
            )
        )
        assert forced.time_limit is None  # forced solves cannot be preempted

    def test_failed_solve_isolated_from_batch_mates(self):
        class BoobyTrappedEngine(Engine):
            def solve(self, request, scheduler=None):
                if any(j.tag == "boom" for j in request.instance.jobs):
                    raise RuntimeError("kaboom")
                return super().solve(request, scheduler)

        service = SolveService(engine=BoobyTrappedEngine(), start_worker=False)
        good = dyadic_instance(random.Random(60), 5, g=2)
        bad = Instance(
            jobs=(Job(id=0, interval=Interval(0, 1), tag="boom"),), g=1, name="bad"
        )
        good_job = service.submit(SolveRequest(instance=good))
        bad_job = service.submit(SolveRequest(instance=bad))
        assert service.process_once(block=False) == 2
        assert service.result(good_job, timeout=5).cost > 0
        with pytest.raises(JobFailedError, match="kaboom"):
            service.result(bad_job, timeout=5)
        stats = service.stats()
        assert stats["completed"] == 1 and stats["failed"] == 1
        service.close()

    def test_budget_exhausted_reports_are_served_but_never_cached(self):
        service = SolveService(start_worker=False)
        inst = dyadic_instance(random.Random(63), 10, g=2)
        # time_limit=0 trips the budget immediately: the engine serves its
        # FirstFit fallback and flags the report budget_exhausted.
        request = SolveRequest(instance=inst, time_limit=0.0)
        job = service.submit(request)
        assert service.process_once(block=False) == 1
        report = service.result(job, timeout=5)
        assert report.budget_exhausted is True
        # The degraded answer reached its requester but not the store: the
        # next equivalent request re-solves instead of inheriting it.
        assert service.stats()["store"]["puts"] == 0
        job2 = service.submit(request)
        assert service.poll(job2)["cached"] is False
        assert service.process_once(block=False) == 1
        service.result(job2, timeout=5)
        service.close()

    def test_broken_pool_is_discarded_not_kept(self):
        from concurrent.futures import BrokenExecutor

        class DeadFuture:
            def result(self, timeout=None):
                raise BrokenExecutor("worker died")

        class DeadPool:
            def submit(self, *args, **kwargs):
                return DeadFuture()

            def shutdown(self, wait=True):
                pass

        service = SolveService(start_worker=False, max_workers=2, batch_window=0.0)
        service._executor = DeadPool()
        instances = [dyadic_instance(random.Random(s), 5, g=2) for s in (64, 65)]
        jobs = [service.submit(SolveRequest(instance=i)) for i in instances]
        assert service.process_once(block=False) == 2
        # The batch fell back to serial solves and the dead pool was dropped
        # (the next multi-request batch rebuilds instead of re-failing).
        for job in jobs:
            assert service.result(job, timeout=30).cost > 0
        assert not isinstance(service._executor, DeadPool)
        service.close()

    def test_disk_write_failure_keeps_the_memory_tier(self, tmp_path, monkeypatch):
        store = ResultStore(capacity=4, directory=tmp_path / "cache")
        fp, report = _canonical_report_for(dyadic_instance(random.Random(66), 5, g=2))

        def broken_mkstemp(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("busytime.service.store.tempfile.mkstemp", broken_mkstemp)
        with pytest.raises(OSError):
            store.put(fp, report)
        # The put raised (callers count it) but the memory tier kept the
        # entry, so hot repeats still hit while the disk is unwritable.
        cached = store.get(fp)
        assert cached is not None and store.stats()["disk_hits"] == 0
        assert bio.solve_report_to_dict(cached) == bio.solve_report_to_dict(report)

    def test_disk_store_serves_across_service_restarts(self, tmp_path):
        inst = dyadic_instance(random.Random(70), 9, g=2)
        request = SolveRequest(instance=inst)
        with SolveService(store=ResultStore(directory=tmp_path / "cache")) as first:
            cold = first.solve(request, timeout=30)
        with SolveService(store=ResultStore(directory=tmp_path / "cache")) as second:
            job = second.submit(request)
            warm = second.result(job, timeout=30)
            assert second.poll(job)["cached"] is True
        assert warm.cost == pytest.approx(cold.cost)

    def test_store_put_failure_does_not_wedge_the_request(self):
        class BrokenStore(ResultStore):
            def put(self, fingerprint, report):
                raise OSError("disk full")

        service = SolveService(store=BrokenStore(), start_worker=False)
        inst = dyadic_instance(random.Random(61), 6, g=2)
        job = service.submit(SolveRequest(instance=inst))
        assert service.process_once(block=False) == 1
        # The report is in hand; a failed cache write must not lose it.
        assert service.result(job, timeout=5).cost > 0
        stats = service.stats()
        assert stats["store_put_failures"] == 1
        assert stats["pending"] == 0  # fingerprint not wedged in flight
        # The next identical request re-solves (nothing was cached) instead
        # of attaching to a zombie flight.
        job2 = service.submit(SolveRequest(instance=inst))
        assert service.poll(job2)["deduped"] is False
        assert service.process_once(block=False) == 1
        assert service.result(job2, timeout=5).cost > 0
        service.close()

    def test_finished_jobs_are_pruned_past_retention(self):
        service = SolveService(start_worker=False, max_finished_jobs=3)
        jobs = []
        for s in range(44, 49):
            jobs.append(
                service.submit(
                    SolveRequest(instance=dyadic_instance(random.Random(s), 4, g=2))
                )
            )
            service.process_once(block=False)
        # The two oldest finished jobs fell out of the retention window.
        for stale in jobs[:2]:
            with pytest.raises(KeyError):
                service.poll(stale)
        for kept in jobs[2:]:
            assert service.poll(kept)["status"] == "done"
        service.close()

    def test_close_fails_pending_jobs_instead_of_deadlocking(self):
        service = SolveService(start_worker=False)
        inst = dyadic_instance(random.Random(62), 5, g=2)
        job = service.submit(SolveRequest(instance=inst))  # queued, never run
        service.close()
        with pytest.raises(JobFailedError, match="service closed"):
            service.result(job, timeout=5)
        assert service.poll(job)["status"] == "failed"

    def test_submit_after_close_raises(self):
        service = SolveService(start_worker=False)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(
                SolveRequest(instance=dyadic_instance(random.Random(80), 4, g=2))
            )

    def test_close_racing_submit_cannot_enqueue_an_orphan_flight(self):
        # close() lands exactly in submit's unlocked window (during the
        # store lookup): the late submit must refuse, not queue a flight no
        # worker will ever drain.
        service = SolveService(start_worker=False)
        original_get = service.store.get

        def close_then_miss(fingerprint):
            service.close()
            return original_get(fingerprint)

        service.store.get = close_then_miss
        with pytest.raises(ServiceClosedError):
            service.submit(
                SolveRequest(instance=dyadic_instance(random.Random(81), 4, g=2))
            )
        assert service.stats()["pending"] == 0

    def test_persistent_pool_is_reused_across_batches(self):
        service = SolveService(start_worker=False, max_workers=2, batch_window=0.0)
        instances = [dyadic_instance(random.Random(s), 6, g=2) for s in range(84, 88)]
        for inst in instances[:2]:
            service.submit(SolveRequest(instance=inst))
        assert service.process_once(block=False) == 2
        pool = service._executor
        assert pool is not None  # multi-request batch went through the pool
        for inst in instances[2:]:
            service.submit(SolveRequest(instance=inst))
        assert service.process_once(block=False) == 2
        assert service._executor is pool  # amortized, not rebuilt per batch
        for job_id in (f"job-{k:06d}" for k in range(1, 5)):
            assert service.result(job_id, timeout=30).cost > 0
        service.close()
        assert service._executor is None

    def test_unknown_job_id_raises_key_error(self):
        with SolveService(start_worker=False) as service:
            with pytest.raises(KeyError):
                service.poll("job-999999")

    def test_concurrent_submitters_share_one_solve(self):
        inst = uniform_random_instance(40, g=3, seed=5)
        reports = []
        with SolveService(batch_window=0.05) as service:
            def submit():
                reports.append(service.solve(SolveRequest(instance=inst), timeout=30))

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = service.stats()
        assert len({r.cost for r in reports}) == 1
        # Six identical requests, exactly one engine solve: the rest were
        # deduped in flight or answered from the store.
        assert stats["store"]["puts"] == 1
        assert stats["deduped_inflight"] + stats["store"]["hits"] == 5


# ---------------------------------------------------------------------------
# HTTP frontend
# ---------------------------------------------------------------------------


@pytest.fixture()
def http_service(tmp_path):
    service = SolveService(limits=AdmissionLimits(max_jobs=100))
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield service, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close()


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


class TestHTTPFrontend:
    def test_solve_wait_round_trips_report(self, http_service):
        _, url = http_service
        inst = dyadic_instance(random.Random(90), 8, g=2, name="http")
        reply = submit_instance(url, bio.instance_to_dict(inst), wait=True)
        assert reply["status"] == "done"
        report = bio.solve_report_from_dict(reply["report"])
        report.schedule.validate()
        assert report.cost == pytest.approx(
            Engine().solve(SolveRequest(instance=inst)).cost
        )

    def test_async_submit_then_poll_jobs_endpoint(self, http_service):
        _, url = http_service
        inst = dyadic_instance(random.Random(91), 8, g=2)
        reply = submit_instance(url, bio.instance_to_dict(inst), wait=False)
        job_id = reply["job_id"]
        for _ in range(200):
            status, payload = _get_json(f"{url}/jobs/{job_id}")
            assert status == 200
            if payload["status"] == "done":
                break
            import time

            time.sleep(0.01)
        assert payload["status"] == "done"
        assert "report" in payload

    def test_stats_endpoint_reports_hits(self, http_service):
        _, url = http_service
        inst = dyadic_instance(random.Random(92), 8, g=2)
        submit_instance(url, bio.instance_to_dict(inst), wait=True)
        submit_instance(url, bio.instance_to_dict(inst), wait=True)
        _, stats = _get_json(f"{url}/stats")
        assert stats["submitted"] >= 2
        assert stats["store"]["hits"] >= 1

    def test_algorithms_endpoint_lists_registry(self, http_service):
        _, url = http_service
        _, payload = _get_json(f"{url}/algorithms")
        names = {a["name"] for a in payload["algorithms"]}
        assert {"first_fit", "proper_greedy"} <= names

    def test_forced_algorithm_option(self, http_service):
        _, url = http_service
        inst = dyadic_instance(random.Random(93), 8, g=2)
        reply = submit_instance(
            url, bio.instance_to_dict(inst), options={"algorithm": "first_fit"}
        )
        assert reply["report"]["algorithm"] == "first_fit"

    def test_nan_budgets_and_unknown_names_are_a_400(self, http_service):
        """The stdlib JSON parser accepts NaN, and NaN fails no ``<``/``>``
        check: a NaN budget must still be refused, not solved unbudgeted.
        Refusal messages are the bare text, not a quoted KeyError."""
        _, url = http_service
        inst = bio.instance_to_dict(dyadic_instance(random.Random(95), 8, g=2))
        for options in ({"time_limit": float("nan")}, {"deadline_ms": float("nan")}):
            with pytest.raises(RuntimeError, match="must be non-negative, got nan"):
                submit_instance(url, inst, options=options)
        with pytest.raises(RuntimeError, match="above the service limit"):
            submit_instance(url, inst, options={"time_limit": 1e9})
        with pytest.raises(RuntimeError) as err:
            submit_instance(url, inst, options={"policy": "nope"})
        assert str(err.value).startswith(
            "service rejected the request: unknown policy 'nope'; available: ["
        )
        # The learned selector is gone: its name is refused like any other.
        body = json.dumps({"instance": inst, "options": {"policy": "learned"}})
        request = urllib.request.Request(
            url + "/solve", data=body.encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as refused:
            urllib.request.urlopen(request, timeout=10)
        assert refused.value.code == 400
        assert json.loads(refused.value.read())["error"].startswith(
            "unknown policy 'learned'; available: ['best_ratio', 'first_fit']"
        )

    def test_admission_rejection_maps_to_413(self, http_service):
        _, url = http_service
        big = dyadic_instance(random.Random(94), 101, g=2)
        with pytest.raises(RuntimeError, match="above the service limit"):
            submit_instance(url, bio.instance_to_dict(big))

    def test_negative_content_length_maps_to_400(self, http_service):
        # read(-1) would mean read-until-EOF: an unbounded buffer behind
        # the body cap, and a pinned handler thread.
        import http.client

        _, url = http_service
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        connection.putrequest("POST", "/solve")
        connection.putheader("Content-Length", "-1")
        connection.putheader("Content-Type", "application/json")
        connection.endheaders()
        reply = connection.getresponse()
        assert reply.status == 400
        assert "Content-Length" in json.loads(reply.read())["error"]
        connection.close()

    def test_bad_request_body_maps_to_400(self, http_service):
        _, url = http_service
        request = urllib.request.Request(
            f"{url}/solve", data=b"{broken", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_option_maps_to_400(self, http_service):
        _, url = http_service
        inst = dyadic_instance(random.Random(95), 5, g=2)
        with pytest.raises(RuntimeError, match="unknown options"):
            submit_instance(url, bio.instance_to_dict(inst), options={"nope": 1})

    def test_mistyped_option_maps_to_400_not_a_dropped_connection(self, http_service):
        _, url = http_service
        inst = dyadic_instance(random.Random(97), 5, g=2)
        for options in (
            {"time_limit": "5"},
            {"portfolio": "yes"},
            {"max_jobs_for_optimum": 2.5},
            {"algorithm": 7},
        ):
            with pytest.raises(RuntimeError, match="must be"):
                submit_instance(url, bio.instance_to_dict(inst), options=options)

    def test_oversized_body_maps_to_413_before_reading(self):
        service = SolveService(start_worker=False)
        server = make_server(service, port=0, max_body_bytes=1024)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            inst = dyadic_instance(random.Random(98), 60, g=2)  # > 1 KiB doc
            with pytest.raises(RuntimeError, match="above the service limit"):
                submit_instance(
                    f"http://{host}:{port}", bio.instance_to_dict(inst)
                )
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_oversized_refusal_closes_the_keepalive_connection(self):
        # The refused body is never drained, so the server must close the
        # connection; a keep-alive client that reused it would otherwise see
        # its next request line parsed out of the stale body bytes.
        import http.client

        service = SolveService()
        server = make_server(service, port=0, max_body_bytes=64)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request(
                "POST", "/solve", body=b"x" * 1024,
                headers={"Content-Type": "application/json"},
            )
            reply = connection.getresponse()
            assert reply.status == 413
            assert reply.getheader("Connection") == "close"
            reply.read()
            # http.client transparently reconnects on a closed connection,
            # so the follow-up request must come back clean, not as a 501
            # parsed out of the stale POST body.
            connection.request("GET", "/stats")
            stats_reply = connection.getresponse()
            assert stats_reply.status == 200
            json.loads(stats_reply.read())
            connection.close()
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_non_object_instance_maps_to_400(self, http_service):
        _, url = http_service
        import urllib.error

        body = json.dumps({"instance": [1, 2, 3]}).encode("utf-8")
        request = urllib.request.Request(
            f"{url}/solve", data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        assert "expected a JSON object" in json.loads(err.value.read())["error"]

    def test_handler_sets_a_socket_timeout(self):
        # A client that under-sends its advertised Content-Length must not
        # pin the handler thread forever; socketserver honors this attr.
        from busytime.service.frontend import _ServiceHandler

        assert _ServiceHandler.timeout == 60.0

    def test_unknown_job_and_endpoint_map_to_404(self, http_service):
        _, url = http_service
        for path in ("/jobs/job-999999", "/bogus"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{url}{path}", timeout=10)
            assert err.value.code == 404

    def test_submit_against_closed_service_maps_to_503(self):
        service = SolveService(start_worker=False)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            service.close()  # "caller owns the loop": server still accepting
            inst = dyadic_instance(random.Random(99), 4, g=2)
            with pytest.raises(RuntimeError, match="closed"):
                submit_instance(
                    f"http://{host}:{port}", bio.instance_to_dict(inst)
                )
        finally:
            server.shutdown()
            server.server_close()

    def test_post_refusals_close_the_keepalive_connection(self, http_service):
        # A POST body sent to a refused path/encoding is never drained, so
        # the connection must close instead of desyncing the next request.
        import http.client

        _, url = http_service
        host, port = url.removeprefix("http://").split(":")
        for path, headers, expected in (
            ("/solvex", {"Content-Type": "application/json"}, 404),
            ("/solve", {"Transfer-Encoding": "chunked"}, 411),
        ):
            connection = http.client.HTTPConnection(host, int(port), timeout=10)
            connection.request(
                "POST", path, body=b'{"instance": {}}', headers=headers
            )
            reply = connection.getresponse()
            assert reply.status == expected
            assert reply.getheader("Connection") == "close"
            reply.read()
            connection.request("GET", "/stats")  # reconnects transparently
            stats_reply = connection.getresponse()
            assert stats_reply.status == 200
            json.loads(stats_reply.read())
            connection.close()

    def test_cli_submit_against_live_server(self, http_service, tmp_path, capsys):
        _, url = http_service
        inst = dyadic_instance(random.Random(96), 8, g=2, name="via-cli")
        path = tmp_path / "inst.json"
        bio.save_instance(inst, path)
        out = tmp_path / "report.json"
        rc = main(["submit", str(path), "--url", url, "--output", str(out)])
        assert rc == 0
        assert "served solve" in capsys.readouterr().out
        report = bio.load_solve_report(out)
        assert report.cost == pytest.approx(
            Engine().solve(SolveRequest(instance=inst)).cost
        )


# ---------------------------------------------------------------------------
# Backpressure, drain, health
# ---------------------------------------------------------------------------


class TestBackpressureAndDrain:
    def test_max_pending_sheds_beyond_the_cap(self):
        # No worker thread: submitted jobs stay in flight, so the queue
        # depth is fully under the test's control.
        service = SolveService(start_worker=False, max_pending=1)
        try:
            a = dyadic_instance(random.Random(200), 4, g=2, name="bp-a")
            b = dyadic_instance(random.Random(201), 4, g=2, name="bp-b")
            service.submit(SolveRequest(instance=a))
            with pytest.raises(ServiceOverloadedError, match="max_pending"):
                service.submit(SolveRequest(instance=b))
            assert service.stats()["shed"] == 1
            health = service.health()
            assert health["status"] == "ok"
            assert health["queue_depth"] == 1
            assert health["max_pending"] == 1
            assert health["shed"] == 1
        finally:
            service.close()

    def test_duplicate_of_inflight_request_is_admitted_at_the_cap(self):
        # Dedupe attaches add no queue depth, so shedding them would only
        # lose a free answer.
        service = SolveService(start_worker=False, max_pending=1)
        try:
            a = dyadic_instance(random.Random(202), 4, g=2, name="bp-dup")
            service.submit(SolveRequest(instance=a))
            service.submit(SolveRequest(instance=a))  # same fingerprint
            assert service.queue_depth() == 1
            assert service.stats()["shed"] == 0
        finally:
            service.close()

    def test_drain_refuses_new_work_then_closes(self):
        service = SolveService(start_worker=False)
        a = dyadic_instance(random.Random(203), 4, g=2, name="dr-a")
        b = dyadic_instance(random.Random(204), 4, g=2, name="dr-b")
        service.submit(SolveRequest(instance=a))  # held in flight forever
        outcome = {}
        drainer = threading.Thread(
            target=lambda: outcome.setdefault(
                "drained", service.drain(timeout=1.0, poll=0.01)
            )
        )
        drainer.start()
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if service.health()["status"] == "draining":
                break
            time.sleep(0.01)
        assert service.health()["status"] == "draining"
        with pytest.raises(ServiceDrainingError, match="draining"):
            service.submit(SolveRequest(instance=b))
        drainer.join()
        # The held job never finished (no worker): the drain reports the
        # truth instead of pretending, and the service still closed.
        assert outcome["drained"] is False
        assert service.health()["status"] == "closed"

    def test_drain_of_idle_service_completes_cleanly(self):
        service = SolveService()
        inst = dyadic_instance(random.Random(205), 5, g=2, name="dr-idle")
        service.solve(SolveRequest(instance=inst))
        assert service.drain(timeout=5.0) is True
        with pytest.raises(ServiceClosedError):
            service.submit(SolveRequest(instance=inst))

    def test_draining_error_is_a_closed_subclass(self):
        # Callers that branch on "can this service take work" need one
        # catch; callers that care about the retryable distinction get it.
        assert issubclass(ServiceDrainingError, ServiceClosedError)
        assert issubclass(ServiceOverloadedError, RuntimeError)
        assert not issubclass(ServiceOverloadedError, ServiceClosedError)


class TestHTTPHealthWarmAndShed:
    def test_healthz_is_200_when_ok_and_503_when_draining(self):
        import urllib.error

        service = SolveService(start_worker=False)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            status, health = _get_json(f"{url}/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert "store" in health
            # Hold one job in flight so the drain stays in 'draining'.
            inst = dyadic_instance(random.Random(210), 4, g=2, name="hz")
            service.submit(SolveRequest(instance=inst))
            drainer = threading.Thread(
                target=service.drain, kwargs={"timeout": 2.0, "poll": 0.01}
            )
            drainer.start()
            import time

            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if service.health()["status"] != "ok":
                    break
                time.sleep(0.01)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{url}/healthz", timeout=10)
            assert err.value.code == 503
            assert json.loads(err.value.read())["status"] in ("draining", "closed")
            drainer.join()
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_saturated_service_answers_429_with_retry_after(self):
        import urllib.error

        service = SolveService(start_worker=False, max_pending=1)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            first = dyadic_instance(random.Random(211), 4, g=2, name="shed-a")
            reply = submit_instance(url, bio.instance_to_dict(first), wait=False)
            assert reply["status"] == "queued"
            second = dyadic_instance(random.Random(212), 4, g=2, name="shed-b")
            body = json.dumps(
                {"instance": bio.instance_to_dict(second)}
            ).encode("utf-8")
            request = urllib.request.Request(
                f"{url}/solve", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 429
            assert err.value.headers.get("Retry-After") is not None
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_warm_endpoint_loads_disk_entries(self, tmp_path):
        store = ResultStore(capacity=8, directory=tmp_path / "cache")
        service = SolveService(store=store)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            inst = dyadic_instance(random.Random(213), 5, g=2, name="warm")
            service.solve(SolveRequest(instance=inst))
            store.clear_memory()
            # The service resolves defaults (e.g. policy) into its cache
            # key, so read the shard prefix off the disk entry it wrote.
            [entry] = (tmp_path / "cache").rglob("*.json")
            prefix = entry.stem[:2]
            body = json.dumps({"prefixes": [prefix]}).encode("utf-8")
            request = urllib.request.Request(
                f"{url}/warm", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as reply:
                payload = json.loads(reply.read())
            assert payload["warmed"] == 1
            assert len(store) == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_wedged_disk_entry_is_resolved_and_overwritten(self, tmp_path):
        """A disk entry with a wrongly typed field is a miss over HTTP: the
        request re-solves (any disguise of the instance), the entry is
        overwritten, and the next request is a disk hit on the new bytes."""
        store = ResultStore(capacity=8, directory=tmp_path / "cache")
        service = SolveService(store=store)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            inst = dyadic_instance(random.Random(214), 6, g=2, name="wedge")
            first = submit_instance(url, bio.instance_to_dict(inst))
            [entry] = (tmp_path / "cache").rglob("*.json")
            doc = json.loads(entry.read_text())
            doc["schedule"]["machines"] = 5
            entry.write_text(json.dumps(doc))
            store.clear_memory()

            variant = relabeled_variant(shifted_variant(inst, 4.0), random.Random(5))
            resolved = submit_instance(url, bio.instance_to_dict(variant))
            assert resolved["status"] == "done" and not resolved["cached"]
            assert resolved["report"]["objective_value"] == first["report"]["objective_value"]
            bio.solve_report_from_dict(json.loads(entry.read_text()))  # overwritten

            store.clear_memory()
            hit = submit_instance(url, bio.instance_to_dict(inst))
            assert hit["cached"]
            assert store.stats()["disk_hits"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_warm_endpoint_validates_its_body(self, http_service):
        import urllib.error

        _, url = http_service
        for body in (b'{"prefixes": "ab"}', b'{"prefixes": ["ab"], "limit": -1}'):
            request = urllib.request.Request(
                f"{url}/warm", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400

    def test_keepalive_connection_survives_mixed_good_and_bad_requests(
        self, http_service
    ):
        # A 400 whose body WAS drained must not cost the connection: the
        # next request on the same socket gets a clean answer.
        import http.client

        _, url = http_service
        host, port = url.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        good = json.dumps(
            {
                "instance": bio.instance_to_dict(
                    dyadic_instance(random.Random(214), 5, g=2, name="ka")
                ),
                "wait": True,
            }
        ).encode("utf-8")
        bad = json.dumps(
            {
                "instance": bio.instance_to_dict(
                    dyadic_instance(random.Random(215), 5, g=2, name="ka2")
                ),
                "options": {"nope": 1},
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        connection.request("POST", "/solve", body=good, headers=headers)
        reply = connection.getresponse()
        assert reply.status == 200
        reply.read()
        socket_before = connection.sock
        for body, expected in ((bad, 400), (good, 200)):
            connection.request("POST", "/solve", body=body, headers=headers)
            reply = connection.getresponse()
            assert reply.status == expected
            assert reply.getheader("Connection") != "close"
            reply.read()
        # Same socket throughout: http.client would silently reconnect if
        # the server had dropped it, so assert identity, not just success.
        assert connection.sock is socket_before
        connection.close()

    def test_mid_body_client_disconnect_leaves_the_service_healthy(
        self, http_service
    ):
        import socket

        _, url = http_service
        host, port = url.removeprefix("http://").split(":")
        raw = socket.create_connection((host, int(port)), timeout=10)
        raw.sendall(
            b"POST /solve HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 1000\r\n"
            b"\r\n"
            b'{"instance"'
        )
        raw.close()  # hang up with 989 bytes still owed
        # The handler sees a short read, not a hung thread, and the server
        # keeps answering other clients.
        status, health = _get_json(f"{url}/healthz")
        assert status == 200
        assert health["status"] == "ok"


class TestClientRetry:
    def test_backoff_delays_are_bounded_and_jittered(self):
        from busytime.service.frontend import _backoff_delay

        for attempt in range(8):
            delay = _backoff_delay(attempt, backoff=0.25, cap=10.0)
            assert 0 <= delay <= min(10.0, 0.25 * 2**attempt)

    def test_connection_refused_is_retried_then_reported(self):
        import socket
        import time

        # Bind-then-close: a port where nothing listens, refusing connects.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        inst = dyadic_instance(random.Random(216), 4, g=2, name="retry")
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="after 3 attempts"):
            submit_instance(
                f"http://127.0.0.1:{port}",
                bio.instance_to_dict(inst),
                retries=2,
                backoff=0.01,
                timeout=5,
            )
        assert time.monotonic() - started < 5.0  # backed off, not hung

    def test_rejections_are_not_retried(self, http_service):
        # A 400 cannot improve with time; retries=5 must not slow it down.
        _, url = http_service
        inst = dyadic_instance(random.Random(217), 5, g=2, name="no-retry")
        import time

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="rejected"):
            submit_instance(
                url,
                bio.instance_to_dict(inst),
                options={"nope": 1},
                retries=5,
                backoff=5.0,
            )
        assert time.monotonic() - started < 4.0
