"""Tests for the sharded multi-worker cluster (busytime.service.cluster).

Covers the consistent-hash :class:`ShardMap` (coverage, determinism,
minimal disruption on membership change), routed solves through a live
:class:`LocalCluster` (shard affinity, cache hits, job polling), the
failure modes (kill-one-worker failover, drain spill, saturation
shedding), and the cache-warming hook on topology change.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from busytime import Engine, Instance, Interval, Job
from busytime import io as bio
from busytime.service import LocalCluster, ShardMap, submit_instance
from busytime.service.canonical import request_fingerprint
from busytime.service.cluster import (
    ALL_SHARDS,
    SHARD_PREFIX_LEN,
    ClusterRouter,
)
from busytime.service.frontend import _request_from_document

WORKERS = ["http://a:1", "http://b:2", "http://c:3", "http://d:4"]


def dyadic_instance(rng: random.Random, n: int, g: int = 2, name: str = "cl") -> Instance:
    """A random instance whose coordinates are multiples of 1/16."""
    jobs = []
    for i in range(n):
        start = rng.randrange(0, 512) / 16.0
        length = rng.randrange(1, 128) / 16.0
        jobs.append(Job(id=i, interval=Interval(start, start + length)))
    return Instance(jobs=tuple(jobs), g=g, name=name)


def _doc(seed: int, n: int = 6) -> dict:
    return bio.instance_to_dict(dyadic_instance(random.Random(seed), n, name=f"cl{seed}"))


def _fingerprint(seed: int, n: int = 5) -> str:
    return request_fingerprint(_request_from_document({"instance": _doc(seed, n=n)}))


class _HeldEngine(Engine):
    """An engine whose solves wait for ``release`` (set by the kill)."""

    def __init__(self, release: threading.Event) -> None:
        super().__init__()
        self.release = release

    def solve(self, request, *args, **kwargs):
        self.release.wait(timeout=60)
        return super().solve(request, *args, **kwargs)


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


# ---------------------------------------------------------------------------
# ShardMap
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_table_covers_every_shard(self):
        table = ShardMap(WORKERS).table()
        assert set(table) == set(ALL_SHARDS)
        assert set(table.values()) <= set(WORKERS)

    def test_same_workers_same_table(self):
        assert ShardMap(WORKERS).table() == ShardMap(WORKERS).table()

    def test_vnodes_spread_the_load(self):
        counts = {w: 0 for w in WORKERS}
        for owner in ShardMap(WORKERS, vnodes=64).table().values():
            counts[owner] += 1
        # 256 shards over 4 workers is 64 each in expectation; consistent
        # hashing is lumpy, but every worker must carry a real share.
        assert all(16 <= c <= 160 for c in counts.values()), counts

    def test_owner_order_lists_each_worker_once(self):
        sm = ShardMap(WORKERS)
        for shard in ("00", "7f", "ff"):
            order = sm.owners(shard)
            assert sorted(order) == sorted(WORKERS)

    def test_full_fingerprint_and_bare_shard_agree(self):
        sm = ShardMap(WORKERS)
        fp = "ab" + "0" * 62
        assert sm.owners(fp) == sm.owners("ab")
        assert ShardMap.shard_of(fp) == "ab"
        assert len(ShardMap.shard_of(fp)) == SHARD_PREFIX_LEN

    def test_losing_one_worker_moves_only_its_shards(self):
        sm = ShardMap(WORKERS)
        before = sm.table()
        survivors = [w for w in WORKERS if w != WORKERS[1]]
        after = sm.table(alive=survivors)
        for shard in ALL_SHARDS:
            if before[shard] != WORKERS[1]:
                # Consistent hashing's whole point: shards whose owner
                # survived do not move.
                assert after[shard] == before[shard]
            else:
                assert after[shard] in survivors

    def test_revival_restores_the_original_table(self):
        sm = ShardMap(WORKERS)
        degraded = sm.table(alive=WORKERS[1:])
        assert degraded != sm.table()
        assert sm.table(alive=list(WORKERS)) == sm.table()

    def test_shards_of_partitions_the_space(self):
        sm = ShardMap(WORKERS)
        shards = [sm.shards_of(w) for w in WORKERS]
        assert sum(len(s) for s in shards) == len(ALL_SHARDS)
        flat = {shard for group in shards for shard in group}
        assert flat == set(ALL_SHARDS)

    def test_owners_with_empty_alive_set_is_empty(self):
        sm = ShardMap(WORKERS)
        assert sm.owners("00", alive=[]) == ()
        assert sm.primary("00", alive=[]) is None

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardMap([])
        with pytest.raises(ValueError, match="duplicate"):
            ShardMap(["http://a:1", "http://a:1"])
        with pytest.raises(ValueError, match="vnodes"):
            ShardMap(WORKERS, vnodes=0)


# ---------------------------------------------------------------------------
# Routing through a live cluster
# ---------------------------------------------------------------------------


@pytest.fixture()
def cluster():
    with LocalCluster(workers=3, store_capacity=64) as c:
        yield c


class TestClusterRouting:
    def test_solve_round_trips_with_prefixed_job_id(self, cluster):
        reply = submit_instance(cluster.url, _doc(1), wait=True)
        assert reply["status"] == "done"
        assert reply["job_id"].startswith(f"w{reply['worker']}-")
        report = bio.solve_report_from_dict(reply["report"])
        report.schedule.validate()

    def test_same_request_lands_on_the_same_worker_and_hits_cache(self, cluster):
        first = submit_instance(cluster.url, _doc(2), wait=True)
        second = submit_instance(cluster.url, _doc(2), wait=True)
        assert second["worker"] == first["worker"]
        assert second.get("cached")

    def test_fingerprint_header_routes_like_body_canonicalization(self, cluster):
        doc = _doc(3)
        fp = request_fingerprint(_request_from_document({"instance": doc}))
        hinted = submit_instance(cluster.url, doc, wait=True, fingerprint=fp)
        unhinted = submit_instance(cluster.url, doc, wait=True)
        # Same shard either way, and the second submission is a cache hit —
        # the header is a fast path, not a different routing function.
        assert hinted["worker"] == unhinted["worker"]
        assert unhinted.get("cached")

    def test_distinct_requests_spread_over_workers(self, cluster):
        used = {
            submit_instance(cluster.url, _doc(seed), wait=True)["worker"]
            for seed in range(10, 26)
        }
        assert len(used) >= 2

    def test_jobs_endpoint_routes_on_the_prefix(self, cluster):
        reply = submit_instance(cluster.url, _doc(4), wait=False)
        job_id = reply["job_id"]
        for _ in range(300):
            status, payload = _get_json(f"{cluster.url}/jobs/{job_id}")
            assert status == 200
            assert payload["job_id"] == job_id
            if payload["status"] == "done":
                break
            time.sleep(0.01)
        assert payload["status"] == "done"

    def test_unknown_job_ids_are_404(self, cluster):
        for bad in ("job-000001", "w9-job-000001", "wx-job-1"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{cluster.url}/jobs/{bad}", timeout=10)
            assert err.value.code == 404

    def test_shards_endpoint_accounts_for_every_shard(self, cluster):
        _, payload = _get_json(f"{cluster.url}/shards")
        assert payload["shards"] == 256
        assert sum(payload["shards_per_worker"].values()) == 256
        assert set(payload["alive"]) == set(cluster.worker_urls)

    def test_healthz_aggregates_workers(self, cluster):
        status, health = _get_json(f"{cluster.url}/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert len(health["workers"]) == 3
        assert all(w["alive"] for w in health["workers"])
        assert sum(w["shards"] for w in health["workers"]) == 256

    def test_algorithms_endpoint_is_forwarded(self, cluster):
        _, payload = _get_json(f"{cluster.url}/algorithms")
        assert {"first_fit", "proper_greedy"} <= {
            a["name"] for a in payload["algorithms"]
        }

    def test_stats_endpoint_merges_router_and_workers(self, cluster):
        submit_instance(cluster.url, _doc(5), wait=True)
        _, stats = _get_json(f"{cluster.url}/stats")
        assert stats["router"]["routed"] >= 1
        assert len(stats["workers"]) == 3
        assert sum(w["stats"]["submitted"] for w in stats["workers"]) >= 1

    def test_bad_body_is_a_400_at_the_router(self, cluster):
        request = urllib.request.Request(
            f"{cluster.url}/solve", data=b"{broken", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_endpoints_are_404(self, cluster):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{cluster.url}/nope", timeout=10)
        assert err.value.code == 404


# ---------------------------------------------------------------------------
# Failure handling
# ---------------------------------------------------------------------------


class TestClusterFailover:
    def test_kill_one_worker_fails_over_and_degrades_health(self):
        with LocalCluster(workers=3, store_capacity=64) as cluster:
            reply = submit_instance(cluster.url, _doc(30), wait=True)
            victim = reply["worker"]
            cluster.kill_worker(victim)
            # The same canonical request now routes to the next replica on
            # the ring; POST /solve is idempotent, so the replay is safe.
            again = submit_instance(cluster.url, _doc(30), wait=True, retries=3)
            assert again["status"] == "done"
            assert again["worker"] != victim
            status, health = _get_json(f"{cluster.url}/healthz")
            assert status == 200
            assert health["status"] == "degraded"
            assert health["router"]["worker_failures"] >= 1
            dead = [w for w in health["workers"] if not w["alive"]]
            assert len(dead) == 1
            # Dead workers own nothing: their shards moved to survivors.
            assert dead[0]["shards"] == 0
            assert sum(w["shards"] for w in health["workers"]) == 256

    def test_concurrent_submissions_survive_a_mid_stream_kill(self):
        # The zero-lost-jobs drill: clients with retries enabled keep
        # succeeding while one worker is killed under them.  Worker 0 holds
        # every solve until the kill, so whatever the thread timing, the
        # pre-kill requests it owns are in flight when it dies and must
        # fail over; none of them can finish on it first.
        with LocalCluster(workers=3, store_capacity=64) as cluster:
            killed = threading.Event()
            victim = cluster.services[0]
            victim.engine = _HeldEngine(killed)
            close_victim = victim.close

            def close(*args, **kwargs):
                killed.set()  # kill_worker closes the service last
                close_victim(*args, **kwargs)

            victim.close = close
            results = {}
            errors = []

            def client(seed: int) -> None:
                try:
                    results[seed] = submit_instance(
                        cluster.url, _doc(seed, n=5), wait=True,
                        retries=4, backoff=0.05,
                    )
                except RuntimeError as exc:  # pragma: no cover - the failure
                    errors.append((seed, exc))

            seeds = list(range(40, 52))
            owned = [
                seed for seed in seeds
                if cluster.router.shard_map.primary(_fingerprint(seed))
                == cluster.worker_urls[0]
            ]
            # Worker 0's clients go first, so the kill lands mid-flight.
            pre_kill = (owned + [s for s in seeds if s not in owned])[:4]
            threads = {
                seed: threading.Thread(target=client, args=(seed,)) for seed in seeds
            }
            for seed in pre_kill:
                threads[seed].start()
            held = len(set(pre_kill) & set(owned))
            deadline = time.monotonic() + 30
            while victim.stats()["submitted"] < held and time.monotonic() < deadline:
                time.sleep(0.005)
            cluster.kill_worker(0)
            for seed in seeds:
                if seed not in pre_kill:
                    threads[seed].start()
            for t in threads.values():
                t.join()
            assert not errors
            assert len(results) == 12
            assert all(r["status"] == "done" for r in results.values())
            assert all(r["worker"] != 0 for r in results.values())

    def test_draining_worker_spills_to_a_replica(self):
        with LocalCluster(workers=2, store_capacity=64) as cluster:
            doc = _doc(60)
            fp = request_fingerprint(_request_from_document({"instance": doc}))
            owner_url = cluster.router.shard_map.primary(fp)
            owner = cluster.worker_urls.index(owner_url)
            # Drain the owner but keep its HTTP server up: submits now get
            # 503 + Retry-After there, and the router spills to the replica
            # without the client ever seeing the drain.
            assert cluster.services[owner].drain(timeout=5.0)
            reply = submit_instance(cluster.url, doc, wait=True, fingerprint=fp)
            assert reply["status"] == "done"
            assert reply["worker"] == 1 - owner
            with urllib.request.urlopen(f"{cluster.url}/stats", timeout=10) as r:
                stats = json.loads(r.read())
            assert stats["router"]["failovers"] >= 1

    def test_saturated_cluster_sheds_with_429(self):
        router = ClusterRouter(
            ("127.0.0.1", 0),
            ["http://127.0.0.1:9", "http://127.0.0.1:19"],
            probe_interval=None,
            max_worker_inflight=1,
            warm_on_rebalance=False,
        )
        try:
            body = json.dumps({"instance": _doc(70)}).encode("utf-8")
            with router._lock:
                for url in router.workers:
                    router._inflight[url] = 1
            status, payload, retry_after = router.route_solve("ab" + "0" * 62, body)
            assert status == 429
            assert retry_after is not None
            assert "saturated" in payload["error"]
        finally:
            router.server_close()

    def test_all_workers_unreachable_is_a_503(self):
        # Discard ports (9, 19): nothing listens, connects are refused.
        router = ClusterRouter(
            ("127.0.0.1", 0),
            ["http://127.0.0.1:9", "http://127.0.0.1:19"],
            probe_interval=None,
            warm_on_rebalance=False,
        )
        try:
            body = json.dumps({"instance": _doc(71)}).encode("utf-8")
            status, payload, retry_after = router.route_solve("00" + "0" * 62, body)
            assert status == 503
            assert retry_after is not None
            assert router.alive_workers() == ()
            with router._lock:
                assert router._counters["worker_failures"] == 2
        finally:
            router.server_close()


# ---------------------------------------------------------------------------
# Cache warming on topology change
# ---------------------------------------------------------------------------


class TestClusterWarming:
    def test_membership_change_warms_the_new_owners(self, tmp_path):
        with LocalCluster(
            workers=3, store_capacity=64, store_dir=str(tmp_path / "stores")
        ) as cluster:
            for seed in range(80, 88):
                submit_instance(cluster.url, _doc(seed, n=5), wait=True)
            router = cluster.router
            router.mark_dead(cluster.worker_urls[0])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with router._lock:
                    if router._counters["warm_posts"] > 0:
                        break
                time.sleep(0.02)
            with router._lock:
                posts_after_death = router._counters["warm_posts"]
            assert posts_after_death > 0
            # Revival hands the shards back — and warms the returning worker.
            router.mark_alive(cluster.worker_urls[0])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with router._lock:
                    if router._counters["warm_posts"] > posts_after_death:
                        break
                time.sleep(0.02)
            with router._lock:
                assert router._counters["warm_posts"] > posts_after_death
            assert set(router.alive_workers()) == set(cluster.worker_urls)
