"""SHA-256 pins of the bytes ``POST /solve`` answers and the store writes.

Each corpus is solved cold into a fresh disk store, then the store is
reopened over the same directory (capacity 16, as perfbench's server) and
the same traffic is answered from it.  Every reopened entry is decoded
from disk, so those replies hold no wall-clock telemetry and their bytes
are reproducible.  The digests below are literals: a change to how a store
hit is decoded, checked or written back must leave all of them unchanged.

* ``hot``: 1000 disguises of perfbench's 24-instance hot pool (seed 7),
  served from both tiers of the reopened store;
* ``varied``: the varied corpus of ``tests/test_served_bytes.py`` (windows
  priced by a banded tariff, site capacity, background load, demands,
  zero-length jobs), each instance sent again as is and relabeled;
* ``misses``: the cold replies of both corpora with ``timings`` and
  ``race`` removed;
* ``documents``: every entry file ``ResultStore.put`` wrote, by path.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
from pathlib import Path

from busytime import io as bio
from busytime.service import ResultStore, SolveService, make_server
from perfbench import workloads as wl

from test_served_bytes import _shifted, _varied_instance

#: Requests sent per corpus, and the digests they must reproduce.
HOT_REQUESTS = 1000
VARIED_INSTANCES = 200
DIGESTS = {
    "hot": {
        "misses": "18f0256c70d599e1d179047d19bdb42c06fae955646ba2154b3ed52670ceaba5",
        "documents": "214aaaf6af484d99f6652e059903d330b6f8124e0aa85839fd7dda7c10ad3820",
        "replies": "e28cc44e6214fdcff7e1165ece3a90611d3cff233ceec3b999a2cafc92063283",
    },
    "varied": {
        "misses": "9209bcf7e567a859539798decbb602746035bfdd0076d16d1f02774f454f8032",
        "documents": "653eb03c81082f6a817c5dbfc5321df995977230b6cb99b50c52738f50e36b69",
        "replies": "820321351f4bbd27420e44f82903d32ba384281ad9db40b995841f5ac79b0d32",
    },
}


class _Server:
    """A service over a capacity-16 disk store, behind an in-process server."""

    def __init__(self, directory: Path):
        self.service = SolveService(store=ResultStore(capacity=16, directory=directory))
        self.server = make_server(self.service)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.server.server_address[1])

    def solve(self, body: bytes) -> bytes:
        self.conn.request("POST", "/solve", body, {"Content-Type": "application/json"})
        reply = self.conn.getresponse()
        raw = reply.read()
        assert reply.status == 200, raw
        return raw

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.service.close()


def _without_telemetry(raw: bytes) -> bytes:
    reply = json.loads(raw)
    assert reply["status"] == "done", reply
    # A repeat inside the cold pass (the varied corpus has empty instances
    # that share a cache line) echoes the fresh solve's telemetry too.
    reply["report"].pop("timings", None)
    reply["report"].pop("race", None)
    return json.dumps(reply).encode("utf-8")


def _documents_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.json")):
        digest.update(path.relative_to(directory).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _served(directory: Path, cold_bodies, hot_bodies) -> dict:
    """Solve ``cold_bodies`` into ``directory``, reopen it, answer ``hot_bodies``."""
    misses = hashlib.sha256()
    server = _Server(directory)
    try:
        for body in cold_bodies:
            misses.update(_without_telemetry(server.solve(body)))
    finally:
        server.close()
    documents = _documents_digest(directory)
    replies = hashlib.sha256()
    server = _Server(directory)
    try:
        for body in hot_bodies:
            raw = server.solve(body)
            assert json.loads(raw)["cached"], raw
            replies.update(raw)
        stats = server.service.store.stats()
    finally:
        server.close()
    assert stats["misses"] == 0
    assert 0 < stats["disk_hits"] < stats["hits"]
    return {"misses": misses.hexdigest(), "documents": documents, "replies": replies.hexdigest()}


def test_hot_pool_digests(tmp_path):
    pool = wl.hot_pool()
    cold = [wl.solve_body(instance) for instance in pool]
    hot = [wl.hot_op(7, index, pool).body for index in range(HOT_REQUESTS)]
    assert _served(tmp_path, cold, hot) == DIGESTS["hot"]


def test_varied_corpus_digests(tmp_path):
    rng = random.Random(2024)
    cold, hot = [], []
    for k in range(VARIED_INSTANCES):
        instance, options = _varied_instance(rng, k)
        body = json.dumps(
            {"instance": bio.instance_to_dict(instance), "options": options, "wait": True}
        ).encode("utf-8")
        # A zero shift relabels and reorders the jobs without moving them,
        # so the variant is exact and shares the instance's cache line.
        variant = _shifted(instance, 0.0, rng)
        variant_options = dict(options, tags={"case": k, "variant": True})
        cold.append(body)
        hot.append(body)
        hot.append(
            json.dumps(
                {
                    "instance": bio.instance_to_dict(variant),
                    "options": variant_options,
                    "wait": True,
                }
            ).encode("utf-8")
        )
    assert _served(tmp_path, cold, hot) == DIGESTS["varied"]
