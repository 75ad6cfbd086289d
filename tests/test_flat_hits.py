"""Store hits are answered from flat rows, and finished jobs stay flat.

A parsed ``POST /solve`` document is :class:`InstanceRows`; the service
canonicalizes, fingerprints, checks and answers a cache hit from those
columns, and the result store keeps its reports as flat columns too, so a
disk hit decodes the entry into columns and checks them there.  These
tests count the objects either tier's hit builds (none), the mapping
passes a hit makes (one), and the objects a finished hit keeps (the same
at n = 100 and n = 2000, from memory and from disk); they pin the row
parser against the object path, check that rows built by hand refuse what
the objects refuse, and pin how ``Engine.solve`` treats a request that
carries rows.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import math
import random
import struct
import threading
from collections import Counter

import pytest

from busytime import Engine, Instance, SolveRequest
from busytime import io as bio
from busytime.core.events import SweepProfile
from busytime.core.instance import InstanceRows
from busytime.core.intervals import Interval, Job
from busytime.core.schedule import Machine
from busytime.generators import uniform_random_instance
from busytime.pricing.series import BackgroundLoad
from busytime.service import ResultStore, SolveService, make_server
from busytime.service.canonical import CANONICAL_VERSION, canonicalize, request_fingerprint
from busytime.service.frontend import _request_from_document
from perfbench import workloads as wl


def _hot_pair(n: int, seed: int = 4):
    """A pool-style instance and a disguise of it (same cache line)."""
    base = wl.quantized(uniform_random_instance(n, 4, seed=seed))
    return base, wl.disguised(base, random.Random(seed))


def _body(instance: Instance) -> bytes:
    return json.dumps({"instance": bio.instance_to_dict(instance), "wait": True}).encode()


def _counting_constructors(monkeypatch) -> Counter:
    built: Counter = Counter()

    def counting(cls, method):
        original = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    counting(Job, "__post_init__")
    counting(Machine, "__init__")
    counting(SweepProfile, "__init__")
    return built


def _served_over_http(service, instances, built):
    """POST each instance; ``(cached, constructions)`` per request."""
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1])
    try:
        seen = []
        for instance in instances:
            built.clear()
            conn.request("POST", "/solve", _body(instance), {"Content-Type": "application/json"})
            reply = json.loads(conn.getresponse().read())
            assert reply["status"] == "done"
            seen.append((reply["cached"], dict(built)))
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        service.close()
    return seen


def test_memory_hit_over_http_builds_no_job_machine_or_profile(monkeypatch):
    built = _counting_constructors(monkeypatch)
    base, repeat = _hot_pair(200)
    service = SolveService()
    (miss_cached, miss), (hit_cached, hit) = _served_over_http(service, (base, repeat), built)
    assert not miss_cached and hit_cached
    assert service.store.stats()["disk_hits"] == 0
    assert all(miss.get(name, 0) > 0 for name in ("Job", "Machine", "SweepProfile")), miss
    assert hit == {}


def test_disk_hit_over_http_builds_no_job_machine_or_profile(monkeypatch, tmp_path):
    """A reopened store decodes the entry into columns, runs the oracle on
    them and answers, all without a job, machine or profile object."""
    base, repeat = _hot_pair(200)
    with SolveService(store=ResultStore(directory=tmp_path)) as service:
        service.solve(SolveRequest(instance=base), timeout=120)
    built = _counting_constructors(monkeypatch)
    store = ResultStore(directory=tmp_path)
    [(cached, hit)] = _served_over_http(SolveService(store=store), (repeat,), built)
    assert cached and store.stats()["disk_hits"] == 1
    assert hit == {}


def test_a_hit_maps_onto_the_caller_rows_once(monkeypatch, tmp_path):
    """The finish-time check keeps its positions and a hit's reply is
    written from them, for a memory hit and a disk hit alike.  A miss's
    reply goes through ``result()``, which builds its objects from the
    same positions."""
    from busytime.service import canonical, service as service_module

    calls: Counter = Counter()
    original = canonical.decanonicalized_rows

    def counted(*args, **kwargs):
        calls["mapped"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(canonical, "decanonicalized_rows", counted)
    monkeypatch.setattr(service_module, "decanonicalized_rows", counted)
    base, repeat = _hot_pair(200)
    other = wl.quantized(uniform_random_instance(50, 3, seed=9))
    # base: miss; repeat: memory hit; other: miss, which evicts base from
    # the capacity-1 memory tier; a second disguise of base: disk hit.
    requests = (base, repeat, other, wl.disguised(base, random.Random(99)))
    store = ResultStore(capacity=1, directory=tmp_path)
    seen = _served_over_http(SolveService(store=store), requests, calls)
    assert store.stats()["disk_hits"] == 1
    assert seen == [
        (False, {"mapped": 1}),
        (True, {"mapped": 1}),
        (False, {"mapped": 1}),
        (True, {"mapped": 1}),
    ]


def _retained_per_hit(n: int, hits: int = 40) -> float:
    """GC-tracked objects a finished memory hit leaves behind, per hit."""
    base, _ = _hot_pair(n, seed=n)
    bodies = [
        json.dumps({"instance": bio.instance_to_dict(wl.disguised(base, random.Random(k)))})
        for k in range(hits + 1)
    ]
    with SolveService() as service:
        service.solve(_request_from_document(json.loads(bodies[0])), timeout=120)
        service.submit(_request_from_document(json.loads(bodies[0])))  # warm
        gc.collect()
        before = len(gc.get_objects())
        for body in bodies[1:]:
            job = service.submit(_request_from_document(json.loads(body)))
            assert service.poll(job)["cached"]
        gc.collect()
        after = len(gc.get_objects())
    return (after - before) / hits


def test_finished_hits_retain_the_same_objects_at_any_size():
    small, large = _retained_per_hit(100), _retained_per_hit(2000)
    assert abs(large - small) <= 5, (small, large)


def _retained_per_disk_hit(n: int, directory, hits: int = 40) -> float:
    """GC-tracked objects a finished disk hit leaves behind, per hit.

    A capacity-1 store alternates between two cache lines, so every
    request decodes its entry from disk and each finished job keeps its
    own decoded report.
    """
    bases = [wl.quantized(uniform_random_instance(n, 4, seed=n + k)) for k in range(2)]
    bodies = [
        json.dumps(
            {"instance": bio.instance_to_dict(wl.disguised(bases[k % 2], random.Random(k)))}
        )
        for k in range(hits + 2)
    ]
    store = ResultStore(capacity=1, directory=directory)
    with SolveService(store=store) as service:
        for body in bodies[:2]:
            service.solve(_request_from_document(json.loads(body)), timeout=120)
        gc.collect()
        before = len(gc.get_objects())
        for body in bodies[2:]:
            job = service.submit(_request_from_document(json.loads(body)))
            assert service.poll(job)["cached"]
        gc.collect()
        after = len(gc.get_objects())
    assert store.stats()["disk_hits"] == hits
    return (after - before) / hits


def test_finished_disk_hits_retain_the_same_objects_at_any_size(tmp_path):
    small = _retained_per_disk_hit(100, tmp_path / "small")
    large = _retained_per_disk_hit(2000, tmp_path / "large")
    assert abs(large - small) <= 5, (small, large)


def _varied_documents():
    rng = random.Random(17)
    docs = []
    for k in range(30):
        jobs = []
        for i in range(rng.randrange(0, 25)):
            start = rng.uniform(-10.0, 10.0)
            end = start + (0.0 if i % 5 == 0 else rng.uniform(0.0, 4.0))
            windowed = k % 3 == 0 and i % 2 == 0
            jobs.append(
                Job(
                    id=rng.randrange(10**6) * 30 + i,
                    interval=Interval(start, end),
                    weight=rng.choice([1.0, 2.5]),
                    tag=rng.choice(["", "t"]),
                    demand=rng.choice([1, 1, 2]),
                    release=start - 1.0 if windowed else None,
                    deadline=end + 2.0 if windowed and i % 4 == 0 else None,
                )
            )
        instance = Instance(
            jobs=tuple({j.id: j for j in jobs}.values()),
            g=3,
            name=f"doc-{k}",
            site_capacity=100 if k % 4 == 1 else None,
            background=BackgroundLoad((0.0, 5.0), (1,), name="bg") if k % 4 == 1 else None,
        )
        docs.append((instance, bio.instance_to_dict(instance)))
    return docs


def test_row_parser_describes_the_same_instance():
    for instance, doc in _varied_documents():
        rows = bio.instance_rows_from_dict(doc)
        assert rows.to_instance() == instance
        assert bio.instance_to_dict(rows) == doc
        assert rows.has_windows == instance.has_windows
        assert rows.has_demands == instance.has_demands
        assert rows.is_flex == instance.is_flex
        assert canonicalize(rows) == canonicalize(instance)
        request = SolveRequest(instance=instance, policy="best_ratio")
        assert request_fingerprint(SolveRequest(instance=rows, policy="best_ratio")) == (
            request_fingerprint(request)
        )


_ROW = dict(id=0, start=0.0, end=1.0, weight=1.0, tag="", demand=1, release=None, deadline=None)

#: (name, job rows as changes to _ROW, instance fields): each is refused.
_FAULTS = [
    ("end-before-start", [dict(start=2.0)], {}),
    ("start-nan", [dict(start=math.nan)], {}),
    ("weight-zero", [dict(weight=0.0)], {}),
    ("demand-fraction", [dict(demand=1.5)], {}),
    ("demand-bool", [dict(demand=True)], {}),
    ("demand-zero", [dict(demand=0)], {}),
    ("release-nan", [dict(release=math.nan)], {}),
    ("release-after-start", [dict(release=0.5)], {}),
    ("deadline-before-end", [dict(deadline=0.5)], {}),
    ("second-row", [{}, dict(id=1, weight=-1.0)], {}),
    ("g-zero", [{}], dict(g=0)),
    ("duplicate-ids", [{}, {}], {}),
    ("demand-above-g", [dict(demand=3)], {}),
    ("site-capacity-text", [{}], dict(site_capacity="2")),
    ("site-capacity-zero", [{}], dict(site_capacity=0)),
    ("demand-above-site-capacity", [dict(demand=2)], dict(site_capacity=1)),
    ("background-tuple", [{}], dict(background=((0.0,), (1,)))),
]


@pytest.mark.parametrize(
    "changes, fields", [case[1:] for case in _FAULTS], ids=[case[0] for case in _FAULTS]
)
def test_constructed_rows_refuse_what_the_objects_refuse(changes, fields):
    """``InstanceRows(...)`` runs the checks ``Interval``, ``Job`` and
    ``Instance`` run, so a hand-built request is refused with the same
    message before it can reach a cache line."""
    jobs = [dict(_ROW, **change) for change in changes]
    fields = dict(dict(g=2, site_capacity=None, background=None), **fields)
    with pytest.raises(ValueError) as from_objects:
        Instance(
            jobs=tuple(
                Job(
                    id=j["id"],
                    interval=Interval(j["start"], j["end"]),
                    weight=j["weight"],
                    tag=j["tag"],
                    demand=j["demand"],
                    release=j["release"],
                    deadline=j["deadline"],
                )
                for j in jobs
            ),
            **fields,
        )
    column = lambda key: [j[key] for j in jobs]  # noqa: E731
    with pytest.raises(ValueError) as from_rows:
        InstanceRows(
            fields["g"],
            "",
            column("id"),
            column("start"),
            column("end"),
            column("weight"),
            column("tag"),
            column("demand"),
            releases=column("release"),
            deadlines=column("deadline"),
            site_capacity=fields["site_capacity"],
            background=fields["background"],
        )
    assert str(from_rows.value) == str(from_objects.value)


def test_constructed_rows_equal_parsed_rows():
    for instance, doc in _varied_documents()[:8]:
        parsed = bio.instance_rows_from_dict(doc)
        built = InstanceRows(
            parsed.g,
            parsed.name,
            parsed.ids,
            parsed.starts,
            parsed.ends,
            parsed.weights,
            parsed.tags,
            parsed.demands,
            releases=parsed.releases,
            deadlines=parsed.deadlines,
            site_capacity=parsed.site_capacity,
            background=parsed.background,
        )
        assert built.to_instance() == instance
        assert canonicalize(built) == canonicalize(parsed)
    with pytest.raises(ValueError, match="one entry per job"):
        InstanceRows(2, "", [0, 1], [0.0], [1.0], [1.0], [""], [1])


def test_fingerprint_hashes_float_columns_as_little_endian_doubles():
    """Version 6: a JSON header, the start/end/weight columns of the
    canonical rows as little-endian IEEE-754 doubles, then tags and demands
    as JSON."""
    assert CANONICAL_VERSION == 6
    instance = Instance.from_intervals([(4.0, 4.0), (0.5, 2.0), (1.0, 3.25)], g=2)
    request = SolveRequest(instance=instance, policy="best_ratio")
    options = request.options_dict()
    del options["tags"]
    header = {
        "format": "busytime-canonical-request",
        "version": 6,
        "g": 2,
        "jobs": 3,
        "width": 5,
        "options": options,
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload += struct.pack("<3d", 0.0, 0.5, 3.5)  # starts, translated by 0.5
    payload += struct.pack("<3d", 1.5, 2.75, 3.5)  # ends
    payload += struct.pack("<3d", 1.0, 1.0, 1.0)  # weights
    payload += b'[["","",""],[1,1,1]]'
    assert request_fingerprint(request) == hashlib.sha256(payload).hexdigest()


def test_engine_builds_the_instance_from_rows_once(monkeypatch):
    instance, doc = _varied_documents()[2]
    rows = bio.instance_rows_from_dict(doc)
    calls = []
    to_instance = InstanceRows.to_instance

    def counted(self):
        calls.append(self)
        return to_instance(self)

    monkeypatch.setattr(InstanceRows, "to_instance", counted)
    from_rows = Engine().solve(SolveRequest(instance=rows, policy="best_ratio"))
    assert len(calls) == 1
    from_objects = Engine().solve(SolveRequest(instance=instance, policy="best_ratio"))
    assert bio.solve_report_to_dict(from_rows, include_timings=False) == (
        bio.solve_report_to_dict(from_objects, include_timings=False)
    )


def test_rows_request_validates_like_an_instance_request():
    rows = bio.instance_rows_from_dict(
        {"format": "busytime-instance", "g": 2, "jobs": [{"id": 1, "start": 0, "end": 1, "demand": 2}]}
    )
    with pytest.raises(ValueError, match="not demand-aware"):
        SolveRequest(instance=rows, algorithm="proper_greedy").validate()
    SolveRequest(instance=rows).validate()
