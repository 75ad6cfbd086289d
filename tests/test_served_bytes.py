"""Pins on what ``POST /solve`` answers: reply bytes and refusal bodies.

* **Reply bytes.**  For a miss and for a store hit alike, the report in the
  HTTP reply is byte-equal to ``io.solve_report_to_dict(service.result(job))``
  for the same job: over perfbench's 24-instance hot pool under 1000 seeded
  disguises (memory and disk hits), over 200 generated instances with
  non-dyadic shifts, demands, zero-length jobs, tags, windows priced by a
  banded tariff, site capacities and background load, and on the edge
  schedules whose busy time is summed differently (machines of zero-length
  jobs only, machines on both sides of ``BULK_FROM_INTERVALS_MIN`` jobs).
* **Refusal bodies.**  A table of malformed instance documents pins the
  400 body ``_request_from_document`` produces for each (the worker, the
  cluster router and the CLI's fingerprint hint all parse through it).
* **De-canonicalization failures.**  A store entry that does not map back
  onto the caller's jobs fails the job with a ``de-canonicalization
  failed: ...`` message at finish time.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading

import pytest

from busytime import Engine, Instance, SolveRequest
from busytime import io as bio
from busytime.core.events import BULK_FROM_INTERVALS_MIN
from busytime.core.intervals import Interval, Job
from busytime.core.objectives import CostModel
from busytime.pricing.series import BackgroundLoad, TariffSeries
from busytime.service import ResultStore, SolveService, make_server
from busytime.service.canonical import canonical_request, request_fingerprint
from busytime.service.frontend import _request_from_document
from perfbench import workloads as wl


class _Client:
    """One keep-alive connection to an in-process server."""

    def __init__(self, service: SolveService):
        self.service = service
        self.server = make_server(service)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.server.server_address[1])

    def solve(self, body: bytes):
        self.conn.request("POST", "/solve", body, {"Content-Type": "application/json"})
        reply = self.conn.getresponse()
        return reply.status, reply.read()

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.service.close()


def _body(instance: Instance, options=None) -> bytes:
    return json.dumps(
        {"instance": bio.instance_to_dict(instance), "options": options or {}, "wait": True}
    ).encode("utf-8")


def assert_reply_is_result(client: _Client, body: bytes) -> dict:
    """POST ``body``; the reply's report must be the job's result, byte for byte."""
    status, raw = client.solve(body)
    assert status == 200, raw
    reply = json.loads(raw)
    assert reply["status"] == "done", reply
    expected = bio.solve_report_to_dict(client.service.result(reply["job_id"]))
    # json.dumps of the decoded report reproduces the reply's own bytes
    # (floats round-trip through repr, ints stay ints).
    assert json.dumps(reply["report"]) == json.dumps(expected)
    return reply


# ---------------------------------------------------------------------------
# Reply bytes
# ---------------------------------------------------------------------------


def test_hot_pool_disguises_reply_with_the_result_bytes(tmp_path):
    """perfbench's solve_hot traffic: 24 cold solves, then 1000 disguised
    repeats against a 16-report memory tier over a disk tier."""
    pool = wl.hot_pool()
    client = _Client(SolveService(store=ResultStore(capacity=16, directory=tmp_path)))
    try:
        for instance in pool:
            assert not assert_reply_is_result(client, wl.solve_body(instance))["cached"]
        tiers = client.service.store.stats()
        for index in range(1000):
            op = wl.hot_op(7, index, pool)
            assert assert_reply_is_result(client, op.body)["cached"]
        stats = client.service.store.stats()
        assert stats["disk_hits"] > tiers["disk_hits"]
        assert stats["hits"] - stats["disk_hits"] > tiers["hits"] - tiers["disk_hits"]
    finally:
        client.close()


#: A banded tariff: windowed jobs slide towards its cheap bands.
_TARIFF = TariffSeries((8.0, 16.0), (1.0, 4.0, 1.0), name="pin")


def _varied_instance(rng: random.Random, k: int) -> tuple:
    """Instance ``k`` of the varied corpus plus the solve options it is sent with."""
    n = rng.randrange(0, 40)
    g = rng.randrange(1, 5)
    windowed = k % 4 == 3
    jobs = []
    for i in range(n):
        start = rng.uniform(0.0, 24.0)
        length = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 6.0)
        demand = rng.randrange(1, g + 1) if k % 3 == 1 else 1
        release = deadline = None
        if windowed and rng.random() < 0.6:
            release = start - rng.uniform(0.0, 4.0)
            deadline = start + length + rng.uniform(0.0, 4.0)
        jobs.append(
            Job(
                id=rng.randrange(10**6),
                interval=Interval(start, start + length),
                weight=rng.choice([1.0, 0.5, 2.0]),
                tag=rng.choice(["", "a", "bb"]),
                demand=demand,
                release=release,
                deadline=deadline,
            )
        )
    ids = set()
    unique = []
    for job in jobs:
        if job.id not in ids:
            ids.add(job.id)
            unique.append(job)
    site_capacity = background = None
    options: dict = {"tags": {"case": k}}
    if windowed:
        options["cost_model"] = CostModel(
            objective="tariff_busy_time", tariff=_TARIFF
        ).to_dict()
        if k % 8 == 3:
            # Room for every job at once plus the background: a cap that is
            # present (and canonicalized) but never makes a solve infeasible.
            site_capacity = sum(job.demand for job in jobs) + 1
            background = BackgroundLoad((2.0, 10.0, 20.0), (1, 0), name="bg")
    instance = Instance(
        jobs=tuple(unique),
        g=g,
        name=f"varied-{k}",
        site_capacity=site_capacity,
        background=background,
    )
    return instance, options


def _shifted(instance: Instance, delta: float, rng: random.Random) -> Instance:
    """Relabeled copy translated by a (non-dyadic) ``delta``."""
    jobs = list(instance.jobs)
    rng.shuffle(jobs)
    return Instance(
        jobs=tuple(
            Job(
                id=10**7 + k,
                interval=Interval(j.start + delta, j.end + delta),
                weight=j.weight,
                tag=j.tag,
                demand=j.demand,
                release=None if j.release is None else j.release + delta,
                deadline=None if j.deadline is None else j.deadline + delta,
            )
            for k, j in enumerate(jobs)
        ),
        g=instance.g,
        name=instance.name + "+shift",
        site_capacity=instance.site_capacity,
        background=(
            None
            if instance.background is None
            else BackgroundLoad(
                tuple(b + delta for b in instance.background.breakpoints),
                instance.background.levels,
            )
        ),
    )


def test_varied_instances_reply_with_the_result_bytes():
    """Misses, byte-identical repeats and non-dyadically shifted variants."""
    rng = random.Random(2024)
    client = _Client(SolveService())
    hits = 0
    try:
        for k in range(200):
            instance, options = _varied_instance(rng, k)
            body = _body(instance, options)
            assert_reply_is_result(client, body)
            hits += assert_reply_is_result(client, body)["cached"]
            variant = _shifted(instance, rng.uniform(-50.0, 50.0), rng)
            options = dict(options, tags={"case": k, "variant": True})
            assert_reply_is_result(client, _body(variant, options))
    finally:
        client.close()
    assert hits == 200


def test_edge_busy_time_sums_reply_with_the_result_bytes():
    """Schedules whose total busy time is an int 0 (zero-length jobs only,
    summed left to right) and machines on both sides of the numpy
    threshold, each solved cold and then served as a hit."""
    zero = Instance.from_intervals([(5.0, 5.0), (5.0, 5.0), (7.25, 7.25)], g=1)
    zero_bulk = Instance.from_intervals([(3.0, 3.0)] * (BULK_FROM_INTERVALS_MIN + 6), g=100)
    rng = random.Random(5)
    crowd = []
    for _ in range(BULK_FROM_INTERVALS_MIN + 40):
        start = rng.uniform(-10.0, -0.1)
        crowd.append((start, rng.uniform(0.1, 10.0)))
    both_sides = Instance.from_intervals(crowd, g=BULK_FROM_INTERVALS_MIN + 10)
    client = _Client(SolveService())
    try:
        for instance in (zero, zero_bulk, both_sides):
            body = _body(instance)
            cold = assert_reply_is_result(client, body)
            hot = assert_reply_is_result(client, body)
            assert hot["cached"] and not cold["cached"]
        assert json.dumps(cold["report"]["schedule"]["total_busy_time"]) != "0"
        sizes = [len(m["job_ids"]) for m in hot["report"]["schedule"]["machines"]]
        assert max(sizes) >= BULK_FROM_INTERVALS_MIN > min(sizes)
        status, raw = client.solve(_body(zero))
        assert json.loads(raw)["report"]["schedule"]["total_busy_time"] == 0
        assert b'"total_busy_time": 0,' in raw
    finally:
        client.close()


# ---------------------------------------------------------------------------
# Refusal bodies
# ---------------------------------------------------------------------------


def _doc(jobs, **fields):
    doc = {"format": "busytime-instance", "version": 3, "name": "bad", "g": 2, "jobs": jobs}
    doc.update(fields)
    return doc


_OK = {"id": 0, "start": 0.0, "end": 1.0}

#: (case, POST /solve body, the 400 body's error message)
REFUSALS = [
    ("body-list", [], 'body must be a JSON object with an "instance" field'),
    ("no-instance", {}, 'body must be a JSON object with an "instance" field'),
    ("instance-list", {"instance": []},
     "not a busytime-instance document: expected a JSON object, got list"),
    ("wrong-format", {"instance": {"format": "x"}}, "not a busytime-instance document"),
    ("future-version", {"instance": _doc([], version=9)},
     "unsupported busytime-instance version 9; this reader understands version(s) 1, 2, 3"),
    ("no-jobs", {"instance": {"format": "busytime-instance", "g": 2}}, "'jobs'"),
    ("jobs-null", {"instance": _doc(None)}, "'NoneType' object is not iterable"),
    ("jobs-number", {"instance": _doc(5)}, "'int' object is not iterable"),
    ("row-list", {"instance": _doc([[0, 1, 2]])}, "job row 0 is not an object"),
    ("row-string", {"instance": _doc([_OK, "x"])}, "job row 1 is not an object"),
    ("row-null", {"instance": _doc([None])}, "job row 0 is not an object"),
    ("row-no-id", {"instance": _doc([{"start": 0.0, "end": 3.0}])}, 'job row 0 has no "id"'),
    ("row-no-start", {"instance": _doc([{"id": 0, "end": 3}])}, 'job row 0 has no "start"'),
    ("row-no-end", {"instance": _doc([_OK, {"id": 1, "start": 0.0}])},
     'job row 1 has no "end"'),
    ("id-text", {"instance": _doc([{"id": "x", "start": 0.0, "end": 1.0}])},
     'job row 0 "id" must be a finite integer, got \'x\''),
    ("id-fraction", {"instance": _doc([_OK, {"id": 2.5, "start": 0.0, "end": 1.0}])},
     'job row 1 "id" must be a finite integer, got 2.5'),
    ("id-numeric-text", {"instance": _doc([{"id": "7", "start": 0.0, "end": 1.0}])},
     'job row 0 "id" must be a finite integer, got \'7\''),
    ("id-bool", {"instance": _doc([{"id": True, "start": 0.0, "end": 1.0}])},
     'job row 0 "id" must be a finite integer, got True'),
    ("id-inf", {"instance": _doc([_OK, {"id": 1e400, "start": 0.0, "end": 1.0}])},
     'job row 1 "id" must be a finite integer, got inf'),
    ("start-text", {"instance": _doc([{"id": 0, "start": "abc", "end": 1.0}])},
     "could not convert string to float: 'abc'"),
    ("start-nan", {"instance": _doc([{"id": 0, "start": math.nan, "end": 1.0}])},
     "interval endpoints must not be NaN"),
    ("end-before-start", {"instance": _doc([{"id": 0, "start": 3.0, "end": 1.0}])},
     "interval end (1.0) must not precede start (3.0)"),
    ("weight-zero", {"instance": _doc([dict(_OK, weight=0)])}, "job weight must be positive"),
    ("weight-text", {"instance": _doc([dict(_OK, weight="heavy")])},
     "could not convert string to float: 'heavy'"),
    ("demand-fraction", {"instance": _doc([dict(_OK, demand=1.5)])},
     "job demand must be an integral number of capacity units, got 1.5"),
    ("demand-zero", {"instance": _doc([dict(_OK, demand=0)])}, "job demand must be >= 1, got 0"),
    ("demand-bool", {"instance": _doc([dict(_OK, demand=True)])},
     "job demand must be an integral number of capacity units, got True"),
    ("demand-null", {"instance": _doc([dict(_OK, demand=None)])},
     "job demand must be an integral number of capacity units, got None"),
    ("demand-inf", {"instance": _doc([dict(_OK, demand=math.inf)])},
     "job demand must be an integral number of capacity units, got inf"),
    ("release-after-start", {"instance": _doc([dict(_OK, start=1.0, end=3.0, release=2.0)])},
     "job release (2.0) must not exceed the placed start (1.0)"),
    ("deadline-before-end", {"instance": _doc([dict(_OK, end=3.0, deadline=2.0)])},
     "job deadline (2.0) must not precede the placed end (3.0)"),
    ("release-nan", {"instance": _doc([dict(_OK, release=math.nan)])},
     "job release must not be NaN"),
    ("deadline-text", {"instance": _doc([dict(_OK, deadline="x")])},
     "could not convert string to float: 'x'"),
    ("start-huge-int", {"instance": _doc([dict(_OK, start=10**400)])},
     "job row 0: int too large to convert to float"),
    ("weight-huge-int", {"instance": _doc([dict(_OK, weight=10**400)])},
     "job row 0: int too large to convert to float"),
    ("demand-huge-int", {"instance": _doc([_OK, dict(_OK, id=1, demand=10**400)])},
     "job row 1: int too large to convert to float"),
    ("release-huge-int", {"instance": _doc([dict(_OK, release=-10**400)])},
     "job row 0: int too large to convert to float"),
    ("deadline-huge-int", {"instance": _doc([dict(_OK, deadline=10**400)])},
     "job row 0: int too large to convert to float"),
    ("first-bad-row-wins", {"instance": _doc([_OK, dict(_OK, id=1, start="s"), {"end": 2}])},
     "could not convert string to float: 's'"),
    ("row-before-g", {"instance": _doc([dict(_OK, weight=-1)], g=0)},
     "job weight must be positive"),
    ("no-g", {"instance": {"format": "busytime-instance", "jobs": [_OK]}}, "'g'"),
    ("g-zero", {"instance": _doc([_OK], g=0)}, "parallelism parameter g must be >= 1, got 0"),
    ("g-text", {"instance": _doc([_OK], g="x")}, '"g" must be a finite integer, got \'x\''),
    ("g-fraction", {"instance": _doc([_OK], g=2.9)}, '"g" must be a finite integer, got 2.9'),
    ("g-inf", {"instance": _doc([_OK], g=1e400)}, '"g" must be a finite integer, got inf'),
    ("duplicate-ids", {"instance": _doc([_OK, _OK])}, "job ids must be unique within an instance"),
    ("demand-above-g", {"instance": _doc([_OK, dict(_OK, id=1, demand=3)])},
     "job 1 demands 3 capacity units but g = 2; such a job can never be scheduled"),
    ("site-capacity-zero", {"instance": _doc([_OK], site_capacity=0)},
     "site_capacity must be >= 1, got 0"),
    ("site-capacity-text", {"instance": _doc([_OK], site_capacity="x")},
     '"site_capacity" must be a finite integer, got \'x\''),
    ("site-capacity-inf", {"instance": _doc([_OK], site_capacity=-1e400)},
     '"site_capacity" must be a finite integer, got -inf'),
    ("demand-above-site-capacity", {"instance": _doc([dict(_OK, demand=2)], site_capacity=1)},
     "job 0 demands 2 units but the site capacity cap is 1; such a job can never be scheduled"),
    ("background-list", {"instance": _doc([_OK], background=[1])},
     "background document must be a mapping, got list"),
    ("background-keys", {"instance": _doc([_OK], background={"level": [1]})},
     "unknown background keys: ['level']"),
    ("instance-before-options", {"instance": _doc([{"id": 0}]), "options": []},
     'job row 0 has no "start"'),
    ("options-list", {"instance": _doc([_OK]), "options": [1]}, '"options" must be a JSON object'),
    ("option-type", {"instance": _doc([_OK]), "options": {"race": "3"}},
     'option "race" must be int, got str'),
    ("time-limit-huge-int", {"instance": _doc([_OK]), "options": {"time_limit": 10**400}},
     'option "time_limit" must be a finite number, got an integer too large for a float'),
    ("deadline-ms-huge-int", {"instance": _doc([_OK]), "options": {"deadline_ms": 10**400}},
     'option "deadline_ms" must be a finite number, got an integer too large for a float'),
    ("time-limit-inf", {"instance": _doc([_OK]), "options": {"time_limit": math.inf}},
     'option "time_limit" must be a finite number, got inf'),
    ("deadline-ms-inf", {"instance": _doc([_OK]), "options": {"deadline_ms": -math.inf}},
     'option "deadline_ms" must be a finite number, got -inf'),
    ("tags-list", {"instance": _doc([_OK]), "options": {"tags": [1]}},
     '"tags" must be a JSON object'),
]


def _refusal(body) -> bytes:
    """The 400 body the frontend sends for ``body`` (``None`` if it parses)."""
    try:
        _request_from_document(body)
    except (ValueError, KeyError, TypeError) as exc:
        return json.dumps({"error": str(exc)}).encode("utf-8")
    return None


@pytest.mark.parametrize(
    "body, message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_malformed_instance_refusal_body(body, message):
    assert _refusal(body) == json.dumps({"error": message}).encode("utf-8")


def test_refusal_bodies_over_http():
    client = _Client(SolveService())
    try:
        for name, body, message in REFUSALS:
            status, raw = client.solve(json.dumps(body).encode("utf-8"))
            assert (status, raw) == (400, _refusal(body)), name
    finally:
        client.close()


# ---------------------------------------------------------------------------
# De-canonicalization failures
# ---------------------------------------------------------------------------


_CALLER = Instance(
    jobs=tuple(
        Job(id=100 + k, interval=Interval(s, e), demand=d)
        for k, (s, e, d) in enumerate([(10.0, 14.0, 1), (11.0, 12.0, 2), (13.0, 20.0, 1), (21.0, 22.0, 1)])
    ),
    g=2,
    name="caller",
)


def _planted(jobs) -> object:
    """An engine report on a canonical instance with the given ``(start, end, demand)`` rows."""
    canonical = Instance(
        jobs=tuple(
            Job(id=k, interval=Interval(s, e), demand=d) for k, (s, e, d) in enumerate(jobs)
        ),
        g=2,
    )
    return Engine().solve(SolveRequest(instance=canonical, algorithm="first_fit"))


@pytest.mark.parametrize(
    "jobs, error",
    [
        (
            [(0.0, 4.0, 1), (1.0, 2.0, 2), (3.0, 10.0, 1), (11.0, 12.5, 1)],
            "canonical form does not match instance caller: job 103 is not job 3 "
            "translated by 10.0",
        ),
        (
            [(0.0, 4.0, 1), (1.0, 2.0, 1), (3.0, 10.0, 1), (11.0, 12.0, 1)],
            "canonical form does not match instance caller: job 101 is not job 1 "
            "translated by 10.0",
        ),
        (
            [(0.0, 4.0, 1), (1.0, 2.0, 2), (3.0, 10.0, 1)],
            "canonical schedule covers 3 jobs, instance has 4",
        ),
        (
            [(0.0, 4.0, 1), (1.0, 2.0, 2), (3.0, 10.0, 1), (11.0, 12.0, 1), (30.0, 31.0, 1)],
            "tuple index out of range",
        ),
    ],
    ids=["interval", "demand", "count", "extra-job"],
)
def test_store_entry_that_does_not_map_back_fails_the_job(jobs, error):
    # policy and time_limit as admission resolves them, so the fingerprint
    # computed here is the one submit looks up.
    request = SolveRequest(instance=_CALLER, policy="best_ratio", time_limit=60.0)
    with SolveService(start_worker=False) as service:
        service.store.put(request_fingerprint(request), _planted(jobs))
        job_id = service.submit(request)
        polled = service.poll(job_id)
    assert polled["status"] == "failed" and polled["cached"]
    assert polled["error"] == f"de-canonicalization failed: {error}"


def test_matching_store_entry_maps_back():
    request = SolveRequest(instance=_CALLER, policy="best_ratio", time_limit=60.0)
    canonical, _ = canonical_request(request)
    with SolveService(start_worker=False) as service:
        service.store.put(request_fingerprint(request), Engine().solve(canonical))
        report = service.result(service.submit(request))
    assert sorted(report.schedule.assignment()) == [100, 101, 102, 103]
