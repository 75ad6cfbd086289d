"""Per-layer numbers from a traced server's spans.

Spans are joined to the client's operations by request id; batch-worker
spans, which carry a fingerprint instead, join the request whose
``canonical.fingerprint`` span minted that fingerprint and are adopted as
children of that request's ``service.wait`` span (the handler thread is
blocked there while the worker solves).  A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .stats import median

#: Layers, named after the package modules the spans sit in.
LAYERS = (
    "frontend", "service", "canonical", "store", "engine", "algorithms",
    "core", "portfolio", "sessions", "dynamic",
)
ALGORITHMS = ("first_fit", "proper_greedy", "bounded_length", "clique")

#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    ("frontend.parse_ms", "ms", "lower"),
    ("frontend.respond_ms", "ms", "lower"),
    ("frontend.unaccounted_ms", "ms", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("canonical.canonicalize_ms", "ms", "lower"),
    ("canonical.fingerprint_ms", "ms", "lower"),
    ("canonical.decanonicalize_ms", "ms", "lower"),
    ("store.memory_hit_ms", "ms", "lower"),
    ("store.disk_hit_ms", "ms", "lower"),
    ("store.disk_hit_share", "ratio", "lower"),
    ("store.put_ms", "ms", "lower"),
    ("store.put_bytes", "bytes", "lower"),
    ("store.hit_rate", "ratio", "higher"),
    ("engine.solve_ms", "ms", "lower"),
    ("engine.lower_bound_ms", "ms", "lower"),
) + tuple(
    (f"algorithms.{name}.{what}", unit, "lower")
    for name in ALGORITHMS
    for what, unit in (("ms", "ms"), ("calls", "count"))
) + (
    ("core.verify_ms", "ms", "lower"),
    ("core.verify_calls", "count", "lower"),
    ("portfolio.race_ms", "ms", "lower"),
    ("portfolio.candidates", "count", "lower"),
    ("sessions.probe_ms", "ms", "lower"),
    ("sessions.growth_ratio", "ratio", "lower"),
    ("dynamic.feed_ms", "ms", "lower"),
    ("dynamic.replan_ms", "ms", "lower"),
    ("dynamic.replans", "count", "lower"),
    ("store.get_document_ms", "ms", "lower"),
    ("store.put_document_ms", "ms", "lower"),
    ("store.document_bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
    # the untraced half as its client saw it, in wall-clock time
    ("client.latency_p50_ms", "ms", "lower"),
    ("client.latency_tail_ms", "ms", "lower"),
    ("client.throughput_per_s", "1/s", "higher"),
) + tuple((f"share.{layer}", "ratio", "lower") for layer in LAYERS + ("unaccounted",))


@dataclass
class Span:
    name: str
    start: int
    end: int
    id: int
    parent: Optional[int]
    thread: int
    rid: Optional[str]
    fp: Optional[str]
    attrs: Dict[str, object]
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_time(self) -> int:
        return max(0, self.duration - sum(child.duration for child in self.children))

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def load_spans(path) -> List[Span]:
    with open(path) as stream:
        return [Span(*json.loads(line)) for line in stream if line.strip()]


def link(spans: List[Span]) -> Dict[str, List[Span]]:
    """Build the span tree and group every span under its request id."""
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            by_id[span.parent].children.append(span)
    # fingerprint -> (start, request id) of every request that minted it
    minted: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
    waits: Dict[str, Span] = {}
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "canonical.fingerprint" and span.rid is not None:
            minted[str(span.attrs.get("fp"))].append((span.start, span.rid))
        if span.name == "service.wait" and span.rid is not None:
            waits[span.rid] = span
    for span in spans:
        if span.rid is None and span.fp is not None:
            # the latest request with this fingerprint that began before it
            owners = minted.get(span.fp, [])
            k = bisect.bisect_right(owners, (span.start, "\uffff"))
            span.rid = owners[k - 1][1] if k else None
            if span.parent is None and span.rid in waits:
                waits[span.rid].children.append(span)
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid is not None:
            grouped[span.rid].append(span)
    return grouped


def _top_level(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans called ``name`` not nested in another span of the same name."""
    chosen = [s for s in spans if s.name == name]
    ids = {s.id for s in chosen}
    return [s for s in chosen if s.parent not in ids]


def _total_ms(spans: Iterable[Span], *names: str) -> float:
    return sum(s.duration for s in spans if s.name in names) / 1e6


@dataclass
class OpTrace:
    """The spans of one client operation plus its client-side latency."""

    latency_ms: float
    spans: List[Span]

    @property
    def root(self) -> Optional[Span]:
        roots = [s for s in self.spans if s.name == "frontend.request"]
        return roots[0] if roots else None

    def self_by_layer(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.layer in totals:
                totals[span.layer] += span.self_time / 1e6
        root = self.root
        served = root.duration / 1e6 if root else 0.0
        totals["unaccounted"] = max(0.0, self.latency_ms - served)
        return totals


def layer_shares(ops: Sequence[OpTrace]) -> Dict[str, float]:
    """Each layer's self time (plus the unaccounted rest) over client latency."""
    total = sum(op.latency_ms for op in ops)
    sums: Dict[str, float] = defaultdict(float)
    for op in ops:
        for layer, ms in op.self_by_layer().items():
            sums[layer] += ms
    keys = LAYERS + ("unaccounted",)
    return {layer: (sums[layer] / total if total else 0.0) for layer in keys}


def per_layer_metrics(ops: Sequence[OpTrace], shares_of: Sequence[OpTrace]) -> Dict[str, float]:
    """The per-layer metric values (medians per operation unless counts)."""
    m: Dict[str, float] = {}

    def med(values):
        return median([v for v in values if v is not None])

    def per_op(fn):
        return med(fn(op) for op in ops)

    m["frontend.parse_ms"] = per_op(
        lambda op: _total_ms(op.spans, "frontend.decode", "frontend.build_request"))
    m["frontend.respond_ms"] = per_op(
        lambda op: _total_ms(op.spans, "frontend.to_dict", "frontend.encode"))
    m["frontend.unaccounted_ms"] = per_op(
        lambda op: op.latency_ms - op.root.duration / 1e6 if op.root else None)

    def queue_wait(op):
        submits = [s for s in op.spans if s.name == "service.submit"]
        solves = [s for s in op.spans if s.name == "service.solve_batch"]
        if not submits or not solves:
            return None
        return (solves[0].start - submits[0].end) / 1e6

    m["service.queue_wait_ms"] = per_op(queue_wait)
    for short, name in (("canonicalize", "canonical.canonicalize"),
                        ("fingerprint", "canonical.fingerprint"),
                        ("decanonicalize", "canonical.decanonicalize")):
        m[f"canonical.{short}_ms"] = per_op(
            lambda op, name=name: _total_ms(op.spans, name)
            if any(s.name == name for s in op.spans) else None)

    gets = [s for op in ops for s in op.spans if s.name == "store.get"]
    memory = [s.duration / 1e6 for s in gets if s.attrs.get("tier") == "memory"]
    disk = [s.duration / 1e6 for s in gets if s.attrs.get("tier") == "disk"]
    m["store.memory_hit_ms"] = median(memory)
    m["store.disk_hit_ms"] = median(disk)
    m["store.disk_hit_share"] = len(disk) / (len(memory) + len(disk)) if memory or disk else 0.0
    puts = [s for op in ops for s in op.spans if s.name == "store.put"]
    m["store.put_ms"] = median(s.duration / 1e6 for s in puts)
    m["store.put_bytes"] = median(float(s.attrs.get("bytes", 0)) for s in puts)

    m["engine.solve_ms"] = per_op(
        lambda op: sum(s.self_time for s in op.spans if s.name == "engine.solve") / 1e6
        if any(s.name == "engine.solve" for s in op.spans) else None)
    m["engine.lower_bound_ms"] = per_op(
        lambda op: _total_ms(op.spans, "engine.lower_bound")
        if any(s.name == "engine.lower_bound" for s in op.spans) else None)
    for algorithm in ALGORITHMS:
        name = f"algorithms.{algorithm}"
        m[f"{name}.ms"] = per_op(
            lambda op, name=name: sum(s.self_time for s in op.spans if s.name == name) / 1e6
            if any(s.name == name for s in op.spans) else None)
        m[f"{name}.calls"] = per_op(
            lambda op, name=name: sum(1 for s in op.spans if s.name == name) or None)

    def verify(op):
        passes = _top_level(op.spans, "core.verify")
        return (sum(s.duration for s in passes) / 1e6, len(passes)) if passes else None

    verified = [v for v in (verify(op) for op in ops) if v is not None]
    m["core.verify_ms"] = median(v[0] for v in verified)
    m["core.verify_calls"] = median(float(v[1]) for v in verified)

    races = [s for op in ops for s in op.spans if s.name == "portfolio.race"]
    m["portfolio.race_ms"] = median(s.duration / 1e6 for s in races)
    m["portfolio.candidates"] = median(float(s.attrs.get("candidates", 0)) for s in races)

    m["sessions.probe_ms"] = per_op(
        lambda op: _total_ms(op.spans, "sessions.probe")
        if any(s.name == "sessions.probe" for s in op.spans) else None)
    feeds = [s for op in ops for s in op.spans if s.name == "dynamic.feed"]
    replans = [s for op in ops for s in _top_level(op.spans, "dynamic.replan")]
    m["dynamic.feed_ms"] = median(s.duration / 1e6 for s in feeds)
    m["dynamic.replan_ms"] = median(s.duration / 1e6 for s in replans)
    m["dynamic.replans"] = float(len(replans))
    for short in ("get_document", "put_document"):
        m[f"store.{short}_ms"] = per_op(
            lambda op, short=short: _total_ms(op.spans, f"store.{short}")
            if any(s.name == f"store.{short}" for s in op.spans) else None)
    m["store.document_bytes"] = median(
        float(s.attrs.get("bytes", 0)) for op in ops for s in op.spans
        if s.name == "store.put_document")

    for layer, share in layer_shares(shares_of).items():
        m[f"share.{layer}"] = share
    return m
