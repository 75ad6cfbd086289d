"""Bipartite b-matching (degree-constrained subgraph), used by Bounded_Length.

Step 2(d)–(e) of the Bounded_Length algorithm (Section 3.2) builds a
bipartite graph between machines and independent sets and solves a maximum
*b-matching*: every machine vertex may be matched to at most ``g`` independent
sets, every independent-set vertex to at most one machine.  The paper cites
Gabow's reduction [11]; a bipartite b-matching is a textbook maximum-flow
problem, which is how we solve it here (integral capacities, so the max flow
is integral and decomposes into the desired matching).

Correctness rests on two textbook facts:

* **integrality** — the flow network has integral capacities, so a maximum
  flow is integral and decomposes into a matching meeting the degree bounds
  exactly (this is the reduction the paper attributes to Gabow [11]);
* **optimality** — max-flow value equals the maximum b-matching size, so
  Step 2(e)'s "every independent set matched" test is exact: if the solver
  matches fewer than all sets, no assignment of threads to the guessed
  machines exists and the caller must fall back.

The module is written against plain adjacency data so it can be reused
outside the scheduling context (it is a generic substrate); a thin wrapper
over :mod:`networkx`'s preflow-push solver does the heavy lifting, with
``O(V^2 sqrt(E))`` worst-case complexity.  That is not negligible: when
Bounded_Length ran it on every packed segment it took about 41% of
Bounded_Length's CPU on perfbench's cold-solve instances, so Bounded_Length
now calls it only when its thread grouping is not the only perfect
b-matching.  The flow network's nodes are integers, so the matching found
is the same in every process, whatever the hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

import networkx as nx

__all__ = ["BMatchingResult", "max_bipartite_b_matching", "is_valid_b_matching"]


@dataclass(frozen=True)
class BMatchingResult:
    """Result of a maximum bipartite b-matching computation.

    Attributes
    ----------
    edges:
        The matched edges as ``(u, v)`` pairs with ``u`` from the left side
        and ``v`` from the right side.
    size:
        Number of matched edges (the objective value).
    """

    edges: Tuple[Tuple[Hashable, Hashable], ...]
    size: int

    def matched_right_of(self, u: Hashable) -> List[Hashable]:
        return [v for (a, v) in self.edges if a == u]

    def matched_left_of(self, v: Hashable) -> List[Hashable]:
        return [u for (u, b) in self.edges if b == v]


def max_bipartite_b_matching(
    left_capacities: Mapping[Hashable, int],
    right_capacities: Mapping[Hashable, int],
    edges: Iterable[Tuple[Hashable, Hashable]],
) -> BMatchingResult:
    """Maximum b-matching of a bipartite graph via max flow.

    Parameters
    ----------
    left_capacities:
        ``b(u)`` for every left vertex ``u`` (machines: ``g``).
    right_capacities:
        ``b(v)`` for every right vertex ``v`` (independent sets: ``1``).
    edges:
        Admissible pairs ``(u, v)``; an edge may appear at most once in the
        matching.

    Returns
    -------
    BMatchingResult
        The matched edge set; its size is maximum among all b-matchings.
    """
    edge_list = list(dict.fromkeys(edges))  # dedupe, keep order
    for u, v in edge_list:
        if u not in left_capacities:
            raise KeyError(f"edge endpoint {u!r} missing from left_capacities")
        if v not in right_capacities:
            raise KeyError(f"edge endpoint {v!r} missing from right_capacities")
    for side, caps in (("left", left_capacities), ("right", right_capacities)):
        for node, cap in caps.items():
            if cap < 0:
                raise ValueError(f"{side} capacity of {node!r} is negative")

    # Integer node labels: the solver iterates sets of nodes, and the order
    # of a set of strings or tuples of strings changes with the hash seed,
    # which would make the matching found depend on the process.
    left = {u: k for k, u in enumerate(left_capacities, start=1)}
    right = {v: k for k, v in enumerate(right_capacities, start=len(left) + 1)}
    source, sink = 0, len(left) + len(right) + 1
    graph = nx.DiGraph()
    for u, cap in left_capacities.items():
        graph.add_edge(source, left[u], capacity=int(cap))
    for v, cap in right_capacities.items():
        graph.add_edge(right[v], sink, capacity=int(cap))
    for u, v in edge_list:
        graph.add_edge(left[u], right[v], capacity=1)

    if not edge_list:
        return BMatchingResult(edges=(), size=0)

    _, flow_dict = nx.maximum_flow(graph, source, sink)
    matched = tuple(
        (u, v) for u, v in edge_list if flow_dict[left[u]].get(right[v], 0) >= 1
    )
    return BMatchingResult(edges=matched, size=len(matched))


def is_valid_b_matching(
    result: BMatchingResult,
    left_capacities: Mapping[Hashable, int],
    right_capacities: Mapping[Hashable, int],
    edges: Iterable[Tuple[Hashable, Hashable]],
) -> bool:
    """Check degree constraints and edge admissibility of a matching."""
    allowed: Set[Tuple[Hashable, Hashable]] = set(edges)
    left_deg: Dict[Hashable, int] = {}
    right_deg: Dict[Hashable, int] = {}
    seen: Set[Tuple[Hashable, Hashable]] = set()
    for u, v in result.edges:
        if (u, v) not in allowed or (u, v) in seen:
            return False
        seen.add((u, v))
        left_deg[u] = left_deg.get(u, 0) + 1
        right_deg[v] = right_deg.get(v, 0) + 1
    return all(
        left_deg.get(u, 0) <= cap for u, cap in left_capacities.items()
    ) and all(right_deg.get(v, 0) <= cap for v, cap in right_capacities.items())
