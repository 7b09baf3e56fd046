"""Strongly connected components and their interaction with reductions.

Components are returned in a deterministic block order: the adjacency
matrix restricted to the concatenated blocks is block lower triangular,
so cross-component edges always point from a later block to an earlier
one.  Ties are broken by smallest vertex index.

``scc_filter`` keeps exactly the edges inside some component (an edge is
intra-component iff it lies on a cycle; loops always qualify), which
leaves the spectrum unchanged.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Set, Tuple

from .reduction import reduce
from .structural import require_structural_set
from .wgraph import WeightedDigraph


class SccPartition:
    """Ordered partition of the vertices into strongly connected
    components, in block-lower-triangular order."""

    __slots__ = ("components", "component_of")

    def __init__(self, components: Sequence[Tuple[str, ...]]):
        self.components = tuple(tuple(c) for c in components)
        self.component_of: Dict[str, int] = {}
        for k, comp in enumerate(self.components):
            for v in comp:
                self.component_of[v] = k

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def same_component(self, u: str, v: str) -> bool:
        return self.component_of[u] == self.component_of[v]

    def as_sets(self) -> List[frozenset]:
        return [frozenset(c) for c in self.components]

    def __repr__(self):
        return f"SccPartition({[list(c) for c in self.components]})"


def _tarjan(g: WeightedDigraph) -> List[List[str]]:
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    for root in g.vertices:
        if root in index:
            continue
        work = [(root, iter(g.successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(g.successors(u))))
                    advanced = True
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def scc_partition(g: WeightedDigraph) -> SccPartition:
    """Strongly connected components in deterministic block order."""
    comps = _tarjan(g)
    comp_id = {}
    for k, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = k
    # Kahn's algorithm on the condensation: a component is ready once every
    # component it has an edge into is placed; the heap serves the ready
    # component with the smallest vertex index first
    successors: List[Set[int]] = [set() for _ in comps]
    for u, v, _ in g.edges():
        a, b = comp_id[u], comp_id[v]
        if a != b:
            successors[a].add(b)
    predecessors: List[List[int]] = [[] for _ in comps]
    for a, outs in enumerate(successors):
        for b in outs:
            predecessors[b].append(a)
    idx = g.index
    min_index = [min(idx(v) for v in comp) for comp in comps]
    waiting = [len(outs) for outs in successors]
    ready = [(min_index[k], k) for k in range(len(comps)) if not waiting[k]]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        _, k = heapq.heappop(ready)
        order.append(k)
        for a in predecessors[k]:
            waiting[a] -= 1
            if not waiting[a]:
                heapq.heappush(ready, (min_index[a], a))
    return SccPartition([tuple(sorted(comps[k], key=idx)) for k in order])


def scc_filter(g: WeightedDigraph) -> WeightedDigraph:
    """Same vertices, only intra-component edges kept."""
    part = scc_partition(g)
    edges = [
        (u, v, w)
        for u, v, w in g.edges()
        if u == v or part.same_component(u, v)
    ]
    return WeightedDigraph(g.vertices, edges)


class SccCheckReport:
    __slots__ = ("ok", "lines")

    def __init__(self, ok: bool, lines: List[str]):
        self.ok = ok
        self.lines = lines

    def __bool__(self):
        return self.ok


def reduced_scc_check(g: WeightedDigraph, s) -> SccCheckReport:
    """Verify that reducing each component over its S-vertices reproduces
    the components of the reduced graph, both as a vertex partition and as
    weighted subgraphs.  Components with no S-vertices are skipped."""
    s_ordered = require_structural_set(g, s)
    s_set = set(s_ordered)
    reduced = reduce(g, s_ordered)
    reduced_blocks = scc_filter(reduced)
    lines: List[str] = []
    ok = True

    expected_sets = []
    expected_graphs = {}
    for comp in scc_partition(g):
        s_i = [v for v in comp if v in s_set]
        if not s_i:
            continue
        sub = g.subgraph(comp)
        expected_sets.append(frozenset(s_i))
        expected_graphs[frozenset(s_i)] = reduce(sub, s_i)

    actual_sets = scc_partition(reduced).as_sets()
    if sorted(expected_sets, key=sorted) != sorted(actual_sets, key=sorted):
        ok = False
        lines.append(
            f"component vertex sets differ: expected {sorted(map(sorted, expected_sets))}, "
            f"got {sorted(map(sorted, actual_sets))}"
        )
    else:
        for key in expected_sets:
            block = reduced_blocks.subgraph(key)
            if block != expected_graphs[key]:
                ok = False
                lines.append(f"component {sorted(key)} block differs from its reduction")
    if ok:
        lines.append(f"{len(expected_sets)} component blocks verified")
    return SccCheckReport(ok, lines)
