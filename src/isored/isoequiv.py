"""Weighted-digraph isomorphism and the reduction-induced equivalences.

Isomorphism demands a vertex bijection preserving edges and exact
canonical weights.  The search backtracks over candidate assignments on an
explicit stack (so a long graph cannot exhaust the recursion limit), pruned
by per-vertex invariants (degrees, loop weight, sorted in/out weight
multisets).  A candidate is checked against its assigned neighbours in
both graphs only, so one check costs the two vertices' degrees, not the
size of the assignment.  The worst case is exponential, but the inputs
here are reduced graphs of desk scale.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .reduction import reduce, unique_reduce_to
from .structural import basic_structural_set, require_g_pi, require_structural_set
from .wgraph import WeightedDigraph


def _vertex_signature(g: WeightedDigraph, v: str):
    out_w = sorted(hash(g.weight(v, u)) for u in g.successors(v) if u != v)
    in_w = sorted(hash(g.weight(u, v)) for u in g.predecessors(v) if u != v)
    return (
        g.out_degree(v),
        g.in_degree(v),
        hash(g.loop(v)),
        tuple(out_w),
        tuple(in_w),
    )


def isomorphic(g: WeightedDigraph, h: WeightedDigraph) -> Optional[Dict[str, str]]:
    """A weight-preserving vertex bijection g -> h, or ``None``."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    sig_g = {v: _vertex_signature(g, v) for v in g.vertices}
    sig_h = {v: _vertex_signature(h, v) for v in h.vertices}
    if sorted(sig_g.values()) != sorted(sig_h.values()):
        return None
    by_signature: Dict[tuple, List[str]] = {}
    for u in h.vertices:
        by_signature.setdefault(sig_h[u], []).append(u)
    candidates = {v: by_signature[sig_g[v]] for v in g.vertices}
    order = sorted(g.vertices, key=lambda v: len(candidates[v]))
    assignment: Dict[str, str] = {}
    inverse: Dict[str, str] = {}  # assignment's values back to its keys

    def consistent(v: str, u: str) -> bool:
        # a pair of assigned vertices adjacent to neither v nor u has weight
        # 0 on both sides, so only the neighbours can break the match
        for w in g.successors(v):
            if w in assignment and g.weight(v, w) != h.weight(u, assignment[w]):
                return False
        for w in g.predecessors(v):
            if w in assignment and g.weight(w, v) != h.weight(assignment[w], u):
                return False
        for x in h.successors(u):
            if x in inverse and h.weight(u, x) != g.weight(v, inverse[x]):
                return False
        for x in h.predecessors(u):
            if x in inverse and h.weight(x, u) != g.weight(inverse[x], v):
                return False
        return g.loop(v) == h.loop(u)

    # stack[k] iterates the candidates left for order[k]
    stack = [iter(candidates[v]) for v in order[:1]]
    while stack and len(assignment) < len(order):
        v = order[len(stack) - 1]
        inverse.pop(assignment.pop(v, None), None)  # undo v's last try, if any
        u = next((u for u in stack[-1] if u not in inverse and consistent(v, u)), None)
        if u is None:
            stack.pop()
        else:
            assignment[v] = u
            inverse[u] = v
            if len(stack) < len(order):
                stack.append(iter(candidates[order[len(stack)]]))
    return dict(assignment) if len(assignment) == len(order) else None


def common_reduction(
    g: WeightedDigraph, s: Iterable[str], h: WeightedDigraph, t: Iterable[str]
) -> bool:
    """True when the reductions of g over s and h over t are isomorphic."""
    s_ordered = require_structural_set(g, s)
    t_ordered = require_structural_set(h, t)
    return isomorphic(reduce(g, s_ordered), reduce(h, t_ordered)) is not None


def bas_equivalent(g: WeightedDigraph, h: WeightedDigraph) -> bool:
    """Membership of h in g's equivalence class: both reduced over their
    basic structural sets give isomorphic graphs."""
    rg = reduce(g, basic_structural_set(g))
    rh = reduce(h, basic_structural_set(h))
    return isomorphic(rg, rh) is not None


def tau_reduce(
    g: WeightedDigraph, rule: Callable[[WeightedDigraph], Iterable[str]]
) -> WeightedDigraph:
    """Unique reduction onto the vertex subset picked by a deterministic
    rule; the graph must have all weight degree gaps nonpositive."""
    target = list(rule(g))
    reduced, _ = unique_reduce_to(g, target)
    return reduced


def min_out_degree_rule(g: WeightedDigraph) -> List[str]:
    """Vertices that survive one step of the minimum-out-degree rule: the
    complement of the minimal-out-degree set."""
    degs = {v: g.out_degree(v) for v in g.vertices}
    low = min(degs.values())
    return [v for v in g.vertices if degs[v] > low]


def tau_min_outdegree_reduce(g: WeightedDigraph) -> WeightedDigraph:
    """Iterate removal of the minimal-out-degree vertices until every
    vertex has the same out-degree; a deterministic fixed point."""
    require_g_pi(g)
    current = g
    while True:
        degs = [current.out_degree(v) for v in current.vertices]
        if min(degs) == max(degs):
            return current
        current = tau_reduce(current, min_out_degree_rule)


def tau_equivalent(g: WeightedDigraph, h: WeightedDigraph) -> bool:
    """True when the minimum-out-degree fixed points of g and h are
    isomorphic."""
    reduced = tau_min_outdegree_reduce(g), tau_min_outdegree_reduce(h)
    return isomorphic(*reduced) is not None
