"""The reduction engine: branches, reductions over a structural set,
vertex elimination, sequential and unique reductions, branch
decompositions, expansions, loop bisection, and off-branch pruning.

A *branch* between vertices of S is a path or cycle whose interior
vertices all lie off S; the two-vertex case covers both a plain edge and a
loop (a loop is a length-one cycle from its vertex to itself).  The
reduced graph on S carries, for each ordered pair, the sum of branch
products; pairs whose products cancel to zero get no edge.

``reduce`` computes that graph as the Schur complement
``M_SS + M_{S,S'} (l I - M_{S'S'})^{-1} M_{S',S}`` of the complement S'.
One elimination kernel, ``_eliminate``, removes vertices one at a time on
a pair of out/in weight maps and returns each pivot's loop weight.  It
takes its pivots from one of two rules:

* the given order, for ``reduce``, ``remove_vertex``, ``sequential_reduce``
  and ``unique_reduce_to``, which refuses a pivot whose loop is l; there
  ``structural.exception_set`` of the pivot loops is the exception set;
* least fill (Markowitz), for ``spectrum.char_det``, which takes cheap
  vertices with nonzero pivots and leaves the rest to the dense
  determinant.

The reduced graph equals the branch-product sum exactly
(``oracles.branch_product`` is the definition); the branch walk itself
runs only where the branches are the output (enumeration, decompositions,
expansion, pruning, and the subring-preserving reduction).
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .ratfun import RatFun, format_weight
from .structural import (
    ForbiddenSet,
    StructuralSetError,
    check_structural_set,
    exception_set,
    require_g_pi,
    require_structural_set,
)
from .wgraph import GraphError, UnknownVertexError, WeightedDigraph


class Branch:
    """A path or cycle v1..vm (m >= 2) with endpoints in S and interiors
    off S; vertices are distinct except possibly v1 = vm."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[str]):
        if len(vertices) < 2:
            raise ValueError("a branch has at least two vertices")
        self.vertices = tuple(vertices)

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        """Edge count."""
        return len(self.vertices) - 1

    def interiors(self) -> Tuple[str, ...]:
        return self.vertices[1:-1]

    def __eq__(self, other):
        if not isinstance(other, Branch):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "Branch(" + " -> ".join(self.vertices) + ")"


def weight_sequence(g: WeightedDigraph, branch: Branch) -> Tuple[RatFun, ...]:
    """Alternating loop/edge weights along the branch, 2m-1 entries for m
    vertices; absent loops contribute the zero function."""
    vs = branch.vertices
    out: List[RatFun] = [g.loop(vs[0])]
    for a, b in zip(vs, vs[1:]):
        out.append(g.weight(a, b))
        out.append(g.loop(b))
    return tuple(out)


def _branches_from(g: WeightedDigraph, s_set: set, start: str) -> Dict[str, List[Branch]]:
    """All branches leaving ``start``, grouped by target, each group in
    lexicographic order of the vertex-index sequence, since successors come
    in index order.  The depth-first walk keeps an explicit stack of
    successor iterators, so a long branch cannot exhaust the interpreter's
    recursion limit."""
    found: Dict[str, List[Branch]] = {}
    path = [start]
    on_path = set()
    stack = [iter(g.successors(start))]
    while stack:
        for nxt in stack[-1]:
            if nxt in s_set:
                found.setdefault(nxt, []).append(Branch(path + [nxt]))
            elif nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                stack.append(iter(g.successors(nxt)))
                break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return found


def enumerate_branches(
    g: WeightedDigraph, s: Iterable[str], source: str, target: str
) -> List[Branch]:
    """The branch set from ``source`` to ``target`` over S, in
    deterministic lexicographic order."""
    s_ordered = require_structural_set(g, s)
    s_set = set(s_ordered)
    if source not in s_set or target not in s_set:
        raise StructuralSetError(
            f"branch endpoints {source!r}, {target!r} must lie in the structural set"
        )
    return _branches_from(g, s_set, source).get(target, [])


def all_branches(g: WeightedDigraph, s: Iterable[str]) -> List[Branch]:
    """Every branch of g over S, grouped by source then target."""
    s_ordered = require_structural_set(g, s)
    s_set = set(s_ordered)
    out: List[Branch] = []
    for src in s_ordered:
        groups = _branches_from(g, s_set, src)
        for dst in s_ordered:
            out.extend(groups.get(dst, []))
    return out


def reduce(g: WeightedDigraph, s: Iterable[str]) -> WeightedDigraph:
    """The isospectral reduction of g over the structural set S: the graph
    on S whose (i, j) weight is the sum of branch products from i to j.

    The complement is eliminated vertex by vertex in graph order.  It
    induces no cycle, so no removal changes the loop of another complement
    vertex, and every pivot l - w(v, v) is the nonzero one the structural
    check guarantees."""
    s_set = set(require_structural_set(g, s))
    return _eliminate(g, [u for u in g.vertices if u not in s_set])[0]


def remove_vertex(g: WeightedDigraph, v: str) -> WeightedDigraph:
    """Eliminate one vertex: the reduction over V minus {v}."""
    if not g.has_vertex(v):
        raise UnknownVertexError(f"unknown vertex {v!r}")
    if g.n < 2:
        raise StructuralSetError("cannot remove the only vertex")
    return _eliminate(g, [v])[0]


# Least fill takes a vertex only while its removal updates at most this
# many entries.  Denser pivots fill the block in with high-degree entries:
# eliminating every vertex by least fill was slower than dense Bareiss on
# random 60-vertex graphs of mean out-degree 2.
_MAX_FILL_COST = 4


def _eliminate(
    g: WeightedDigraph, doomed: Optional[Sequence[str]] = None
) -> Tuple[WeightedDigraph, List[RatFun]]:
    """Remove vertices one at a time, each by the closed form
    new(i,j) = w(i,j) + w(i,v) w(v,j) / (l - w(v,v)), where only
    in-neighbour/out-neighbour pairs of v gain a term.  The weights live in
    out- and in-maps until the one graph built at the end, which is
    returned with each pivot's loop w(v,v) as it stood when v was removed.

    Two pivot rules share the loop.  Given ``doomed``, those vertices go in
    that order, and a loop equal to l among them is refused.  Without it,
    ``_least_fill`` picks the pivots and the vertices it leaves remain."""
    out: Dict[str, Dict[str, RatFun]] = {u: {} for u in g.vertices}
    into: Dict[str, Dict[str, RatFun]] = {u: {} for u in g.vertices}
    for i, j, w in g.edges():
        out[i][j] = into[j][i] = w
    lam, loops = RatFun.var(), []
    for v in _least_fill(g, out, into) if doomed is None else doomed:
        succ, pred = out.pop(v), into.pop(v)
        loop = succ.pop(v, RatFun.zero())
        loops.append(loop)
        pred.pop(v, None)
        if loop == lam:
            raise StructuralSetError(
                f"loop on {v!r} equals the variable l; the complement is not structural"
            )
        for j in succ:
            del into[j][v]
        for i in pred:
            del out[i][v]
        denom = lam - loop
        for i, wi in pred.items():
            through = wi / denom
            row = out[i]
            for j, wj in succ.items():
                w = row.get(j, RatFun.zero()) + through * wj
                if w:
                    row[j] = into[j][i] = w
                else:
                    del row[j], into[j][i]
    edges = [(i, j, w) for i, row in out.items() for j, w in row.items()]
    return WeightedDigraph(out, edges), loops


def _least_fill(
    g: WeightedDigraph,
    out: Dict[str, Dict[str, RatFun]],
    into: Dict[str, Dict[str, RatFun]],
) -> Iterator[str]:
    """Pivots for ``_eliminate`` by Markowitz's rule (1957): next comes the
    vertex whose removal updates the fewest entries, in-degree times
    out-degree with loops left out, the earlier vertex in graph order on a
    tie, while that cost is at most ``_MAX_FILL_COST``.  A vertex whose
    loop is l would be a zero pivot and is passed over until a removal
    changes its loop.  Each pivot is yielded before its removal and the
    generator resumes after it, when only its neighbours' costs can have
    changed; stale heap entries are dropped as they surface."""
    lam = RatFun.var()

    def cost(v: str) -> int:
        return (len(into[v]) - (v in into[v])) * (len(out[v]) - (v in out[v]))

    heap = [(cost(v), k, v) for k, v in enumerate(g.vertices)]
    heap = [entry for entry in heap if entry[0] <= _MAX_FILL_COST]
    heapq.heapify(heap)
    while heap:
        c, _, v = heapq.heappop(heap)
        if v not in out or cost(v) != c or out[v].get(v) == lam:
            continue
        touched = (out[v].keys() | into[v].keys()) - {v}
        yield v
        for u in touched:
            c = cost(u)
            if c <= _MAX_FILL_COST:
                heapq.heappush(heap, (c, g.index(u), u))


def sequential_reduce(
    g: WeightedDigraph, sets: Sequence[Iterable[str]]
) -> Tuple[WeightedDigraph, ForbiddenSet]:
    """Apply a sequence of reductions; the exception set is that of every
    step's pivot loops, in order."""
    current, loops = g, []
    for k, s in enumerate(sets):
        check = check_structural_set(current, s)
        if not check.ok:
            raise StructuralSetError(f"step {k + 1}: {check.reason}")
        s_set = set(s)
        current, step = _eliminate(current, [u for u in current.vertices if u not in s_set])
        loops += step
    return current, exception_set(loops)


def unique_reduce_to(
    g: WeightedDigraph, target: Iterable[str]
) -> Tuple[WeightedDigraph, ForbiddenSet]:
    """Reduce to an arbitrary nonempty target vertex set by removing the
    complement one vertex at a time; requires every weight to have
    nonpositive degree gap, which makes the result order independent."""
    target_set = set(target)
    if not target_set:
        raise ValueError("target vertex set must be nonempty")
    for v in target_set:
        if not g.has_vertex(v):
            raise UnknownVertexError(f"unknown vertex {v!r}")
    require_g_pi(g)
    reduced, loops = _eliminate(g, [u for u in g.vertices if u not in target_set])
    return reduced, exception_set(loops)


# ----------------------------------------------------------------------
# Branch decompositions and expansions
# ----------------------------------------------------------------------

DecompositionItem = Tuple[str, str, Tuple[RatFun, ...]]


def branch_decomposition(g: WeightedDigraph, s: Iterable[str]) -> List[DecompositionItem]:
    """Multiset of (source, target, weight sequence) over all branches, in
    deterministic order; repeated items are meaningful."""
    return [
        (b.source, b.target, weight_sequence(g, b)) for b in all_branches(g, s)
    ]


def common_decomposition(
    g: WeightedDigraph,
    s: Iterable[str],
    h: WeightedDigraph,
    t: Iterable[str],
    rho: Dict[str, str],
) -> bool:
    """True when the branch decompositions agree as multisets after
    relabeling g's sources and targets through the bijection rho: s -> t."""
    s_ordered = require_structural_set(g, s)
    t_ordered = require_structural_set(h, t)
    if set(rho.keys()) != set(s_ordered) or set(rho.values()) != set(t_ordered):
        raise ValueError("rho must be a bijection from s onto t")
    left = Counter(
        (rho[src], rho[dst], seq) for src, dst, seq in branch_decomposition(g, s_ordered)
    )
    right = Counter(branch_decomposition(h, t_ordered))
    return left == right


def _fresh_label(base: str, taken) -> str:
    """``base`` when ``taken`` does not hold it, else the first of base1,
    base2, ... that it does not."""
    name, n = base, 0
    while name in taken:
        n += 1
        name = f"{base}{n}"
    return name


def expand(g: WeightedDigraph, s: Iterable[str]) -> WeightedDigraph:
    """Branch expansion: same decomposition over S, but every branch gets
    its own fresh interior vertices, so branches are pairwise independent
    and every vertex lies on a branch.

    Interior names are ``<src>~<dst>~<k>~<pos>`` with k the branch index
    within its ordered pair and pos the interior position, made fresh by
    ``_fresh_label`` when an earlier name holds it.
    """
    s_ordered = require_structural_set(g, s)
    s_set = set(s_ordered)
    vertices: List[str] = list(s_ordered)
    taken = set(vertices)
    edges: List[Tuple[str, str, RatFun]] = []
    for src in s_ordered:
        groups = _branches_from(g, s_set, src)
        for dst in s_ordered:
            for k, b in enumerate(groups.get(dst, [])):
                seq = weight_sequence(g, b)
                m = len(b.vertices)
                if m == 2:
                    edges.append((src, dst, seq[1]))
                    continue
                names = [src]
                for pos in range(1, m - 1):
                    name = _fresh_label(f"{src}~{dst}~{k}~{pos}", taken)
                    taken.add(name)
                    names.append(name)
                    vertices.append(name)
                names.append(dst)
                for step in range(m - 1):
                    edges.append((names[step], names[step + 1], seq[2 * step + 1]))
                for pos in range(1, m - 1):
                    loop = seq[2 * pos]
                    if not loop.is_zero():
                        edges.append((names[pos], names[pos], loop))
    return WeightedDigraph(vertices, edges)


class FactorizationError(ValueError):
    """The supplied loop-bisection factors do not multiply back to the
    edge weight."""


def loop_bisect(
    g: WeightedDigraph,
    edge: Tuple[str, str],
    w_in: RatFun,
    w_loop: RatFun,
    w_out: RatFun,
    new_vertex: Optional[str] = None,
) -> WeightedDigraph:
    """Replace edge (i, k) of weight w_in * w_out / (l - w_loop) by a path
    through a fresh looped vertex carrying exactly those three weights."""
    i, k = edge
    if not g.has_edge(i, k):
        raise GraphError(f"no edge {i!r}->{k!r} to bisect")
    lam = RatFun.var()
    if w_loop == lam:
        raise FactorizationError("bisection loop weight may not equal the variable l")
    expected = w_in * w_out / (lam - w_loop)
    actual = g.weight(i, k)
    if expected != actual:
        raise FactorizationError(
            f"factors give {format_weight(expected)} but the edge weighs "
            f"{format_weight(actual)}"
        )
    if new_vertex is None:
        new_vertex = _fresh_label(f"{i}~{k}~bis", set(g.vertices))
    elif g.has_vertex(new_vertex):
        raise ValueError(f"vertex {new_vertex!r} already exists")
    edges = [(u, v, w) for u, v, w in g.edges() if (u, v) != (i, k)]
    edges.append((i, new_vertex, w_in))
    if not w_loop.is_zero():
        edges.append((new_vertex, new_vertex, w_loop))
    edges.append((new_vertex, k, w_out))
    return WeightedDigraph(tuple(g.vertices) + (new_vertex,), edges)


def prune_off_branch(g: WeightedDigraph, s: Iterable[str]) -> WeightedDigraph:
    """Drop every vertex and edge lying on no branch over S.  S vertices
    are always retained; loops survive exactly when their vertex is on
    some branch."""
    s_ordered = require_structural_set(g, s)
    s_set = set(s_ordered)
    traversed = set()
    on_branch = set()
    for b in all_branches(g, s_ordered):
        vs = b.vertices
        on_branch.update(vs)
        traversed.update(zip(vs, vs[1:]))
    keep_vertices = [v for v in g.vertices if v in on_branch or v in s_set]
    edges = []
    for u, v, w in g.edges():
        if (u, v) in traversed or (u == v and u in on_branch):
            edges.append((u, v, w))
    return WeightedDigraph(keep_vertices, edges)
