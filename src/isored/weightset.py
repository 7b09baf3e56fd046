"""Vertex-count reduction that preserves a chosen weight subring.

Where an ordinary reduction shrinks the vertex set at the price of
rational-function weights, this construction rebuilds the graph from the
maximal branches into each basic-structural-set vertex: each maximal
branch survives with its full weight product pushed onto its first edge
and units elsewhere, and every other branch collapses to a single edge
attached part-way along the maximal branch so its length and product are
unchanged.  All new weights are products (or, after parallel-edge
merging, sums of products) of original weights, so membership in a unital
subring is preserved, while the vertex count drops to

    m + sum_i (len_i - 1)

with m the basic-set size and len_i the longest branch length into the
i-th basic vertex.

The subring is supplied as a membership predicate; closure is the
predicate's business, and the verification report flags any output weight
that escapes it (possible for sets like {1} that are not closed under
addition).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .ratfun import RatFun, format_weight
from .reduction import Branch, _branches_from, reduce
from .structural import basic_structural_set
from .wgraph import WeightedDigraph, merge_parallel

SubringTest = Callable[[RatFun], bool]


def subring_integers(w: RatFun) -> bool:
    if not w.is_constant():
        return False
    c = w.constant_value()
    return not c.im and c.re.denominator == 1


def subring_gaussian_integers(w: RatFun) -> bool:
    if not w.is_constant():
        return False
    c = w.constant_value()
    return c.re.denominator == 1 and c.im.denominator == 1


def subring_constants(w: RatFun) -> bool:
    return w.is_constant()


def subring_unit_sums(w: RatFun) -> bool:
    """Sums of ones: the nonnegative integers."""
    return subring_integers(w) and w.constant_value().re >= 0


SUBRING_TESTS: Dict[str, SubringTest] = {
    "int": subring_integers,
    "gauss-int": subring_gaussian_integers,
    "const": subring_constants,
    "unit": subring_unit_sums,
}


class WeightOutsideSubringError(ValueError):
    pass


def _edge_weight_product(g: WeightedDigraph, b: Branch) -> RatFun:
    out = RatFun.one()
    for u, v in zip(b.vertices, b.vertices[1:]):
        out = out * g.weight(u, v)
    return out


def _branches_into(g: WeightedDigraph, basic: Tuple[str, ...]) -> Dict[str, List[Branch]]:
    """The branches into each basic vertex, in lexicographic order of their
    vertex-index sequences: ``basic`` is in graph order, and each source's
    group comes out of the walk in that order."""
    by_target: Dict[str, List[Branch]] = {v: [] for v in basic}
    s_set = set(basic)
    for src in basic:
        for dst, branches in _branches_from(g, s_set, src).items():
            by_target[dst].extend(branches)
    return by_target


def _choose_maximal(branches: List[Branch]) -> Optional[Branch]:
    if not branches:
        return None
    top = max(b.length for b in branches)
    return next(b for b in branches if b.length == top)  # list is in lex order


def expected_vertex_count(g: WeightedDigraph) -> int:
    """m + sum(len_i - 1) over the basic set; vertices without incoming
    branches count len_i = 1 (they add no interiors)."""
    basic = basic_structural_set(g)
    by_target = _branches_into(g, basic)
    total = len(basic)
    for v in basic:
        gamma = _choose_maximal(by_target[v])
        if gamma is not None:
            total += gamma.length - 1
    return total


def weightset_reduce(
    g: WeightedDigraph, subring_test: SubringTest
) -> WeightedDigraph:
    """Build the reduced graph over the given weight subring.

    Every input weight must pass ``subring_test`` and the predicate must
    accept 1 (the construction fills branch tails with unit weights).
    """
    if not subring_test(RatFun.one()):
        raise WeightOutsideSubringError("subring must contain 1")
    for u, v, w in g.edges():
        if not subring_test(w):
            raise WeightOutsideSubringError(
                f"weight of {u!r}->{v!r} ({format_weight(w)}) is outside the subring"
            )
    basic = basic_structural_set(g)
    by_target = _branches_into(g, basic)
    gamma: Dict[str, Optional[Branch]] = {
        v: _choose_maximal(by_target[v]) for v in basic
    }

    # interiors keep their names: an off-basic vertex has out-degree at most
    # 1, so it lies on the maximal branch of one target at most
    path_names: Dict[str, List[str]] = {}
    vertices: List[str] = list(basic)
    for v in basic:
        b = gamma[v]
        if b is None:
            path_names[v] = [v]
            continue
        path_names[v] = [b.source, *b.interiors(), v]
        vertices.extend(b.interiors())

    raw: List[Tuple[str, str, RatFun]] = []
    one = RatFun.one()
    for v in basic:
        b = gamma[v]
        if b is None:
            continue
        for u in b.interiors():
            if not g.loop(u).is_zero():
                raise AssertionError(
                    "interior of a basic-set branch carries a loop"
                )
        names = path_names[v]
        raw.append((names[0], names[1], _edge_weight_product(g, b)))
        for k in range(1, b.length):
            raw.append((names[k], names[k + 1], one))
    for v in basic:
        chosen = gamma[v]
        if chosen is None:
            continue
        ell = chosen.length
        for b in by_target[v]:
            if b is chosen:
                continue
            attach = path_names[v][ell + 1 - b.length]
            raw.append((b.source, attach, _edge_weight_product(g, b)))
    return merge_parallel(vertices, raw)


class WeightsetReport:
    __slots__ = ("ok", "lines")

    def __init__(self, ok: bool, lines: List[str]):
        self.ok = ok
        self.lines = lines

    def __bool__(self):
        return self.ok


def verify_weightset(
    g: WeightedDigraph, reduced: WeightedDigraph, subring_test: SubringTest
) -> WeightsetReport:
    """Check the three construction guarantees: the vertex-count formula,
    subring membership of every output weight, and a common reduction over
    the two basic structural sets."""
    lines: List[str] = []
    ok = True

    expected = expected_vertex_count(g)
    if reduced.n == expected:
        lines.append(f"vertex count {reduced.n} matches m + sum(len_i - 1)")
    else:
        ok = False
        lines.append(f"vertex count {reduced.n} differs from expected {expected}")

    bad = [(u, v, w) for u, v, w in reduced.edges() if not subring_test(w)]
    if bad:
        ok = False
        for u, v, w in bad:
            lines.append(
                f"weight of {u}->{v} ({format_weight(w)}) left the subring "
                "(merged parallel edges sum weights)"
            )
    else:
        lines.append("all output weights inside the subring")

    from .isoequiv import isomorphic

    rg = reduce(g, basic_structural_set(g))
    rr = reduce(reduced, basic_structural_set(reduced))
    witness = isomorphic(rg, rr)
    if witness is None:
        ok = False
        lines.append("reductions over the basic structural sets differ")
    else:
        lines.append("common reduction over basic structural sets verified")
    return WeightsetReport(ok, lines)
