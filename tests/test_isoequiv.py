"""Isomorphism search and the reduction-induced equivalence relations."""

import random

import pytest

from isored import (
    RatFun,
    WeightedDigraph,
    bas_equivalent,
    common_reduction,
    complete_graph,
    isomorphic,
    parse_weight,
    reduce,
    tau_equivalent,
    tau_min_outdegree_reduce,
)
from isored.proptest import random_graph

from sample_graphs import (
    COMPACT_SET,
    EXPANDED_SET,
    branch_pair_compact,
    branch_pair_expanded,
    diamond_with_pendant_cycles,
)
from isored import weightset_reduce
from isored.weightset import subring_integers

ONE = RatFun.one()


def test_identity_isomorphism():
    g = branch_pair_expanded()
    witness = isomorphic(g, g)
    assert witness is not None
    for u, v, w in g.edges():
        assert g.weight(witness[u], witness[v]) == w


def test_reductions_of_pair_graphs_are_isomorphic():
    r1 = reduce(branch_pair_expanded(), EXPANDED_SET)
    r2 = reduce(branch_pair_compact(), COMPACT_SET)
    witness = isomorphic(r1, r2)
    assert witness == {"w2": "v1", "w5": "v4"}


def test_weight_change_breaks_isomorphism():
    g = complete_graph(3)
    edges = [
        (u, v, w if (u, v) != ("v1", "v2") else RatFun.from_int(2))
        for u, v, w in g.edges()
    ]
    h = WeightedDigraph(g.vertices, edges)
    assert isomorphic(g, h) is None


def test_witness_conjugates_adjacency_randomized():
    rng = random.Random(80)
    for _ in range(40):
        g = random_graph(rng, max_n=7)
        relabel = {v: f"z{k}" for k, v in enumerate(rng.sample(g.vertices, g.n))}
        h = g.relabeled(relabel)
        witness = isomorphic(g, h)
        assert witness is not None
        for u in g.vertices:
            for v in g.vertices:
                assert g.weight(u, v) == h.weight(witness[u], witness[v])


def _unit_cycle_copies(n):
    """The unit n-cycle v_k -> v_(k+1), its copy relabelled v_k -> u_(7k mod n)
    with the vertices listed in reverse, and its copy with every edge reversed."""
    cycle = WeightedDigraph(
        [f"v{k}" for k in range(n)], [(f"v{k}", f"v{(k + 1) % n}", ONE) for k in range(n)]
    )
    relabelled = WeightedDigraph(
        [f"u{k}" for k in reversed(range(n))],
        [(f"u{7 * k % n}", f"u{7 * (k + 1) % n}", ONE) for k in range(n)],
    )
    reversed_edges = WeightedDigraph(cycle.vertices, [(v, u, w) for u, v, w in cycle.edges()])
    return cycle, {"relabelled": relabelled, "edge-reversed": reversed_edges}


@pytest.mark.parametrize("copy", ["relabelled", "edge-reversed"])
def test_isomorphism_search_checks_only_neighbours(monkeypatch, copy):
    # every vertex of a unit cycle has the same signature, so the search
    # tries about n/2 candidates per vertex; checking each against the whole
    # assignment made that cubic (millions of weight lookups at n = 200)
    n = 200
    cycle, copies = _unit_cycle_copies(n)
    h = copies[copy]
    calls = [0]
    weight = WeightedDigraph.weight

    def counted(self, u, v):
        calls[0] += 1
        return weight(self, u, v)

    monkeypatch.setattr(WeightedDigraph, "weight", counted)
    witness = isomorphic(cycle, h)
    assert calls[0] <= 5 * n * n, calls[0]
    monkeypatch.undo()
    assert witness is not None
    assert all(h.has_edge(witness[u], witness[v]) for u, v, _ in cycle.edges())


def test_common_reduction_of_pair_graphs():
    assert common_reduction(
        branch_pair_expanded(), EXPANDED_SET, branch_pair_compact(), COMPACT_SET
    )


def test_common_reduction_with_self():
    g = branch_pair_expanded()
    assert common_reduction(g, EXPANDED_SET, g, EXPANDED_SET)


def test_different_sizes_have_no_common_reduction():
    g3, g4 = complete_graph(3), complete_graph(4)
    assert not common_reduction(
        g3, list(g3.vertices[:-1]), g4, list(g4.vertices[:-1])
    )


def test_bas_equivalence_reflexive():
    g = diamond_with_pendant_cycles()
    assert bas_equivalent(g, g)


def test_bas_equivalence_of_subring_reduction():
    g = diamond_with_pendant_cycles()
    h = weightset_reduce(g, subring_integers)
    assert bas_equivalent(g, h)


def test_bas_equivalence_relation_axioms_randomized():
    rng = random.Random(81)
    graphs = []
    while len(graphs) < 12:
        g = random_graph(rng, max_n=6, ratfun_loops=False)
        try:
            from isored import basic_structural_set

            basic_structural_set(g)
        except Exception:
            continue
        graphs.append(g)
    for a in graphs[:6]:
        assert bas_equivalent(a, a)
    for a in graphs[:6]:
        for b in graphs[:6]:
            assert bas_equivalent(a, b) == bas_equivalent(b, a)
    # transitivity on whatever equivalent pairs the sample contains
    for a in graphs:
        for b in graphs:
            for c in graphs:
                if bas_equivalent(a, b) and bas_equivalent(b, c):
                    assert bas_equivalent(a, c)


def test_out_regular_graph_is_fixed_point():
    g = complete_graph(3)
    assert tau_min_outdegree_reduce(g) == g


def test_star_collapses_to_center():
    center_out = [("hub", f"leaf{k}", ONE) for k in range(3)]
    g = WeightedDigraph(["hub", "leaf0", "leaf1", "leaf2"], center_out)
    r = tau_min_outdegree_reduce(g)
    assert r.vertices == ("hub",)
    assert r.edge_count() == 0


def test_rule_rejects_bad_degree_gap():
    g = WeightedDigraph(["a", "b"], [("a", "b", parse_weight("l^2")), ("b", "a", ONE)])
    with pytest.raises(ValueError):
        tau_min_outdegree_reduce(g)


def test_rule_induces_equivalence_randomized():
    rng = random.Random(82)
    graphs = [random_graph(rng, max_n=5, ratfun_loops=False) for _ in range(8)]
    for a in graphs:
        assert tau_equivalent(a, a)
    for a in graphs[:4]:
        relabel = {v: f"q{k}" for k, v in enumerate(a.vertices)}
        assert tau_equivalent(a, a.relabeled(relabel))
    for a in graphs:
        for b in graphs:
            assert tau_equivalent(a, b) == tau_equivalent(b, a)
