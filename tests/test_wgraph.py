"""Graph container semantics and the import conventions."""

import random

import pytest

from isored import (
    DuplicateEdgeError,
    RatFun,
    WeightedDigraph,
    charpoly_numerators_equal,
    complete_bipartite_graph,
    complete_graph,
    merge_parallel,
    parse_weight,
)

ONE = RatFun.one()


def test_edges_come_in_vertex_index_order_not_insertion_order():
    # JSON output lists the edges in this order
    pairs = [("b", "a"), ("a", "b"), ("c", "b"), ("a", "a"), ("c", "a"), ("b", "c")]
    g = WeightedDigraph(["c", "a", "b"], [(u, v, ONE) for u, v in pairs])
    order = [("c", "a"), ("c", "b"), ("a", "a"), ("a", "b"), ("b", "c"), ("b", "a")]
    assert [(u, v) for u, v, _ in g.edges()] == order
    assert [(e["from"], e["to"]) for e in g.to_json_dict()["edges"]] == order


def test_undirected_triangle_gets_six_arcs():
    g = complete_graph(3)
    assert g.edge_count() == 6
    assert all(not g.has_edge(v, v) for v in g.vertices)
    for u in g.vertices:
        for v in g.vertices:
            if u != v:
                assert g.weight(u, v) == ONE


def test_undirected_weighted_pair_mirrors_weight():
    w = parse_weight("1/l")
    g = WeightedDigraph.from_undirected(["a", "b"], [("a", "b", w)])
    assert g.weight("a", "b") == w
    assert g.weight("b", "a") == w


def test_undirected_bipartite_has_twelve_arcs():
    g = complete_bipartite_graph(2, 3)
    assert g.edge_count() == 12


def test_undirected_duplicate_pair_rejected():
    with pytest.raises(DuplicateEdgeError):
        WeightedDigraph.from_undirected(["a", "b"], [("a", "b"), ("b", "a")])


def test_undirected_self_pair_is_single_loop():
    g = WeightedDigraph.from_undirected(["a"], [("a", "a")])
    assert g.edge_count() == 1
    assert g.loop("a") == ONE


def test_merge_parallel_sums_weights():
    g = merge_parallel(["a", "b"], [("a", "b", ONE), ("a", "b", ONE)])
    assert g.weight("a", "b") == RatFun.from_int(2)


def test_merge_parallel_cancels_to_absent_edge():
    w = parse_weight("1/l")
    g = merge_parallel(["a", "b"], [("a", "b", w), ("a", "b", RatFun.zero() - w)])
    assert g.edge_count() == 0


def test_merge_parallel_keeps_loop():
    w = parse_weight("1/(l-1)")
    g = merge_parallel(["a"], [("a", "a", w)])
    assert g.loop("a") == w


def test_adjacency_matrix_single_loop():
    c = parse_weight("2+1i")
    g = WeightedDigraph(["a"], [("a", "a", c)])
    assert g.adjacency_matrix() == [[c]]


def test_adjacency_matrix_two_cycle():
    g = WeightedDigraph.from_undirected(["a", "b"], [("a", "b")])
    zero = RatFun.zero()
    assert g.adjacency_matrix() == [[zero, ONE], [ONE, zero]]


def test_adjacency_matrix_roundtrip():
    g = complete_bipartite_graph(2, 2)
    mat = g.adjacency_matrix()
    again = WeightedDigraph.from_matrix(g.vertices, mat)
    assert again == g
    assert again.adjacency_matrix() == mat


def test_loopless_strips_only_loops():
    g = WeightedDigraph(
        ["a", "b"], [("a", "a", ONE), ("a", "b", ONE), ("b", "b", ONE)]
    )
    bare = g.loopless()
    assert bare.edge_count() == 1
    assert bare.has_edge("a", "b")


def test_loopless_on_loop_free_graph_is_identity():
    g = complete_graph(3)
    assert g.loopless() == g


def test_transpose_flips_single_edge():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    t = g.transpose()
    assert t.has_edge("b", "a") and not t.has_edge("a", "b")


def test_transpose_fixes_symmetric_graph():
    g = complete_graph(4)
    assert g.transpose() == g


def test_transpose_involution_randomized():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        labels = [f"v{k}" for k in range(n)]
        edges = [
            (u, v, RatFun.from_int(rng.randint(1, 3)))
            for u in labels
            for v in labels
            if rng.random() < 0.4
        ]
        seen = set()
        dedup = []
        for u, v, w in edges:
            if (u, v) not in seen:
                seen.add((u, v))
                dedup.append((u, v, w))
        g = WeightedDigraph(labels, dedup)
        assert g.transpose().transpose() == g
        assert charpoly_numerators_equal(g, g.transpose())


def test_zero_weights_never_stored():
    g = WeightedDigraph(["a", "b"], [("a", "b", RatFun.zero())])
    assert g.edge_count() == 0


def test_json_roundtrip_is_exact():
    w = parse_weight("(l^2+1)/(2*l-3)")
    g = WeightedDigraph(
        ["a", "b", "c"],
        [("a", "b", w), ("b", "b", parse_weight("1/l")), ("c", "a", ONE)],
    )
    assert WeightedDigraph.from_json(g.to_json()) == g


def test_json_undirected_unit_weights():
    text = """
    { "vertices": ["a", "b"],
      "edges": [ {"from": "a", "to": "b"} ],
      "undirected": true, "unit_weights": true }
    """
    g = WeightedDigraph.from_json(text)
    assert g.weight("a", "b") == ONE and g.weight("b", "a") == ONE
