"""Strongly connected components and their commutation with reductions."""

import random
import time

from isored import (
    RatFun,
    WeightedDigraph,
    charpoly_numerators_equal,
    complete_graph,
    reduce,
    reduced_scc_check,
    scc_filter,
    scc_partition,
)
from isored.proptest import random_graph, random_structural_set

from sample_graphs import branch_pair_expanded

ONE = RatFun.one()


def test_strongly_connected_graph_is_one_component():
    g = complete_graph(4)
    part = scc_partition(g)
    assert len(part) == 1
    assert set(part.components[0]) == set(g.vertices)


def test_dag_gives_singletons():
    g = WeightedDigraph(
        ["a", "b", "c"], [("a", "b", ONE), ("b", "c", ONE), ("a", "c", ONE)]
    )
    part = scc_partition(g)
    assert all(len(c) == 1 for c in part)
    assert len(part) == 3


def test_partition_matches_reachability_oracle():
    rng = random.Random(50)
    for _ in range(60):
        g = random_graph(rng, max_n=8)
        part = scc_partition(g)
        reach = {v: {v} | set(g.successors(v)) for v in g.vertices}
        changed = True
        while changed:
            changed = False
            for v in g.vertices:
                extra = set()
                for u in reach[v]:
                    extra |= reach[u]
                if not extra <= reach[v]:
                    reach[v] |= extra
                    changed = True
        for u in g.vertices:
            for v in g.vertices:
                together = v in reach[u] and u in reach[v]
                assert together == part.same_component(u, v)


def test_block_order_is_lower_triangular():
    rng = random.Random(51)
    for _ in range(60):
        g = random_graph(rng, max_n=8)
        part = scc_partition(g)
        rank = {v: k for k, comp in enumerate(part) for v in comp}
        for u, v, _ in g.edges():
            if not part.same_component(u, v):
                # cross edges must point from a later block to an earlier one
                assert rank[u] > rank[v]


def test_filter_keeps_strongly_connected_graph():
    g = complete_graph(3)
    assert scc_filter(g) == g


def test_filter_removes_one_way_edge():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    f = scc_filter(g)
    assert f.edge_count() == 0
    assert set(f.vertices) == {"a", "b"}


def test_filter_keeps_loops():
    g = WeightedDigraph(["a", "b"], [("a", "a", ONE), ("a", "b", ONE)])
    f = scc_filter(g)
    assert f.loop("a") == ONE and not f.has_edge("a", "b")


def test_filter_preserves_spectrum_exactly():
    rng = random.Random(52)
    for _ in range(40):
        g = random_graph(rng)
        assert charpoly_numerators_equal(g, scc_filter(g))


def test_filter_and_reduce_commute_exactly():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng)
        s = random_structural_set(rng, g)
        assert reduce(scc_filter(g), s) == scc_filter(reduce(g, s))


def test_component_blocks_match_componentwise_reductions():
    rng = random.Random(54)
    for _ in range(60):
        g = random_graph(rng)
        s = random_structural_set(rng, g)
        assert reduced_scc_check(g, s).ok


def test_reduction_of_connected_graph_stays_connected():
    g = complete_graph(4)
    r = reduce(g, ["v1", "v2", "v3"])
    assert len(scc_partition(r)) == 1


def test_two_disjoint_cycles_reduce_to_two_loop_components():
    g = WeightedDigraph(
        ["a1", "a2", "b1", "b2"],
        [("a1", "a2", ONE), ("a2", "a1", ONE), ("b1", "b2", ONE), ("b2", "b1", ONE)],
    )
    r = reduce(g, ["a1", "b1"])
    part = scc_partition(r)
    assert sorted(map(sorted, part.as_sets())) == [["a1"], ["b1"]]
    assert r.loop("a1") == r.loop("b1")
    assert not r.has_edge("a1", "b1") and not r.has_edge("b1", "a1")
    assert reduced_scc_check(g, ["a1", "b1"]).ok


def test_check_runs_on_expanded_pair():
    g = branch_pair_expanded()
    assert reduced_scc_check(g, ["w2", "w5"]).ok


def _scan_order(g, comps):
    """The block order by the defining rule, rescanning every step: of the
    components whose every out-neighbour component is placed, place the one
    holding the smallest vertex index."""
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    outs = [set() for _ in comps]
    for u, v, _ in g.edges():
        if comp_of[u] != comp_of[v]:
            outs[comp_of[u]].add(comp_of[v])
    placed, order = set(), []
    while len(order) < len(comps):
        ready = [k for k in range(len(comps)) if k not in placed and outs[k] <= placed]
        k = min(ready, key=lambda k: min(g.index(v) for v in comps[k]))
        placed.add(k)
        order.append(comps[k])
    return order


def test_block_order_follows_the_smallest_ready_index_rule():
    rng = random.Random(61)
    for _ in range(80):
        n, density = rng.randint(1, 12), rng.uniform(0.05, 0.4)
        vs = [f"v{k}" for k in rng.sample(range(100), n)]
        edges = [(u, v, ONE) for u in vs for v in vs if rng.random() < density]
        g = WeightedDigraph(vs, edges)
        got = list(scc_partition(g))
        assert got == _scan_order(g, got)


def test_a_20000_vertex_path_is_ordered_in_linear_time():
    n = 20000
    vs = [f"v{k}" for k in range(n)]
    g = WeightedDigraph(vs, [(vs[k], vs[k + 1], ONE) for k in range(n - 1)])
    start = time.perf_counter()
    part = scc_partition(g)
    assert time.perf_counter() - start < 5.0  # the rescanning order took 2 s at n = 2000
    assert [c[0] for c in part] == vs[::-1]
