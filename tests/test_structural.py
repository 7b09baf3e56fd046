"""Structural-set validity, exception sets, basic sets, degree-gap class."""

import random

import pytest

from isored import (
    EmptyBasicSetError,
    ForbiddenSet,
    RatFun,
    UnknownVertexError,
    WeightedDigraph,
    basic_structural_set,
    check_structural_set,
    complete_bipartite_graph,
    complete_graph,
    forbidden_set,
    is_g_pi,
    is_structural_set,
    parse_weight,
    sequential_reduce,
)
from isored.proptest import random_graph, random_structural_set

from sample_graphs import EXPANDED_SET, branch_pair_expanded, laplacian_triangle

ONE = RatFun.one()


def _values(fs):
    return sorted((round(z.real, 9), round(z.imag, 9)) for z in fs.values())


def test_expanded_pair_set_is_structural():
    assert is_structural_set(branch_pair_expanded(), EXPANDED_SET)


def test_full_vertex_set_is_structural():
    g = complete_graph(4)
    assert is_structural_set(g, g.vertices)


def test_single_vertex_of_triangle_is_not_structural():
    # the two remaining vertices still carry a 2-cycle
    check = check_structural_set(complete_graph(3), ["v1"])
    assert not check.ok
    assert check.cycle is not None


def test_unknown_vertex_raises():
    with pytest.raises(UnknownVertexError):
        is_structural_set(complete_graph(3), ["nope"])


def test_empty_set_rejected():
    assert not check_structural_set(complete_graph(3), []).ok


def test_variable_loop_blocks_structural_set():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE), ("b", "b", RatFun.var())])
    assert not check_structural_set(g, ["a"]).ok
    assert is_structural_set(g, ["a", "b"])


def test_forbidden_set_of_expanded_pair():
    fs = forbidden_set(branch_pair_expanded(), EXPANDED_SET)
    assert _values(fs) == [(0.0, 0.0), (1.0, 0.0)]


def test_forbidden_set_over_everything_is_empty():
    g = branch_pair_expanded()
    assert len(forbidden_set(g, g.vertices)) == 0


def test_forbidden_set_of_reduced_laplacian_input():
    fs = forbidden_set(laplacian_triangle(), ["v1", "v2"])
    assert _values(fs) == [(2.0, 0.0)]


def test_forbidden_set_from_rational_loop():
    # loop 1/(l-1): poles at 1, fixed points where l^2 - l - 1 = 0
    g = WeightedDigraph(
        ["a", "b"], [("a", "b", ONE), ("b", "b", parse_weight("1/(l-1)"))]
    )
    values = sorted(z.real for z in forbidden_set(g, ["a"]).values())
    golden = sorted([1.0, (1 - 5**0.5) / 2, (1 + 5**0.5) / 2])
    assert values == pytest.approx(golden)


def test_forbidden_set_keeps_nearby_distinct_points_apart():
    # loops 1 and 1 + 1e-12 give the exception points 1 and 1 + 1e-12
    near = parse_weight("1000000000001/1000000000000")
    g = WeightedDigraph(
        ["s", "a", "b"],
        [
            ("s", "a", ONE),
            ("a", "s", ONE),
            ("s", "b", ONE),
            ("b", "s", ONE),
            ("a", "a", ONE),
            ("b", "b", near),
        ],
    )
    fs = forbidden_set(g, ["s"])
    assert len(fs) == 2
    assert fs.poly == parse_weight("(l-1)*(l-1000000000001/1000000000000)").num


def test_forbidden_set_counts_shared_roots_once():
    # complement loops 1, 2/l, 1/(l-1) and -l^2+4l-2 give the witnesses
    # l-1; l^2-2 and l; l^2-l-1 and l-1 again; and (l-1)(l-2), which
    # shares the root 1, so N = {0, 1, 2, +-sqrt(2), golden ratios}
    loops = {"a": "1", "b": "2/l", "c": "1/(l-1)", "d": "-l^2+4*l-2"}
    g = WeightedDigraph(
        ["s"] + list(loops),
        [("s", v, ONE) for v in loops]
        + [(v, "s", ONE) for v in loops]
        + [(v, v, parse_weight(w)) for v, w in loops.items()],
    )
    fs = forbidden_set(g, ["s"])
    assert fs.poly == parse_weight("l*(l-1)*(l-2)*(l^2-2)*(l^2-l-1)").num
    assert len(fs) == 7
    two = [p for p in fs if abs(p.value - 2) < 1e-9]
    assert len(two) == 1 and two[0].witness == parse_weight("(l-1)*(l-2)").num
    both = fs.union(fs)
    assert both.poly == fs.poly and both.values() == fs.values()
    # a union re-adds whole witnesses, not the points already trimmed
    # (here (l-1)(l-2) holds only the root 2 once l-1 is in)
    for rebuilt in (ForbiddenSet.empty().union(fs), sequential_reduce(g, [["s"]])[1]):
        assert rebuilt.poly == fs.poly and len(rebuilt) == rebuilt.poly.degree
        assert rebuilt.values() == fs.values()


def test_basic_set_of_bipartite_graph_is_everything():
    g = complete_bipartite_graph(2, 3)
    assert set(basic_structural_set(g)) == set(g.vertices)


def test_basic_set_of_single_loop_vertex():
    g = WeightedDigraph(["a"], [("a", "a", ONE)])
    assert basic_structural_set(g) == ("a",)


def test_basic_set_of_directed_cycle_is_everything():
    labels = ["a", "b", "c", "d"]
    edges = [(labels[k], labels[(k + 1) % 4], ONE) for k in range(4)]
    g = WeightedDigraph(labels, edges)
    assert basic_structural_set(g) == tuple(labels)


def test_basic_set_empty_raises():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    with pytest.raises(EmptyBasicSetError):
        basic_structural_set(g)


def test_degree_gap_class_membership():
    assert is_g_pi(complete_graph(3))
    good = branch_pair_expanded()
    assert is_g_pi(good)
    bad = WeightedDigraph(["a", "b"], [("a", "b", parse_weight("l+1"))])
    assert not is_g_pi(bad)


def test_reduced_weights_stay_in_degree_gap_class():
    from isored import reduce

    r = reduce(branch_pair_expanded(), EXPANDED_SET)
    assert is_g_pi(r)


def test_basic_set_properties_randomized():
    rng = random.Random(31)
    found = 0
    for _ in range(120):
        g = random_graph(rng, max_n=7)
        try:
            bas = basic_structural_set(g)
        except EmptyBasicSetError:
            continue
        found += 1
        assert is_structural_set(g, bas)
        assert all(abs(z) < 1e-9 for z in forbidden_set(g, bas).values())
    assert found > 50


def test_single_vertex_complements_structural_in_degree_gap_class():
    rng = random.Random(32)
    for _ in range(80):
        g = random_graph(rng, max_n=6, pi_edges=True)
        assert is_g_pi(g)
        for v in g.vertices:
            assert is_structural_set(g, [u for u in g.vertices if u != v])


def test_acyclicity_check_matches_reachability_oracle():
    rng = random.Random(33)
    for _ in range(120):
        g = random_graph(rng, max_n=8)
        s = set(random_structural_set(rng, g))
        sub = g.loopless().subgraph([v for v in g.vertices if v not in s])
        reach = {v: set(sub.successors(v)) for v in sub.vertices}
        changed = True
        while changed:
            changed = False
            for v in sub.vertices:
                extra = set()
                for u in reach[v]:
                    extra |= reach[u]
                if not extra <= reach[v]:
                    reach[v] |= extra
                    changed = True
        assert not any(v in reach[v] for v in sub.vertices)
