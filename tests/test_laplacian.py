"""Laplacian graph constructions and their reductions."""

import random

import pytest

from isored import (
    NotSimpleError,
    RatFun,
    WeightedDigraph,
    combinatorial_laplacian_graph,
    complete_graph,
    forbidden_set,
    generalized_laplacian_graph,
    is_structural_set,
    normalized_laplacian_graph,
    parse_weight,
    reduce,
    spectra_equal_up_to,
    spectrum,
)
from isored.structural import ForbiddenSet

from sample_graphs import laplacian_triangle

ONE = RatFun.one()


def rf(text):
    return parse_weight(text)


def values(sl):
    return [round(z.real, 8) + 1j * round(z.imag, 8) for z in sl.values()]


def _random_simple(rng, max_n=8):
    n = rng.randint(2, max_n)
    labels = [f"v{k}" for k in range(n)]
    pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return WeightedDigraph.from_undirected(labels, pairs)


def test_triangle_laplacian_entries():
    g = laplacian_triangle()
    for v in g.vertices:
        assert g.loop(v) == RatFun.from_int(2)
    for u in g.vertices:
        for v in g.vertices:
            if u != v:
                assert g.weight(u, v) == RatFun.from_int(-1)


def test_edgeless_graph_gives_edgeless_laplacian():
    g = WeightedDigraph(["a", "b"], [])
    assert combinatorial_laplacian_graph(g).edge_count() == 0


def test_single_edge_laplacian():
    g = WeightedDigraph.from_undirected(["a", "b"], [("a", "b")])
    lg = combinatorial_laplacian_graph(g)
    assert lg.loop("a") == ONE and lg.loop("b") == ONE
    assert lg.weight("a", "b") == RatFun.from_int(-1)


def test_rejects_directed_input():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    with pytest.raises(NotSimpleError):
        combinatorial_laplacian_graph(g)


def test_rejects_weighted_input():
    g = WeightedDigraph.from_undirected(["a", "b"], [("a", "b", rf("2"))])
    with pytest.raises(NotSimpleError):
        combinatorial_laplacian_graph(g)


def test_normalized_two_vertex_spectrum():
    g = WeightedDigraph.from_undirected(["a", "b"], [("a", "b")])
    lg = normalized_laplacian_graph(g)
    assert lg.loop("a") == ONE
    assert lg.weight("a", "b") == RatFun.from_int(-1)
    assert values(spectrum(lg)) == [0, 2]


def test_normalized_modes_agree_on_regular_graphs():
    g = complete_graph(4)  # 3-regular
    exact = normalized_laplacian_graph(g, mode="exact-similar")
    numeric = normalized_laplacian_graph(g, mode="numeric")
    for u in g.vertices:
        for v in g.vertices:
            if u == v:
                continue
            a = exact.weight(u, v)
            b = numeric.weight(u, v)
            if a.is_zero():
                assert b.is_zero()
            else:
                av = a.constant_value().to_complex()
                bv = b.constant_value().to_complex()
                assert abs(av - bv) < 1e-12


def test_normalized_isolated_vertex_has_no_loop():
    g = WeightedDigraph.from_undirected(["a", "b", "c"], [("a", "b")])
    lg = normalized_laplacian_graph(g)
    assert lg.loop("c").is_zero()


def test_normalized_modes_are_isospectral_randomized():
    rng = random.Random(60)
    for _ in range(25):
        g = _random_simple(rng, max_n=7)
        exact = normalized_laplacian_graph(g, mode="exact-similar")
        numeric = normalized_laplacian_graph(g, mode="numeric")
        report = spectra_equal_up_to(
            spectrum(exact), spectrum(numeric), ForbiddenSet.empty(), 1e-8
        )
        assert report.ok


def test_generalized_matches_combinatorial_on_simple_graphs():
    rng = random.Random(61)
    for _ in range(20):
        g = _random_simple(rng, max_n=6)
        assert generalized_laplacian_graph(g) == combinatorial_laplacian_graph(g)


def test_generalized_on_weighted_two_cycle():
    a, b = rf("1/l"), rf("3")
    g = WeightedDigraph(["x", "y"], [("x", "y", a), ("y", "x", b)])
    lg = generalized_laplacian_graph(g)
    assert lg.loop("x") == a and lg.loop("y") == b
    assert lg.weight("x", "y") == RatFun.zero() - a
    assert lg.weight("y", "x") == RatFun.zero() - b


def test_generalized_row_sums_vanish():
    rng = random.Random(62)
    for _ in range(20):
        g = _random_simple(rng, max_n=6)
        lg = generalized_laplacian_graph(g)
        for v in lg.vertices:
            total = RatFun.zero()
            for u in lg.successors(v):
                total = total + lg.weight(v, u)
            assert total.is_zero()


def test_generalized_rejects_loops():
    g = WeightedDigraph(["a"], [("a", "a", ONE)])
    with pytest.raises(Exception):
        generalized_laplacian_graph(g)


def test_triangle_laplacian_reduction_values():
    lg = laplacian_triangle()
    r = reduce(lg, ["v1", "v2"])
    assert r.loop("v1") == rf("(2*l-3)/(l-2)")
    assert r.loop("v2") == rf("(2*l-3)/(l-2)")
    assert r.weight("v1", "v2") == rf("-(l-3)/(l-2)")
    assert r.weight("v2", "v1") == rf("-(l-3)/(l-2)")
    n = forbidden_set(lg, ["v1", "v2"])
    assert [round(z.real, 9) for z in n.values()] == [2.0]
    # 2 is not an eigenvalue, so the spectrum survives exactly
    assert values(spectrum(r)) == values(spectrum(lg)) == [0, 3, 3]


def test_independent_complement_gives_structural_set_randomized():
    rng = random.Random(63)
    for _ in range(30):
        g = _random_simple(rng, max_n=7)
        # grow an independent set in the underlying simple graph
        complement = []
        for v in g.vertices:
            if all(not g.has_edge(v, u) for u in complement):
                if rng.random() < 0.5:
                    complement.append(v)
        s = [v for v in g.vertices if v not in complement]
        if not s:
            continue
        for build in (
            combinatorial_laplacian_graph,
            lambda gg: normalized_laplacian_graph(gg, "exact-similar"),
        ):
            lg = build(g)
            assert is_structural_set(lg, s)
            n = forbidden_set(lg, s)
            report = spectra_equal_up_to(
                spectrum(lg), spectrum(reduce(lg, s)), n, 1e-6
            )
            assert report.ok
