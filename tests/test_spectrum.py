"""Characteristic determinants, spectra, and forbidden-set filtering."""

import importlib
import json
import random

import pytest

from isored import (
    RatFun,
    WeightedDigraph,
    char_det,
    char_matrix,
    charpoly_numerators_equal,
    complete_bipartite_graph,
    complete_graph,
    det_leibniz,
    det_ratfun_matrix,
    eig_dense,
    forbidden_set,
    parse_weight,
    reduce,
    compare_outside,
    spectra_agree_outside,
    spectra_equal_up_to,
    spectrum,
)
from isored import proptest
from isored.proptest import random_graph, random_ratfun
from isored.scc import scc_partition
from isored.structural import ForbiddenPoint, ForbiddenSet
from isored.oracles import spectrum_minus
from isored.roots import poly_roots

from sample_graphs import (
    COMPACT_SET,
    EXPANDED_SET,
    branch_pair_compact,
    branch_pair_expanded,
)

ONE = RatFun.one()


def rf(text):
    return parse_weight(text)


def values(sl):
    return [round(z.real, 6) + 1j * round(z.imag, 6) for z in sl.values()]


def test_char_det_single_constant_loop():
    g = WeightedDigraph(["a"], [("a", "a", rf("2+1i"))])
    assert char_det(g) == rf("2+1i-l")


def test_char_det_directed_three_cycle():
    g = WeightedDigraph(
        ["a", "b", "c"], [("a", "b", ONE), ("b", "c", ONE), ("c", "a", ONE)]
    )
    assert char_det(g) == rf("1-l^3")


def test_char_det_of_reduced_bipartite_graph():
    r = reduce(complete_bipartite_graph(2, 3), ["m1", "m2"])
    # 2x2 oracle: (3/l - l)^2 - (3/l)^2
    w = rf("3/l")
    expected = (w - RatFun.var()) * (w - RatFun.var()) - w * w
    assert char_det(r) == expected
    assert expected == rf("l^2-6")


def test_char_det_empty_graph_is_one():
    assert char_det(WeightedDigraph([], [])) == ONE


def test_spectrum_refuses_an_identically_zero_determinant():
    # a lone vertex with loop l: det(M - l*I) = l - l, which every number solves
    g = WeightedDigraph(["a"], [("a", "a", RatFun.var())])
    assert char_det(g).is_zero()
    with pytest.raises(ValueError, match="identically zero"):
        spectrum(g)


def test_char_det_agrees_with_fraction_field_elimination():
    rng = random.Random(40)
    for _ in range(40):
        g = random_graph(rng, max_n=5)
        assert char_det(g) == det_ratfun_matrix(char_matrix(g))


def _unit_cycle(n):
    vs = [f"v{k}" for k in range(n)]
    return WeightedDigraph(vs, [(vs[k], vs[(k + 1) % n], ONE) for k in range(n)])


def _star(n, center_loop=None):
    leaves = [f"x{k}" for k in range(n)]
    edges = [("c", x, rf(str(k + 2))) for k, x in enumerate(leaves)]
    edges += [(x, "c", rf(f"1/(l-{k})")) for k, x in enumerate(leaves)]
    if center_loop is not None:
        edges.append(("c", "c", rf(center_loop)))
    return WeightedDigraph(["c"] + leaves, edges)


def _looped_complete(n, loop):
    vs = [f"v{k}" for k in range(n)]
    edges = [(u, v, rf(f"{i + 2 * j - 3}")) for i, u in enumerate(vs) for j, v in enumerate(vs) if u != v]
    return WeightedDigraph(vs, edges + [(v, v, rf(loop)) for v in vs])


# Graphs for the sparse-first determinant: pivots whose loop is l (skipped,
# then taken once a removal changes it, or left to Bareiss), blocks left
# wholly to Bareiss, and graphs eliminated to nothing.
SPARSE_FIRST_GRAPHS = {
    "loop-l-on-a-path-vertex": WeightedDigraph(
        ["a", "b", "c"],
        [("a", "b", ONE), ("b", "c", rf("2")), ("c", "a", rf("3i")), ("b", "b", rf("l"))],
    ),
    "loop-l-on-an-isolated-vertex": WeightedDigraph(
        ["a", "b"], [("a", "a", rf("l")), ("b", "b", rf("1/(l+1)"))]
    ),
    "every-loop-l": _looped_complete(4, "l"),
    "every-loop-l-on-a-cycle": WeightedDigraph(
        ["a", "b", "c"],
        [("a", "b", ONE), ("b", "c", ONE), ("c", "a", ONE)] + [(v, v, rf("l")) for v in "abc"],
    ),
    "isolated-vertices": WeightedDigraph(["a", "b", "c"], [("b", "b", rf("2-i"))]),
    "star-3": _star(3),
    "star-5-loop-l-center": _star(5, "l"),
    "star-6-rational-center": _star(6, "1/(l^2+1)"),
    "complete-3": complete_graph(3),
    "complete-5": complete_graph(5),
    "complete-4-rational-loops": _looped_complete(4, "(l+1)/(l-2)"),
    **{f"unit-cycle-{n}": _unit_cycle(n) for n in range(3, 26)},
}


@pytest.mark.parametrize("name", sorted(SPARSE_FIRST_GRAPHS))
def test_sparse_first_char_det_equals_the_oracles(name):
    g = SPARSE_FIRST_GRAPHS[name]
    expected = det_ratfun_matrix(char_matrix(g))
    assert char_det(g) == expected
    if g.n <= 6:
        assert det_leibniz(char_matrix(g)) == expected


# the package exports the function ``spectrum``, which shadows the module
spectrum_module = importlib.import_module("isored.spectrum")


def _bareiss_sizes(monkeypatch):
    """Record the size of every block handed to the dense determinant."""
    sizes = []
    dense = spectrum_module._det_poly_bareiss

    def recording(rows):
        sizes.append(len(rows))
        return dense(rows)

    monkeypatch.setattr(spectrum_module, "_det_poly_bareiss", recording)
    return sizes


def test_every_loop_l_goes_wholly_to_bareiss(monkeypatch):
    sizes = _bareiss_sizes(monkeypatch)
    g = SPARSE_FIRST_GRAPHS["every-loop-l"]
    char_det(g)
    assert sizes == [g.n]


def test_a_pivot_that_becomes_cheap_is_taken(monkeypatch):
    sizes = _bareiss_sizes(monkeypatch)
    # the centre costs 6 x 6 at first and nothing once its leaves are gone
    char_det(SPARSE_FIRST_GRAPHS["star-6-rational-center"])
    assert sizes == [0]


def test_unit_cycle_200_is_eliminated_sparse_first(monkeypatch):
    sizes = _bareiss_sizes(monkeypatch)
    n = 200
    # det(P - l*I) for the cyclic permutation P is (-1)^n (l^n - 1)
    assert char_det(_unit_cycle(n)) == rf(f"l^{n}-1")
    assert len(sizes) == 1 and sizes[0] <= 1


def test_det_routes_agree_with_permanent_expansion():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = [
            [
                random_ratfun(rng, 1) if rng.random() < 0.75 else RatFun.zero()
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        expected = det_leibniz(mat)
        assert det_ratfun_matrix(mat) == expected


def test_spectrum_of_expanded_pair():
    assert values(spectrum(branch_pair_expanded())) == [-1, 0, 0, 1, 1, 2]


def test_spectrum_of_compact_pair():
    assert values(spectrum(branch_pair_compact())) == [-1, 0, 1, 2]


def test_spectrum_of_either_reduction():
    r1 = reduce(branch_pair_expanded(), EXPANDED_SET)
    r2 = reduce(branch_pair_compact(), COMPACT_SET)
    assert values(spectrum(r1)) == [-1, 2]
    assert values(spectrum(r2)) == [-1, 2]


def test_spectrum_multiplicity_total_matches_degree():
    g = branch_pair_expanded()
    sl = spectrum(g)
    assert sl.total() == char_det(g).num.degree
    assert all(p.multiplicity >= 1 for p in sl)


def test_spectrum_root_witnesses_are_accurate():
    g = branch_pair_expanded()
    for p in spectrum(g):
        assert abs(p.witness.eval_complex(p.value)) < 1e-10


def test_spectrum_minus_drops_forbidden_values():
    g = branch_pair_expanded()
    n = forbidden_set(g, EXPANDED_SET)
    kept = spectrum_minus(spectrum(g), n)
    assert values(kept) == [-1, 2]


def test_spectrum_minus_empty_set_is_identity():
    g = branch_pair_compact()
    sl = spectrum(g)
    assert values(spectrum_minus(sl, ForbiddenSet.empty())) == values(sl)


def test_spectrum_minus_removes_all_copies():
    from isored.ratfun import Poly

    g = WeightedDigraph(["a", "b"], [])  # two isolated vertices: roots {0, 0}
    sl = spectrum(g)
    assert values(sl) == [0, 0]
    n = ForbiddenSet([ForbiddenPoint(0.0, Poly.var())])
    assert values(spectrum_minus(sl, n)) == []


def test_spectra_comparison_reports_mismatch():
    a = WeightedDigraph(["a"], [("a", "a", rf("2"))])
    b = WeightedDigraph(["a"], [("a", "a", rf("3"))])
    report = spectra_equal_up_to(spectrum(a), spectrum(b), ForbiddenSet.empty(), 1e-9)
    assert not report.ok
    assert report.unmatched_left and report.unmatched_right
    assert not spectra_agree_outside(spectrum(a), spectrum(b), ForbiddenSet.empty())
    cmp = compare_outside(spectrum(a), spectrum(b), ForbiddenSet.empty())
    assert cmp == (False, False, 0, [2], [3])


def test_spectra_comparison_self_identity():
    sl = spectrum(branch_pair_expanded())
    assert spectra_equal_up_to(sl, sl, ForbiddenSet.empty(), 1e-12).ok


def test_preservation_on_the_expanded_pair():
    g = branch_pair_expanded()
    n = forbidden_set(g, EXPANDED_SET)
    assert spectra_equal_up_to(spectrum(g), spectrum(reduce(g, EXPANDED_SET)), n, 1e-9).ok
    sg, sr = spectrum(g), spectrum(reduce(g, EXPANDED_SET))
    assert spectra_agree_outside(sg, sr, n)
    # 0 and 1 are eigenvalues of G but not of the reduction
    assert not spectra_agree_outside(sg, sr, ForbiddenSet.empty())


def test_preservation_suite_failures_carry_replay_data(monkeypatch):
    monkeypatch.setattr(proptest, "spectra_agree_outside", lambda left, right, n: False)
    failures = proptest.spectrum_preservation_suite(cases=4, seed=600).failures
    assert len(failures) == 4
    for k, line in enumerate(failures):
        head, _, rest = line.partition(" graph=")
        data, end = json.JSONDecoder().raw_decode(rest)
        assert head.startswith(f"spectrum-preservation seed=600 case={k} set=")
        assert rest[end:] == ": spectra differ beyond the forbidden set (exact check)"
        g = WeightedDigraph.from_json_dict(data)
        s = head.partition(" set=")[2].split(",")
        assert spectra_agree_outside(spectrum(g), spectrum(reduce(g, s)), forbidden_set(g, s))


def test_block_multiplicativity_of_char_det():
    rng = random.Random(42)
    for _ in range(25):
        g = random_graph(rng, max_n=7)
        product = RatFun.one()
        for comp in scc_partition(g):
            product = product * char_det(g.subgraph(comp))
        assert product == char_det(g)


def test_spectrum_matches_dense_solver_on_constant_graphs():
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng, max_n=8, ratfun_loops=False)
        report = spectra_equal_up_to(
            spectrum(g), eig_dense(g), ForbiddenSet.empty(), 1e-6
        )
        assert report.ok


def test_transpose_has_identical_witnesses():
    g = branch_pair_expanded()
    a = spectrum(g)
    b = spectrum(g.transpose())
    assert [(p.value, p.multiplicity, p.witness.coeffs) for p in a] == [
        (p.value, p.multiplicity, p.witness.coeffs) for p in b
    ]
    assert charpoly_numerators_equal(g, g.transpose())


def test_charpoly_strings_roundtrip():
    g = branch_pair_compact()
    data = spectrum(g).to_json_dict()
    num = parse_weight(data["charpoly_num"])
    den = parse_weight(data["charpoly_den"])
    assert num / den == char_det(g)


def test_poly_roots_multiplicities_exact():
    p = parse_weight("l^3*(l-1)^2*(l+2)").num
    got = sorted((round(z.real, 9), m) for z, m, _ in poly_roots(p))
    assert got == [(-2.0, 1), (0.0, 3), (1.0, 2)]
