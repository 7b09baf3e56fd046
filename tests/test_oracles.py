"""The brute-force oracles and their agreement with the real code paths."""

import random
from itertools import permutations

import pytest

from isored import (
    RatFun,
    WeightedDigraph,
    all_paths,
    char_det,
    char_matrix,
    complete_graph,
    det_leibniz,
    det_ratfun_matrix,
    eig_dense,
    enumerate_branches,
    parse_weight,
    spectra_equal_up_to,
    spectrum,
)
from isored.proptest import random_graph, random_ratfun, random_structural_set
from isored.spectrum import SpectralList, SpectralPoint
from isored.structural import ForbiddenSet, forbidden_set

from sample_graphs import branch_pair_expanded

ONE = RatFun.one()
ZERO = RatFun.zero()


def test_leibniz_identity_matrix():
    eye = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert det_leibniz(eye) == ONE


def test_leibniz_three_cycle_char_matrix():
    g = WeightedDigraph(
        ["a", "b", "c"], [("a", "b", ONE), ("b", "c", ONE), ("c", "a", ONE)]
    )
    assert det_leibniz(char_matrix(g)) == parse_weight("1-l^3")


def test_leibniz_size_guard():
    eye = [[ONE if i == j else ZERO for j in range(7)] for i in range(7)]
    with pytest.raises(ValueError):
        det_leibniz(eye)


def test_leibniz_agrees_with_elimination_sweep():
    rng = random.Random(90)
    for _ in range(120):
        n = rng.randint(1, 4)
        mat = [
            [
                random_ratfun(rng, 1) if rng.random() < 0.7 else ZERO
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert det_leibniz(mat) == det_ratfun_matrix(mat)


def test_char_det_agrees_with_leibniz_on_graphs():
    rng = random.Random(91)
    for _ in range(60):
        g = random_graph(rng, max_n=6)
        assert char_det(g) == det_leibniz(char_matrix(g))


def test_all_paths_on_triangle():
    g = complete_graph(3)
    paths = all_paths(g, "v1", "v2", ["v1", "v2"])
    assert sorted(paths) == [("v1", "v2"), ("v1", "v3", "v2")]


def test_all_paths_size_guard():
    labels = [f"v{k}" for k in range(11)]
    g = WeightedDigraph(labels, [])
    with pytest.raises(ValueError):
        all_paths(g, "v0", "v1", [])


def test_branch_enumeration_matches_path_oracle():
    rng = random.Random(92)
    for _ in range(60):
        g = random_graph(rng, max_n=7)
        s = random_structural_set(rng, g)
        banned = list(s)
        for src in s:
            for dst in s:
                mine = sorted(
                    b.vertices for b in enumerate_branches(g, s, src, dst)
                )
                assert mine == sorted(all_paths(g, src, dst, banned))


def test_dense_solver_on_expanded_pair():
    sl = eig_dense(branch_pair_expanded())
    assert [round(z.real, 6) for z in sl.values()] == [-1, 0, 0, 1, 1, 2]


def test_dense_solver_on_complete_graph():
    sl = eig_dense(complete_graph(4))
    assert [round(z.real, 6) for z in sl.values()] == [-1, -1, -1, 3]
    # cross-check against the exact characteristic polynomial route
    assert spectra_equal_up_to(
        spectrum(complete_graph(4)), sl, ForbiddenSet.empty(), 1e-6
    ).ok
    # a float list carries no charpoly to strip an exception set from
    with pytest.raises(ValueError):
        n = forbidden_set(complete_graph(4), ["v1", "v2", "v3"])
        spectra_equal_up_to(spectrum(complete_graph(4)), sl, n, 1e-6)


def test_dense_solver_on_zero_matrix():
    g = WeightedDigraph(["a", "b", "c"], [])
    assert [z for z in eig_dense(g).values()] == [0, 0, 0]


def test_dense_solver_rejects_function_weights():
    g = WeightedDigraph(["a"], [("a", "a", parse_weight("1/l"))])
    with pytest.raises(ValueError):
        eig_dense(g)


def test_dense_solver_matches_exact_spectrum_randomized():
    rng = random.Random(93)
    for _ in range(50):
        g = random_graph(rng, max_n=8, ratfun_loops=False)
        assert spectra_equal_up_to(
            spectrum(g), eig_dense(g), ForbiddenSet.empty(), 1e-6
        ).ok


def float_spectrum(values):
    """A float root list, one point per value, as ``eig_dense`` gives one."""
    return SpectralList([SpectralPoint(z, 1, None) for z in values])


def test_matching_pairs_a_near_tie_that_nearest_first_strands():
    # nearest-first gives 0.45 to 0, which leaves 1 with only -0.6, 1.6 away;
    # within 0.7 the pairs 0 ~ -0.6 and 1 ~ 0.45 take every root
    report = spectra_equal_up_to(
        float_spectrum([0, 1]), float_spectrum([0.45, -0.6]), ForbiddenSet.empty(), 0.7
    )
    assert report.ok
    assert sorted(report.pairs, key=lambda p: p[0].real) == [(0, -0.6), (1, 0.45)]
    assert report.unmatched_left == [] and report.unmatched_right == []


def test_matching_reports_a_three_against_two_mismatch_in_input_order():
    report = spectra_equal_up_to(
        float_spectrum([0, 3, 5]), float_spectrum([0, 7]), ForbiddenSet.empty(), 1e-9
    )
    assert not report.ok
    assert report.pairs == [(0, 0)]
    assert report.unmatched_left == [3, 5]
    assert report.unmatched_right == [7]
    assert report.lines() == [
        "spectra differ (1 paired roots)",
        "  only left:  3+0j",
        "  only left:  5+0j",
        "  only right: 7+0j",
    ]


def test_matching_is_ok_exactly_when_some_pairing_is_within_tolerance():
    rng = random.Random(1303)
    for _ in range(300):
        n = rng.randint(0, 5)
        left = [complex(rng.randint(-3, 3), rng.randint(-1, 1)) / 2 for _ in range(n)]
        right = [z + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for z in left]
        rng.shuffle(right)
        tol = rng.choice([0.3, 0.8, 1.2])
        report = spectra_equal_up_to(
            float_spectrum(left), float_spectrum(right), ForbiddenSet.empty(), tol
        )
        lv, rv = float_spectrum(left).values(), float_spectrum(right).values()
        exists = any(all(abs(z - rv[j]) <= tol for z, j in zip(lv, p)) for p in permutations(range(n)))
        assert report.ok == exists
        assert len(report.pairs) + len(report.unmatched_left) == n
        assert all(abs(z - w) <= tol for z, w in report.pairs)
