"""Branch enumeration, reductions, decompositions, expansions, bisection."""

import json
import random
from collections import Counter
from itertools import permutations

import pytest

from isored import (
    FactorizationError,
    RatFun,
    StructuralSetError,
    WeightedDigraph,
    all_branches,
    branch_decomposition,
    branch_product,
    common_decomposition,
    complete_bipartite_graph,
    complete_graph,
    enumerate_branches,
    expand,
    forbidden_set,
    is_g_pi,
    isomorphic,
    loop_bisect,
    parse_weight,
    prune_off_branch,
    reduce,
    reduce_by_paths,
    remove_vertex,
    sequential_reduce,
    spectra_equal_up_to,
    spectrum,
    unique_reduce_to,
    weight_sequence,
)
from isored import proptest
from isored.proptest import random_graph, random_structural_set
from isored.reduction import Branch

from sample_graphs import (
    COMPACT_SET,
    EXPANDED_SET,
    PAIR_BIJECTION,
    branch_pair_compact,
    branch_pair_expanded,
)

ONE = RatFun.one()
L = RatFun.var()


def rf(text):
    return parse_weight(text)


# ----------------------------------------------------------------------
# branch enumeration
# ----------------------------------------------------------------------


def test_triangle_branches_between_kept_vertices():
    g = complete_graph(3)
    bs = enumerate_branches(g, ["v1", "v2"], "v1", "v2")
    assert [b.vertices for b in bs] == [("v1", "v2"), ("v1", "v3", "v2")]


def test_full_set_branches_are_single_edges():
    g = complete_graph(3)
    assert [b.vertices for b in enumerate_branches(g, g.vertices, "v1", "v2")] == [
        ("v1", "v2")
    ]
    g2 = WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    assert enumerate_branches(g2, ["a", "b"], "b", "a") == []


def test_compact_pair_branch_counts():
    g = branch_pair_compact()
    counts = {
        (i, j): len(enumerate_branches(g, COMPACT_SET, i, j))
        for i in COMPACT_SET
        for j in COMPACT_SET
    }
    # the loop on v4 is itself a one-edge cycle branch
    assert counts == {
        ("v1", "v1"): 1,
        ("v1", "v4"): 1,
        ("v4", "v1"): 1,
        ("v4", "v4"): 2,
    }


def test_branch_endpoints_must_be_in_set():
    g = complete_graph(3)
    with pytest.raises(StructuralSetError):
        enumerate_branches(g, ["v1", "v2"], "v1", "v3")


def test_invalid_set_rejected_for_enumeration():
    with pytest.raises(StructuralSetError):
        enumerate_branches(complete_graph(3), ["v1"], "v1", "v1")


# ----------------------------------------------------------------------
# branch products and weight sequences
# ----------------------------------------------------------------------


def test_two_vertex_branch_product_is_edge_weight():
    w = rf("(l+1)/(l-2)")
    g = WeightedDigraph(["a", "b"], [("a", "b", w)])
    assert branch_product(g, Branch(("a", "b"))) == w


def test_unit_branch_through_loopless_interior():
    g = WeightedDigraph(
        ["a", "x", "b"], [("a", "x", ONE), ("x", "b", ONE)]
    )
    assert branch_product(g, Branch(("a", "x", "b"))) == rf("1/l")


def test_loop_branch_and_cycle_sum_to_reduced_loop():
    g = branch_pair_compact()
    branches = enumerate_branches(g, COMPACT_SET, "v4", "v4")
    total = RatFun.zero()
    for b in branches:
        total = total + branch_product(g, b)
    assert total == rf("(l+1)/l")


def test_weight_sequences_of_compact_pair():
    g = branch_pair_compact()
    seqs = {
        (b.source, b.target, weight_sequence(g, b))
        for b in all_branches(g, COMPACT_SET)
    }
    zero = RatFun.zero()
    assert ("v1", "v1", (zero, ONE, ONE, ONE, zero)) in seqs
    assert ("v1", "v4", (zero, ONE, ONE, ONE, ONE)) in seqs
    assert ("v4", "v1", (ONE, ONE, zero, ONE, zero)) in seqs
    assert ("v4", "v4", (ONE, ONE, zero, ONE, ONE)) in seqs
    assert ("v4", "v4", (ONE, ONE, ONE)) in seqs  # the loop itself


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------


def test_reduce_bipartite_over_one_part():
    g = complete_bipartite_graph(2, 3)
    r = reduce(g, ["m1", "m2"])
    w = rf("3/l")
    assert set(r.vertices) == {"m1", "m2"}
    for i in r.vertices:
        for j in r.vertices:
            assert r.weight(i, j) == w


def test_reduce_complete_graph_minus_vertex():
    off = rf("1+1/l")
    diag = rf("1/l")
    for n in (3, 4):
        g = complete_graph(n)
        kept = list(g.vertices[:-1])
        r = reduce(g, kept)
        for i in kept:
            for j in kept:
                assert r.weight(i, j) == (diag if i == j else off)


def test_reduce_over_everything_is_identity():
    g = branch_pair_expanded()
    assert reduce(g, g.vertices) == g


def test_reduce_expanded_pair_weights():
    r = reduce(branch_pair_expanded(), EXPANDED_SET)
    assert r.weight("w2", "w2") == rf("1/(l-1)")
    assert r.weight("w2", "w5") == rf("1/(l-1)")
    assert r.weight("w5", "w2") == rf("1/l")
    assert r.weight("w5", "w5") == rf("(l+1)/l")


def test_reduce_drops_cancelled_edges():
    # two branches a->x->b and a->y->b with opposite products
    g = WeightedDigraph(
        ["a", "x", "y", "b"],
        [
            ("a", "x", ONE),
            ("x", "b", ONE),
            ("a", "y", ONE),
            ("y", "b", RatFun.from_int(-1)),
        ],
    )
    r = reduce(g, ["a", "b"])
    assert not r.has_edge("a", "b")


# ----------------------------------------------------------------------
# remove_vertex and unique reductions
# ----------------------------------------------------------------------


def test_remove_vertex_closed_form_on_cycle():
    g = WeightedDigraph(
        ["v1", "v2", "v3"],
        [("v1", "v2", ONE), ("v2", "v3", ONE), ("v3", "v1", ONE)],
    )
    r = remove_vertex(g, "v3")
    assert r.weight("v1", "v2") == ONE
    assert r.weight("v2", "v1") == rf("1/l")
    assert not r.has_edge("v1", "v1")


def test_remove_isolated_vertex_is_plain_deletion():
    g = WeightedDigraph(["a", "b", "u"], [("a", "b", ONE), ("b", "a", ONE)])
    r = remove_vertex(g, "u")
    assert r == WeightedDigraph(["a", "b"], [("a", "b", ONE), ("b", "a", ONE)])


def test_remove_vertex_matches_reduce():
    g = complete_graph(4)
    assert remove_vertex(g, "v4") == reduce(g, ["v1", "v2", "v3"])


def test_remove_vertex_rejects_variable_loop():
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE), ("b", "b", L)])
    with pytest.raises(StructuralSetError):
        remove_vertex(g, "b")


def test_unique_reduce_to_full_set_is_identity():
    g = complete_graph(4)
    r, n = unique_reduce_to(g, g.vertices)
    assert r == g and len(n) == 0


def test_unique_reduce_complete_graph_to_point():
    g = complete_graph(4)
    r, n = unique_reduce_to(g, ["v1"])
    assert r.vertices == ("v1",)
    # spectrum may only change inside the accumulated exception set
    assert spectra_equal_up_to(spectrum(g), spectrum(r), n, 1e-9).ok


def test_long_cycle_through_one_vertex_needs_no_recursion():
    n = 1200  # one branch longer than the default recursion limit
    labels = [f"v{k}" for k in range(n)]
    g = WeightedDigraph(labels, [(labels[k], labels[(k + 1) % n], ONE) for k in range(n)])
    assert reduce(g, ["v0"]) == WeightedDigraph(["v0"], [("v0", "v0", ONE / L ** (n - 1))])
    (branch,) = all_branches(g, ["v0"])
    assert branch.vertices == tuple(labels) + ("v0",)
    fresh = {v: f"v0~v0~0~{k}" for k, v in enumerate(labels) if k}
    assert expand(g, ["v0"]) == g.relabeled(fresh)


def _built_graphs(monkeypatch, run):
    """``run()`` on a 60-vertex unit cycle, with the number of graphs it
    constructed."""
    n = 60
    labels = [f"v{k}" for k in range(n)]
    g = WeightedDigraph(labels, [(labels[k], labels[(k + 1) % n], ONE) for k in range(n)])
    built = []
    init = WeightedDigraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedDigraph, "__init__", counting_init)
    result = run(g)
    monkeypatch.undo()
    return result, len(built)


def test_reducing_a_long_cycle_builds_a_bounded_number_of_graphs(monkeypatch):
    # the complement is eliminated on weight maps, not by building a graph
    # per removed vertex, which made a long chain quadratic in its length
    r, built = _built_graphs(monkeypatch, lambda g: reduce(g, ["v0"]))
    assert r == WeightedDigraph(["v0"], [("v0", "v0", ONE / L ** 59)])
    assert built <= 2


def test_unique_reduction_of_a_long_cycle_builds_a_bounded_number_of_graphs(monkeypatch):
    # unique_reduce_to runs the same one elimination, not one graph rebuild
    # and one exception set per removed vertex
    (r, n_set), built = _built_graphs(monkeypatch, lambda g: unique_reduce_to(g, ["v0"]))
    assert r == WeightedDigraph(["v0"], [("v0", "v0", ONE / L ** 59)])
    assert n_set.values() == [0]  # every pivot loop is zero
    assert built <= 2


def test_unique_reduce_rejects_bad_degree_gap():
    g = WeightedDigraph(["a", "b"], [("a", "b", rf("l+1")), ("b", "a", ONE)])
    with pytest.raises(ValueError):
        unique_reduce_to(g, ["a"])


def test_unique_reduce_rejects_empty_target():
    with pytest.raises(ValueError):
        unique_reduce_to(complete_graph(3), [])


def test_removal_order_does_not_matter_randomized():
    rng = random.Random(21)
    for _ in range(60):
        g = random_graph(rng, max_n=6, pi_edges=True)
        assert is_g_pi(g)
        removed = list(g.vertices[: rng.randint(1, g.n - 1)])
        results = set()
        for order in (removed, list(reversed(removed))):
            h = g
            for v in order:
                h = remove_vertex(h, v)
            results.add(h)
        assert len(results) == 1


def test_reduce_equals_every_elimination_fold():
    rng = random.Random(22)
    for _ in range(25):
        g = random_graph(rng, max_n=6, pi_edges=True)
        s = random_structural_set(rng, g)
        comp = [v for v in g.vertices if v not in s][:3]
        s_full = [v for v in g.vertices if v in set(s) or v not in set(comp)]
        direct = reduce(g, s_full)
        assert direct == reduce_by_paths(g, s_full)
        for order in permutations(comp):
            h = g
            for v in order:
                h = remove_vertex(h, v)
            assert h == direct


def test_elimination_fold_failures_carry_replay_data(monkeypatch):
    def broken(g, s):
        return WeightedDigraph([v for v in g.vertices if v in set(s)])

    monkeypatch.setattr(proptest, "reduce_by_paths", broken)
    failures = proptest.elimination_fold_suite(cases=5, seed=12).failures
    assert failures
    for line in failures:
        head, _, rest = line.partition(" graph=")
        data, end = json.JSONDecoder().raw_decode(rest)
        assert head.startswith("elimination-folds seed=12 case=")
        assert rest[end:] == ": reduce differs from the branch-product sum"
        g = WeightedDigraph.from_json_dict(data)
        s = head.partition(" set=")[2].split(",")
        assert reduce(g, s) != broken(g, s)


# ----------------------------------------------------------------------
# sequential reductions
# ----------------------------------------------------------------------


def test_single_step_sequence_matches_reduce():
    g = branch_pair_expanded()
    r, n = sequential_reduce(g, [EXPANDED_SET])
    assert r == reduce(g, EXPANDED_SET)
    assert sorted(z.real for z in n.values()) == pytest.approx([0.0, 1.0])


def test_two_step_sequence_accumulates_exceptions():
    g = branch_pair_expanded()
    r, n = sequential_reduce(g, [EXPANDED_SET, ["w2"]])
    assert r.vertices == ("w2",)
    step1 = forbidden_set(g, EXPANDED_SET)
    step2 = forbidden_set(reduce(g, EXPANDED_SET), ["w2"])
    assert len(n) == len(step1.union(step2))
    assert spectra_equal_up_to(spectrum(g), spectrum(r), n, 1e-9).ok


def test_sequence_error_names_failing_step():
    g = complete_graph(3)
    # the complement {v2, v3} still carries a 2-cycle, so step 2 is invalid
    with pytest.raises(StructuralSetError) as err:
        sequential_reduce(g, [g.vertices, ["v1"]])
    assert str(err.value).startswith("step 2")


def test_commuting_sequences_in_degree_gap_class():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, max_n=6, pi_edges=True)
        target = sorted(
            rng.sample(g.vertices, rng.randint(1, g.n)), key=g.index
        )
        a, _ = unique_reduce_to(g, target)
        b, _ = unique_reduce_to(g, list(reversed(target)))
        assert a == b


# ----------------------------------------------------------------------
# decompositions, expansion, bisection, pruning
# ----------------------------------------------------------------------


def test_decomposition_of_compact_pair_lists_all_branches():
    g = branch_pair_compact()
    d = branch_decomposition(g, COMPACT_SET)
    assert len(d) == 5
    zero = RatFun.zero()
    assert Counter((s, t) for s, t, _ in d) == Counter(
        {("v1", "v1"): 1, ("v1", "v4"): 1, ("v4", "v1"): 1, ("v4", "v4"): 2}
    )
    assert ("v1", "v1", (zero, ONE, ONE, ONE, zero)) in d


def test_decomposition_over_full_set_is_edge_list():
    g = branch_pair_compact()
    d = branch_decomposition(g, g.vertices)
    assert len(d) == g.edge_count()
    for s, t, seq in d:
        assert seq == (g.loop(s), g.weight(s, t), g.loop(t)) or s == t


def test_pair_graphs_share_decomposition():
    assert common_decomposition(
        branch_pair_expanded(),
        EXPANDED_SET,
        branch_pair_compact(),
        COMPACT_SET,
        PAIR_BIJECTION,
    )


def test_common_decomposition_reflexive():
    g = branch_pair_expanded()
    assert common_decomposition(g, EXPANDED_SET, g, EXPANDED_SET, {v: v for v in EXPANDED_SET})


def test_common_decomposition_detects_weight_change():
    g = branch_pair_expanded()
    edges = [
        (u, v, w if (u, v) != ("w6", "w5") else w + ONE) for u, v, w in g.edges()
    ]
    h = WeightedDigraph(g.vertices, edges)
    assert not common_decomposition(
        g, EXPANDED_SET, h, EXPANDED_SET, {v: v for v in EXPANDED_SET}
    )


def test_expanding_compact_pair_gives_expanded_pair():
    x = expand(branch_pair_compact(), COMPACT_SET)
    assert isomorphic(x, branch_pair_expanded()) is not None


def test_expansion_of_already_independent_graph_is_isomorphic():
    g = branch_pair_expanded()
    x = expand(g, EXPANDED_SET)
    assert isomorphic(x, g) is not None


def test_expand_then_reduce_matches_direct_reduce():
    rng = random.Random(24)
    for _ in range(30):
        g = random_graph(rng, max_n=6)
        s = random_structural_set(rng, g)
        assert reduce(expand(g, s), s) == reduce(g, s)


def test_bisect_unit_reciprocal_weight():
    g = WeightedDigraph(["a", "b"], [("a", "b", rf("1/l"))])
    h = loop_bisect(g, ("a", "b"), ONE, RatFun.zero(), ONE, new_vertex="m")
    assert h.weight("a", "m") == ONE
    assert h.weight("m", "b") == ONE
    assert not h.has_edge("m", "m")
    assert remove_vertex(h, "m") == g


def test_bisect_then_contract_restores_graph():
    w_in, w_loop, w_out = rf("2"), rf("3"), rf("1/2")
    g = WeightedDigraph(
        ["a", "b", "c"],
        [("a", "b", w_in * w_out / (L - w_loop)), ("b", "c", ONE), ("c", "a", ONE)],
    )
    h = loop_bisect(g, ("a", "b"), w_in, w_loop, w_out)
    assert h.n == 4
    mid = next(v for v in h.vertices if v not in g.vertices)
    assert remove_vertex(h, mid) == g


def test_bisect_spectrum_shift_is_contained():
    w_in, w_loop, w_out = rf("1"), rf("2"), rf("1")
    g = WeightedDigraph(
        ["a", "b"],
        [("a", "b", w_in * w_out / (L - w_loop)), ("b", "a", ONE)],
    )
    h = loop_bisect(g, ("a", "b"), w_in, w_loop, w_out, new_vertex="m")
    n = forbidden_set(h, ["a", "b"])
    assert sorted(z.real for z in n.values()) == pytest.approx([2.0])
    assert spectra_equal_up_to(spectrum(g), spectrum(h), n, 1e-9).ok


def test_bisect_rejects_wrong_factorization():
    g = WeightedDigraph(["a", "b"], [("a", "b", rf("1/l"))])
    with pytest.raises(FactorizationError):
        loop_bisect(g, ("a", "b"), ONE, ONE, ONE)


def test_prune_keeps_fully_branched_graph():
    g = branch_pair_expanded()
    assert prune_off_branch(g, EXPANDED_SET) == g


def test_prune_drops_isolated_looped_vertex():
    g = branch_pair_expanded()
    loop = rf("5")
    extra = WeightedDigraph(
        g.vertices + ("z",), list(g.edges()) + [("z", "z", loop)]
    )
    pruned = prune_off_branch(extra, EXPANDED_SET)
    assert pruned == g
    n = forbidden_set(extra, EXPANDED_SET)
    assert spectra_equal_up_to(spectrum(extra), spectrum(pruned), n, 1e-9).ok


def test_prune_drops_dangling_sink():
    g = branch_pair_expanded()
    extra = WeightedDigraph(
        g.vertices + ("sink",), list(g.edges()) + [("w3", "sink", ONE)]
    )
    pruned = prune_off_branch(extra, EXPANDED_SET)
    assert pruned == g


def test_degree_gap_closure_randomized():
    rng = random.Random(25)
    for _ in range(50):
        g = random_graph(rng, max_n=6, pi_edges=True)
        s = random_structural_set(rng, g)
        assert is_g_pi(reduce(g, s))
