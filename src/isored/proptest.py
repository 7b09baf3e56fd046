"""Seeded randomized invariant suites.

Each suite function draws its own cases from a ``random.Random`` seeded by
the caller, checks one family of invariants, and returns a ``SuiteResult``
with a failure message per broken case.  The command-line ``proptest``
subcommand runs every suite; the test suite runs them with the case
counts pinned by the acceptance criteria.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import permutations
from typing import Callable, Dict, List

from .isoequiv import isomorphic
from .oracles import (
    all_paths,
    det_leibniz,
    det_ratfun_matrix,
    eig_dense,
    poly_divmod,
    poly_gcd_euclid,
    reduce_by_paths,
    spectra_equal_up_to,
)
from .ratfun import (
    GaussianRational,
    Poly,
    RatFun,
    format_weight,
    parse_weight,
    poly_gcd,
    poly_to_string,
    squarefree_decompose,
)
from .reduction import (
    all_branches,
    branch_decomposition,
    common_decomposition,
    enumerate_branches,
    expand,
    loop_bisect,
    prune_off_branch,
    reduce,
    remove_vertex,
    sequential_reduce,
    unique_reduce_to,
)
from .scc import reduced_scc_check, scc_filter, scc_partition
from .spectrum import (
    char_det,
    char_matrix,
    charpoly_numerators_equal,
    spectra_agree_outside,
    spectrum,
)
from .structural import (
    ForbiddenSet,
    basic_structural_set,
    check_structural_set,
    forbidden_set,
    is_g_pi,
    is_structural_set,
)
from .wgraph import WeightedDigraph


class SuiteResult:
    __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int, failures: List[str]):
        self.name = name
        self.cases = cases
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.ok

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} FAILED"
        return f"{self.name}: {self.cases} cases, {state}"


# ----------------------------------------------------------------------
# Random generators
# ----------------------------------------------------------------------


def random_constant(rng: random.Random, lo: int = -3, hi: int = 3) -> RatFun:
    while True:
        k = rng.randint(lo, hi)
        if k:
            return RatFun.from_int(k)


def random_pi_weight(rng: random.Random) -> RatFun:
    """A weight with nonpositive degree gap: constant, c/(l-d), or
    (a*l+b)/(l^2+c*l+d)-style."""
    lam = RatFun.var()
    kind = rng.random()
    if kind < 0.5:
        return random_constant(rng)
    if kind < 0.85:
        c = random_constant(rng)
        d = RatFun.from_int(rng.randint(-2, 2))
        return c / (lam - d)
    a = RatFun.from_int(rng.randint(-2, 2))
    b = random_constant(rng)
    c = RatFun.from_int(rng.randint(-2, 2))
    return (a * lam + b) / (lam * lam - c)


def random_poly(rng: random.Random, max_deg: int = 3) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly(GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(deg + 1))


def random_monomial(rng: random.Random, max_deg: int = 6) -> RatFun:
    """c * l^k with k <= ``max_deg`` and a nonzero Gaussian-rational c."""
    while True:
        c = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else 0,
        )
        if c:
            return RatFun(Poly([GaussianRational()] * rng.randint(0, max_deg) + [c]))


def random_ratfun(rng: random.Random, max_deg: int = 3) -> RatFun:
    num = random_poly(rng, max_deg)
    while True:
        den = random_poly(rng, max_deg)
        if not den.is_zero():
            return RatFun(num, den)


def random_related_pair(rng: random.Random):
    """Two canonical weights whose denominators share factors.

    Both denominators are products of powers 0-2 of the same three monic
    linear factors, so a shared factor comes at equal or unequal
    multiplicities; numerators are random polynomials times some of those
    factors.  Half the time the second weight is ``c - a`` for a third such
    weight ``c`` (built by the constructor), so ``a + b = c`` cancels a
    factor of gcd(den a, den b) against the numerator of the sum.
    """
    factors = [
        Poly([GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)), GaussianRational(1)])
        for _ in range(3)
    ]

    def draw() -> RatFun:
        num, den = random_poly(rng, 1), Poly.one()
        for f in factors:
            den = den * f ** rng.randint(0, 2)
            if rng.random() < 0.3:
                num = num * f
        return RatFun(num, den)

    a, b = draw(), draw()
    if rng.random() < 0.5:
        b = RatFun(b.num * a.den - a.num * b.den, b.den * a.den)
    return a, b


_CONTENTS = (
    GaussianRational(1),
    GaussianRational(2, 1),
    GaussianRational(Fraction(3, 2)),
    GaussianRational(Fraction(-2, 7), Fraction(1, 3)),
)


def random_gcd_pair(rng: random.Random):
    """``(a, b, common)``: two polynomials that share the planted factor
    ``common``, for checking a gcd.

    ``common`` is a product of one or two random factors at multiplicities
    1-3.  Each operand multiplies it by its own cofactor and by a content
    (1+i)^k * c with k in 0-3 and c one of 1, 2+i, 3/2, -2/7+i/3.  Factor
    coefficients are Gaussian rationals with denominators up to 3, so the
    operands are not monic.  One pair in eight has a zero or a constant
    in place of ``a``, and then, two times in three, of ``b`` too.
    """

    def coeff() -> GaussianRational:
        return GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.5 else 0,
        )

    def factor(deg: int) -> Poly:
        lead = coeff()
        while not lead:
            lead = coeff()
        return Poly([coeff() for _ in range(deg)] + [lead])

    def content() -> GaussianRational:
        c = rng.choice(_CONTENTS)
        for _ in range(rng.randint(0, 3)):
            c = c * GaussianRational(1, 1)
        return c

    common = Poly.one()
    for _ in range(rng.randint(1, 2)):
        common = common * factor(rng.randint(1, 2)) ** rng.randint(1, 3)
    a, b = (common * factor(rng.randint(0, 3)) for _ in range(2))
    a, b = a.scale(content()), b.scale(content())
    if rng.random() < 0.125:
        specials = (Poly.zero(), Poly.const(content()))
        a, b = rng.choice(specials), rng.choice((b,) + specials)
    return a, b, common


def cross_product_mismatches(a: RatFun, b: RatFun) -> List[str]:
    """Those of a+b, a-b, a*b and a/b whose num/den differs from the
    full-gcd constructor applied to the unreduced cross products."""
    checks = [
        ("a+b", a + b, RatFun(a.num * b.den + b.num * a.den, a.den * b.den)),
        ("a-b", a - b, RatFun(a.num * b.den - b.num * a.den, a.den * b.den)),
        ("a*b", a * b, RatFun(a.num * b.num, a.den * b.den)),
    ]
    if b:
        checks.append(("a/b", a / b, RatFun(a.num * b.den, a.den * b.num)))
    return [label for label, got, want in checks if got.num != want.num or got.den != want.den]


def random_graph(
    rng: random.Random,
    max_n: int = 8,
    min_n: int = 2,
    ratfun_loops: bool = True,
    pi_edges: bool = False,
) -> WeightedDigraph:
    """Random digraph with small integer weights and, optionally, loops
    (or all edges) drawn from the nonpositive-degree-gap weights."""
    n = rng.randint(min_n, max_n)
    labels = [f"v{k + 1}" for k in range(n)]
    p = min(0.9, 2.4 / n + rng.random() * 0.2)
    edges = []
    for u in labels:
        for v in labels:
            if u == v:
                continue
            if rng.random() < p:
                w = random_pi_weight(rng) if pi_edges and rng.random() < 0.4 else random_constant(rng)
                edges.append((u, v, w))
    for v in labels:
        if rng.random() < 0.3:
            if ratfun_loops and rng.random() < 0.5:
                w = random_pi_weight(rng)
            else:
                w = random_constant(rng)
            edges.append((v, v, w))
    return WeightedDigraph(labels, edges)


def random_structural_set(rng: random.Random, g: WeightedDigraph) -> List[str]:
    """A random structural set, grown from a random subset by absorbing a
    vertex of each offending complement cycle."""
    s = {v for v in g.vertices if rng.random() < 0.55}
    if not s:
        s.add(rng.choice(g.vertices))
    lam = RatFun.var()
    for v in g.vertices:
        if g.loop(v) == lam:
            s.add(v)
    while True:
        check = check_structural_set(g, s)
        if check.ok:
            break
        if check.cycle:
            s.add(rng.choice(check.cycle))
        else:  # pragma: no cover - loops were absorbed above
            raise AssertionError(check.reason)
    return [v for v in g.vertices if v in s]


def _replay_tag(suite: str, seed: int, k: int, g: WeightedDigraph, *sets) -> str:
    """Everything needed to replay one case alone: suite, seed, case, the
    vertex set (successive sets of a sequence joined by ';') and the graph
    as one-line JSON."""
    steps = ";".join(",".join(s) for s in sets)
    return f"{suite} seed={seed} case={k} set={steps} graph={g.to_json(indent=None)}"


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------


def field_axiom_suite(cases: int = 300, seed: int = 0) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    one = RatFun.one()
    for k in range(cases):
        a, b, c = (random_ratfun(rng, 2) for _ in range(3))
        checks = [
            ((a + b) + c == a + (b + c), "additive associativity"),
            (a + b == b + a, "additive commutativity"),
            ((a * b) * c == a * (b * c), "multiplicative associativity"),
            (a * b == b * a, "multiplicative commutativity"),
            (a * (b + c) == a * b + a * c, "distributivity"),
            (a + (RatFun.zero() - a) == RatFun.zero(), "additive inverse"),
        ]
        if not a.is_zero():
            checks.append((a * (one / a) == one, "multiplicative inverse"))
        tag = f"field-axioms seed={seed} case={k}"
        for okay, label in checks:
            if not okay:
                failures.append(
                    f"{tag}: {label} failed, "
                    f"a={format_weight(a)} b={format_weight(b)} c={format_weight(c)}"
                )
        # canonical form is unique, so rebuilding from scaled parts is stable
        scale = random_poly(rng, 1)
        if not scale.is_zero() and not a.is_zero():
            if RatFun(a.num * scale, a.den * scale) != a:
                failures.append(
                    f"{tag}: canonicalization not idempotent, "
                    f"a={format_weight(a)} scale={poly_to_string(scale)}"
                )
        # operands with shared denominator factors, drawn from their own
        # stream so the cases above stay as they were
        u, v = random_related_pair(random.Random(f"field-axioms/{seed}/{k}"))
        for label in cross_product_mismatches(u, v):
            failures.append(
                f"{tag}: {label} differs from the full-gcd constructor, "
                f"a={format_weight(u)} b={format_weight(v)}"
            )
    return SuiteResult("field-axioms", cases, failures)


def pi_rule_suite(cases: int = 300, seed: int = 1) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    lam = RatFun.var()
    for k in range(cases):
        a, b = random_ratfun(rng, 2), random_ratfun(rng, 2)
        tag = f"pi-rules seed={seed} case={k}"
        weights = f"a={format_weight(a)} b={format_weight(b)}"
        if (a + b) and a and b:
            if (a + b).pi() > max(a.pi(), b.pi()):
                failures.append(f"{tag}: pi(a+b) exceeded max, {weights}")
        if a and b:
            if (a * b).pi() != a.pi() + b.pi():
                failures.append(f"{tag}: pi(ab) not additive, {weights}")
            c = RatFun.from_int(rng.randint(-3, 3))
            if (a * b / (lam - c)).pi() >= a.pi() + b.pi():
                failures.append(f"{tag}: pi(ab/(l-c)) not reduced, {weights} c={format_weight(c)}")
    return SuiteResult("pi-rules", cases, failures)


def parse_format_suite(cases: int = 300, seed: int = 2) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        # a single-term weight from its own stream, so the cases of rng stay
        # as they were
        for r in (random_ratfun(rng, 3), random_monomial(random.Random(f"parse-format/{seed}/{k}"))):
            if r and parse_weight(format_weight(r)) != r:
                failures.append(f"parse-format seed={seed} case={k}: round-trip failed on {format_weight(r)}")
    return SuiteResult("parse-format", cases, failures)


def squarefree_suite(cases: int = 200, seed: int = 3) -> SuiteResult:
    rng = random.Random(seed)
    failures = []

    def check_gcd(tag: str, p: Poly) -> None:
        dp = p.derivative()
        if poly_gcd(p, dp) != poly_gcd_euclid(p, dp):
            failures.append(f"{tag}: gcd(p, p') differs from the Euclidean gcd, p={poly_to_string(p)}")

    for k in range(cases):
        tag = f"squarefree seed={seed} case={k}"
        # a polynomial with planted multiplicities and Gaussian content, drawn
        # from its own stream so the cases below stay as they were
        check_gcd(tag, random_gcd_pair(random.Random(f"squarefree/{seed}/{k}"))[0])
        parts = [random_poly(rng, 2) for _ in range(rng.randint(1, 3))]
        parts = [p for p in parts if p.degree >= 1]
        if not parts:
            continue
        p = Poly.one()
        for j, f in enumerate(parts):
            p = p * f ** (j + 1)
        check_gcd(tag, p)
        decomp = squarefree_decompose(p)
        rebuilt = Poly.one()
        degsum = 0
        for f, m in decomp:
            rebuilt = rebuilt * f**m
            degsum += m * f.degree
            if p.exact_div(f) != poly_divmod(p, f)[0]:
                failures.append(
                    f"{tag}: exact_div by a factor differs from the Q(i) long division, "
                    f"p={poly_to_string(p)}"
                )
        if rebuilt.monic() != p.monic():
            failures.append(f"{tag}: reconstruction differs, p={poly_to_string(p)}")
        if degsum != p.degree:
            failures.append(f"{tag}: multiplicity-weighted degree differs, p={poly_to_string(p)}")
    return SuiteResult("squarefree", cases, failures)


def spectrum_preservation_suite(cases: int = 200, seed: int = 10, tol: float = 1e-6) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    lam = RatFun.var()
    for k in range(cases):
        g = random_graph(rng)
        s = random_structural_set(rng, g)
        n = forbidden_set(g, s)
        r = reduce(g, s)
        sg, sr = spectrum(g), spectrum(r)
        tag = lambda: _replay_tag("spectrum-preservation", seed, k, g, s)
        complement = RatFun.one()
        for v in g.vertices:
            if v not in s:
                complement = complement * (g.loop(v) - lam)
        if sg.charpoly != complement * sr.charpoly:
            failures.append(f"{tag()}: char_det(G) != prod(loop(v) - l) * char_det(R_S)")
        if not spectra_agree_outside(sg, sr, n):
            failures.append(f"{tag()}: spectra differ beyond the forbidden set (exact check)")
        report = spectra_equal_up_to(sg, sr, n, tol)
        if not report.ok:
            failures.append(
                f"{tag()}: spectra differ beyond the forbidden set; " + "; ".join(report.lines())
            )
    return SuiteResult("spectrum-preservation", cases, failures)


def commutativity_suite(cases: int = 100, seed: int = 11) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng, max_n=7, pi_edges=True)
        tag = lambda *sets: _replay_tag("removal-commutativity", seed, k, g, *sets)
        if not is_g_pi(g):
            failures.append(f"{tag()}: generator produced a bad-degree weight")
            continue
        target = [v for v in g.vertices if rng.random() < 0.4]
        if not target:
            target = [rng.choice(g.vertices)]
        removed = [v for v in g.vertices if v not in target]
        order_a = removed[:]
        order_b = removed[:]
        rng.shuffle(order_a)
        rng.shuffle(order_b)
        ga = g
        for v in order_a:
            ga = remove_vertex(ga, v)
        gb = g
        for v in order_b:
            gb = remove_vertex(gb, v)
        if ga != gb:
            orders = f"{','.join(order_a)};{','.join(order_b)}"
            failures.append(f"{tag(target)}: removal orders disagree, orders={orders}")
        h, ref = g, ForbiddenSet.empty()
        for v in removed:  # the per-vertex route, as the reference
            h, ref = remove_vertex(h, v), ref.union(forbidden_set(h, set(h.vertices) - {v}))
        gu, nu = unique_reduce_to(g, target)
        if gu != ga:
            failures.append(f"{tag(target)}: unique reduction differs from manual removal")
        if (nu.poly, nu.to_json_dict()) != (ref.poly, ref.to_json_dict()):
            failures.append(f"{tag(target)}: unique reduction's exception set differs")
    return SuiteResult("removal-commutativity", cases, failures)


def elimination_fold_suite(cases: int = 40, seed: int = 12) -> SuiteResult:
    """reduce over S equals the branch-product definition and every
    permutation-order elimination fold."""
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng, max_n=7, pi_edges=True)
        s = random_structural_set(rng, g)
        comp = [v for v in g.vertices if v not in s]
        if len(comp) > 4:
            s = s + comp[4:]
            comp = comp[:4]
        tag = _replay_tag("elimination-folds", seed, k, g, s)
        direct = reduce(g, s)
        if direct != reduce_by_paths(g, s):
            failures.append(f"{tag}: reduce differs from the branch-product sum")
        for order in permutations(comp):
            h = g
            for v in order:
                h = remove_vertex(h, v)
            if h != direct:
                failures.append(f"{tag}: fold order {order} differs from reduce")
                break
    return SuiteResult("elimination-folds", cases, failures)


def gpi_closure_suite(cases: int = 150, seed: int = 13) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng, max_n=7, pi_edges=True)
        s = random_structural_set(rng, g)
        tag = lambda s: _replay_tag("degree-gap-closure", seed, k, g, s)
        if not is_g_pi(g):
            failures.append(f"{tag(s)}: generator escaped the degree-gap class")
            continue
        if not is_g_pi(reduce(g, s)):
            failures.append(f"{tag(s)}: reduction left the degree-gap class")
        if g.n >= 2:
            v = rng.choice(g.vertices)
            rest = [u for u in g.vertices if u != v]
            if not is_structural_set(g, rest):
                failures.append(f"{tag(rest)}: single-vertex complement not structural")
    return SuiteResult("degree-gap-closure", cases, failures)


def scc_suite(cases: int = 150, seed: int = 14) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng)
        s = random_structural_set(rng, g)
        tag = lambda: _replay_tag("scc", seed, k, g, s)
        if reduce(scc_filter(g), s) != scc_filter(reduce(g, s)):
            failures.append(f"{tag()}: filter and reduce do not commute")
        if not charpoly_numerators_equal(g, scc_filter(g)):
            failures.append(f"{tag()}: filtering changed the spectrum")
        if not reduced_scc_check(g, s).ok:
            failures.append(f"{tag()}: component blocks mismatch")
        # block multiplicativity of the characteristic determinant
        product = RatFun.one()
        for comp in scc_partition(g):
            product = product * char_det(g.subgraph(comp))
        if product != char_det(g):
            failures.append(f"{tag()}: determinant not block multiplicative")
    return SuiteResult("scc", cases, failures)


def expansion_suite(cases: int = 100, seed: int = 15) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    from collections import Counter

    for k in range(cases):
        g = random_graph(rng, max_n=6)
        s = random_structural_set(rng, g)
        tag = lambda: _replay_tag("expansion", seed, k, g, s)
        x = expand(g, s)
        if Counter(branch_decomposition(g, s)) != Counter(branch_decomposition(x, s)):
            failures.append(f"{tag()}: expansion changed the decomposition")
        branches = all_branches(x, s)
        interiors = [set(b.interiors()) for b in branches]
        for i in range(len(interiors)):
            for j in range(i + 1, len(interiors)):
                if interiors[i] & interiors[j]:
                    failures.append(f"{tag()}: expansion branches share interiors")
        on_branch = set(s)
        for b in branches:
            on_branch.update(b.vertices)
        if set(x.vertices) - on_branch:
            failures.append(f"{tag()}: expansion vertex off every branch")
        if reduce(x, s) != reduce(g, s):
            failures.append(f"{tag()}: expansion changed the reduction")
        n = forbidden_set(g, s)
        sg, sx = spectrum(g), spectrum(x)
        if not spectra_agree_outside(sg, sx, n):
            failures.append(f"{tag()}: expansion changed the spectrum outside N (exact check)")
        if not spectra_equal_up_to(sg, sx, n, 1e-6).ok:
            failures.append(f"{tag()}: expansion moved the spectrum too far")
        if not common_decomposition(g, s, x, s, {v: v for v in s}):
            failures.append(f"{tag()}: common decomposition self-test failed")
        pruned = prune_off_branch(g, s)
        if reduce(pruned, s) != reduce(g, s):
            failures.append(f"{tag()}: pruning changed the reduction")
        sp = spectrum(pruned)
        if not spectra_agree_outside(sg, sp, n):
            failures.append(f"{tag()}: pruning changed the spectrum outside N (exact check)")
        if not spectra_equal_up_to(sg, sp, n, 1e-6).ok:
            failures.append(f"{tag()}: pruning moved the spectrum too far")
    return SuiteResult("expansion", cases, failures)


def bisect_suite(cases: int = 100, seed: int = 16) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    lam = RatFun.var()
    for k in range(cases):
        g = random_graph(rng, max_n=6)
        edges = [e for e in g.edges()]
        if not edges:
            continue
        u, v, _ = rng.choice(edges)
        w_in = random_constant(rng)
        w_loop = RatFun.from_int(rng.randint(-2, 2))
        w_out = random_constant(rng)
        target = w_in * w_out / (lam - w_loop)
        if target.is_zero():
            continue
        base_edges = [(a, b, w) for a, b, w in g.edges() if (a, b) != (u, v)]
        base_edges.append((u, v, target))
        h = WeightedDigraph(g.vertices, base_edges)
        bisected = loop_bisect(h, (u, v), w_in, w_loop, w_out, new_vertex="mid")
        # the bisected graph reduces back to h over h's vertices
        tag = lambda: _replay_tag("loop-bisection", seed, k, bisected, h.vertices)
        if remove_vertex(bisected, "mid") != h:
            failures.append(f"{tag()}: bisect then eliminate is not the identity")
        n = forbidden_set(bisected, h.vertices)
        sh, sb = spectrum(h), spectrum(bisected)
        if not spectra_agree_outside(sh, sb, n):
            failures.append(f"{tag()}: bisection changed the spectrum outside N (exact check)")
        if not spectra_equal_up_to(sh, sb, n, 1e-6).ok:
            failures.append(f"{tag()}: bisection moved the spectrum too far")
    return SuiteResult("loop-bisection", cases, failures)


def oracle_suite(cases: int = 120, seed: int = 17) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        n = rng.randint(1, 4)
        mat = [
            [
                random_ratfun(rng, 1) if rng.random() < 0.7 else RatFun.zero()
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if det_ratfun_matrix(mat) != det_leibniz(mat):
            weights = json.dumps([[format_weight(w) for w in row] for row in mat])
            failures.append(
                f"oracles seed={seed} case={k}: elimination and expansion determinants differ, "
                f"matrix={weights}"
            )
        g = random_graph(rng, max_n=6, ratfun_loops=False)
        tag = lambda *sets: _replay_tag("oracles", seed, k, g, *sets)
        if g.n <= 6 and char_det(g) != det_leibniz(char_matrix(g)):
            failures.append(f"{tag()}: char_det differs from expansion oracle")
        if det_ratfun_matrix(char_matrix(g)) != char_det(g):
            failures.append(f"{tag()}: the two determinant routes differ")
        dense = eig_dense(g)
        if not spectra_equal_up_to(spectrum(g), dense, forbidden_set(g, g.vertices), 1e-6).ok:
            failures.append(f"{tag()}: exact and dense spectra differ")
        s = random_structural_set(rng, g)
        s_set = set(s)
        banned = [v for v in g.vertices if v in s_set]
        for src in s:
            for dst in s:
                mine = [b.vertices for b in enumerate_branches(g, s, src, dst)]
                theirs = all_paths(g, src, dst, banned)
                if sorted(mine) != sorted(theirs):
                    failures.append(f"{tag(s)}: branch enumeration differs from path oracle")
    return SuiteResult("oracles", cases, failures)


def structural_suite(cases: int = 150, seed: int = 18) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng)
        tag = lambda s: _replay_tag("structural-sets", seed, k, g, s)
        if len(forbidden_set(g, g.vertices)) != 0:
            failures.append(f"{tag(g.vertices)}: full-set reduction has exception points")
        try:
            bas = basic_structural_set(g)
        except Exception:
            bas = None
        if bas is not None:
            if not is_structural_set(g, bas):
                failures.append(f"{tag(bas)}: basic set is not structural")
            # the complement of a basic set has no loops, so N is {0} or empty
            if forbidden_set(g, bas).poly not in (Poly.one(), Poly.var()):
                failures.append(f"{tag(bas)}: basic-set exception points beyond zero")
        # cycle detection agrees with a reachability oracle on the complement
        s = random_structural_set(rng, g)
        sub = g.loopless().subgraph([v for v in g.vertices if v not in set(s)])
        reach = {v: set(sub.successors(v)) for v in sub.vertices}
        changed = True
        while changed:
            changed = False
            for v in sub.vertices:
                add = set()
                for u in reach[v]:
                    add |= reach[u]
                if not add <= reach[v]:
                    reach[v] |= add
                    changed = True
        has_cycle = any(v in reach[v] for v in sub.vertices)
        if has_cycle:
            failures.append(f"{tag(s)}: accepted set leaves a complement cycle")
    return SuiteResult("structural-sets", cases, failures)


def sequential_suite(cases: int = 80, seed: int = 19) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng, max_n=7)
        s1 = random_structural_set(rng, g)
        tag = lambda *steps: _replay_tag("sequential", seed, k, g, *steps)
        r1, n1 = sequential_reduce(g, [s1])
        if r1 != reduce(g, s1):
            failures.append(f"{tag(s1)}: single-step sequence differs from reduce")
        direct = forbidden_set(g, s1)
        if n1.poly != direct.poly:
            failures.append(f"{tag(s1)}: single-step exception polynomial differs")
        if sorted(p.value.real for p in n1) != sorted(p.value.real for p in direct):
            failures.append(f"{tag(s1)}: single-step exception set differs")
        s2 = random_structural_set(rng, r1)
        r2, n2 = sequential_reduce(g, [s1, s2])
        if r2 != reduce(r1, s2):
            failures.append(f"{tag(s1, s2)}: two-step sequence differs")
        expected = direct.union(forbidden_set(r1, s2))
        if n2.poly != expected.poly:
            failures.append(f"{tag(s1, s2)}: accumulated exception polynomial differs")
        if len(n2) != len(expected):
            failures.append(f"{tag(s1, s2)}: accumulated exception set differs")
        if len(n2) != n2.poly.degree:
            failures.append(f"{tag(s1, s2)}: accumulated exception set lost or repeated a point")
        sg, sr2 = spectrum(g), spectrum(r2)
        if not spectra_agree_outside(sg, sr2, n2):
            failures.append(f"{tag(s1, s2)}: sequence broke spectrum preservation (exact check)")
        if not spectra_equal_up_to(sg, sr2, n2, 1e-6).ok:
            failures.append(f"{tag(s1, s2)}: sequence broke spectrum preservation")
    return SuiteResult("sequential", cases, failures)


def isomorphism_suite(cases: int = 100, seed: int = 20) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng, max_n=7)
        relabel = {v: f"x{j}" for j, v in enumerate(rng.sample(g.vertices, g.n))}
        h = g.relabeled(relabel)
        tag = lambda: _replay_tag("isomorphism", seed, k, g)
        witness = isomorphic(g, h)
        if witness is None:
            failures.append(f"{tag()}: relabeled graph not recognized")
        else:
            for u, v, w in g.edges():
                if h.weight(witness[u], witness[v]) != w:
                    failures.append(f"{tag()}: witness does not conjugate weights")
                    break
        if g.edge_count():
            u, v, w = rng.choice(g.edges())
            tweaked = [
                (a, b, ww if (a, b) != (u, v) else ww + RatFun.one())
                for a, b, ww in g.edges()
            ]
            g2 = WeightedDigraph(g.vertices, tweaked)
            if g2 != g and isomorphic(g, g2.relabeled(relabel)) is not None:
                # a different weight multiset can never be isomorphic
                if sorted(hash(w) for _, _, w in g.edges()) != sorted(
                    hash(w) for _, _, w in g2.edges()
                ):
                    failures.append(f"{tag()}: perturbed graph wrongly matched, edge={u},{v}")
    return SuiteResult("isomorphism", cases, failures)


def transpose_suite(cases: int = 100, seed: int = 21) -> SuiteResult:
    rng = random.Random(seed)
    failures = []
    for k in range(cases):
        g = random_graph(rng)
        tag = lambda: _replay_tag("graph-basics", seed, k, g)
        if not charpoly_numerators_equal(g, g.transpose()):
            failures.append(f"{tag()}: transpose changed the spectrum")
        if g.transpose().transpose() != g:
            failures.append(f"{tag()}: double transpose is not the identity")
        if WeightedDigraph.from_json(g.to_json()) != g:
            failures.append(f"{tag()}: JSON round-trip changed the graph")
        mat = g.adjacency_matrix()
        if WeightedDigraph.from_matrix(g.vertices, mat).adjacency_matrix() != mat:
            failures.append(f"{tag()}: adjacency matrix round-trip differs")
    return SuiteResult("graph-basics", cases, failures)


ALL_SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "field-axioms": field_axiom_suite,
    "pi-rules": pi_rule_suite,
    "parse-format": parse_format_suite,
    "squarefree": squarefree_suite,
    "spectrum-preservation": spectrum_preservation_suite,
    "removal-commutativity": commutativity_suite,
    "elimination-folds": elimination_fold_suite,
    "degree-gap-closure": gpi_closure_suite,
    "scc": scc_suite,
    "expansion": expansion_suite,
    "loop-bisection": bisect_suite,
    "oracles": oracle_suite,
    "structural-sets": structural_suite,
    "sequential": sequential_suite,
    "isomorphism": isomorphism_suite,
    "graph-basics": transpose_suite,
}


def run_all(cases: int = 60, seed: int = 0) -> List[SuiteResult]:
    out = []
    for name, fn in ALL_SUITES.items():
        out.append(fn(cases=cases, seed=seed + len(out)))
    return out
