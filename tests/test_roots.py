"""Certified root location against planted roots and the 60-digit reference."""

import cmath
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from isored import roots
from isored.cli import main
from isored.oracles import polyroots_reference
from isored.ratfun import GaussianRational, Poly, parse_weight
from isored.reduction import reduce
from isored.roots import poly_roots
from isored.spectrum import spectrum
from isored.structural import forbidden_set
from isored.wgraph import WeightedDigraph

# how close, relative to the root, a printed root must be
REL = 2.0**-40


def exact(z: complex) -> GaussianRational:
    return GaussianRational(Fraction(z.real), Fraction(z.imag))


def polar(rng: random.Random, modulus: float) -> complex:
    return cmath.rect(modulus, rng.uniform(-cmath.pi, cmath.pi))


def planted_roots(rng: random.Random, kind: str):
    """A few moderate roots, plus: one root of modulus 1e-100 to 1e100
    ("extreme"), two roots 1e-9 to 1e-3 apart relative to their modulus
    ("pair"), or five to seven roots within 5 of 1000 and one near 2, as in
    the degree-7 factor that double companion eigenvalues misplace by 35
    ("cluster")."""
    planted = [polar(rng, rng.uniform(0.1, 10)) for _ in range(rng.randint(0, 3))]
    if kind == "extreme":
        planted.append(polar(rng, 10.0 ** rng.uniform(-100, 100)))
    elif kind == "pair":
        r = polar(rng, 10.0 ** rng.uniform(-3, 3))
        planted += [r, r * (1 + polar(rng, 10.0 ** rng.uniform(-9, -3)))]
    else:
        planted = [2 + polar(rng, 0.01)] + [1000 + polar(rng, rng.uniform(0.5, 5)) for _ in range(rng.randint(5, 7))]
    return [exact(r) for r in planted]


def product(planted) -> Poly:
    p = Poly.one()
    for r in planted:
        p = p * Poly([-r, GaussianRational(1)])
    return p


@pytest.mark.parametrize("kind", ["extreme", "pair", "cluster"])
def test_each_planted_root_has_exactly_one_printed_root_near_it(kind):
    rng = random.Random(f"planted/{kind}")
    for case in range(60):
        planted = planted_roots(rng, kind)
        found = poly_roots(product(planted))
        assert len(found) == len(planted) and all(m == 1 for _, m, _ in found), (kind, case)
        for r in map(GaussianRational.to_complex, planted):
            near = [z for z, _, _ in found if abs(z - r) <= REL * abs(r)]
            assert len(near) == 1, (kind, case, r, [z for z, _, _ in found])


def test_real_roots_of_real_factors_print_with_imaginary_part_zero():
    # real roots and conjugate pairs, some pairs within 1e-12 of the real axis
    rng = random.Random("real")
    for case in range(60):
        reals = [exact(rng.uniform(-10, 10)) for _ in range(rng.randint(1, 4))]
        pairs = []
        for _ in range(rng.randint(0, 3)):
            re = rng.uniform(-10, 10)
            pairs.append(exact(complex(re, abs(re) * 10.0 ** rng.uniform(-12, 0))))
        p = product(reals + pairs + [GaussianRational(c.re, -c.im) for c in pairs])
        assert not any(c.im for c in p.coeffs)
        found = [z for z, _, _ in poly_roots(p)]
        assert len(found) == len(reals) + 2 * len(pairs), case
        for r in reals + pairs:
            near = [z for z in found if abs(z - r.to_complex()) <= REL * abs(r.to_complex())]
            assert len(near) == 1, (case, r, found)
            assert (near[0].imag == 0) == (not r.im), (case, r, near[0])


def test_a_root_zero_inside_a_factor_is_exactly_zero():
    found = poly_roots(parse_weight("l^3-2*l").num)
    assert [z for z, _, _ in found][1] == 0j


@pytest.mark.parametrize(
    "text,scale",
    [
        (
            "l^7-6002*l^6+15011996*l^5-20029980959*l^4+15039963875108*l^3"
            "-6029965871139800*l^2+1011983952957128290*l-1996997925326512212",
            1,
        ),
        ("l^8-2*l^7-13*l^6+77*l^5-177*l^4+507*l^3-4017*l^2-990*l+18360", 1),
        # roots of modulus 1e-100, which polyroots' absolute tolerance cannot
        # tell from 0: the reference solves for l / 10^-100 instead
        ("10^300*l^3+l+1", Fraction(1, 10**100)),
    ],
)
def test_roots_agree_with_the_60_digit_reference(text, scale):
    p = parse_weight(text).num
    scaled = Poly([c * GaussianRational(scale**k) for k, c in enumerate(p.coeffs)])
    reference = [complex(z * scale) for z in polyroots_reference(scaled)]
    found = [z for z, _, _ in poly_roots(p)]
    assert len(found) == len(reference)
    for z in found:
        assert min(abs(z - r) / abs(r) for r in reference) <= 1e-12


def test_roots_closer_than_doubles_part_are_certified_on_dyadic_iterates(monkeypatch):
    # 4/3 +- 1e-25 i and 3: the pair is 1e-25 apart, far below a double's
    # resolution at 4/3, so double iterates settle uncertified
    calls = []
    high_precision = roots._roots_high_precision
    monkeypatch.setattr(roots, "_roots_high_precision", lambda *a: calls.append(a) or high_precision(*a))
    p = parse_weight("((l-4/3)^2+1/10^50)*(l-3)").num
    found = [z for z, _, _ in poly_roots(p)]
    assert len(calls) == 1
    assert len(found) == 3 and abs(found[2] - 3) <= REL * 3
    assert all(abs(z - 4 / 3) <= REL * 4 / 3 for z in found[:2])


def cycle_graph_path(tmp_path, n: int) -> str:
    """The unit n-cycle v0 -> v1 -> ... -> v0, written as a graph file."""
    edges = [{"from": f"v{k}", "to": f"v{(k + 1) % n}", "weight": "1"} for k in range(n)]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"vertices": [f"v{k}" for k in range(n)], "edges": edges}))
    return str(path)


def test_one_verify_call_locates_each_squarefree_factor_once(tmp_path, monkeypatch, capsys):
    # sigma(G) of the 5-cycle and sigma(R_S) over {v0} are both the roots
    # of l^5 - 1, and N(G;S) is {0}
    path = cycle_graph_path(tmp_path, 5)
    calls = []
    located = roots._squarefree_roots
    monkeypatch.setattr(roots, "_squarefree_roots", lambda f: calls.append(f) or located(f))
    assert main(["verify", path, "--set", "v0"]) == 0
    inside = list(calls)
    assert len(inside) == len(set(inside))
    # the same three root sets outside main locate the shared factors again
    calls.clear()
    g = WeightedDigraph.from_json_dict(json.loads(Path(path).read_text()))
    spectrum(g)
    spectrum(reduce(g, ["v0"]))
    forbidden_set(g, ["v0"])
    assert set(calls) == set(inside) and len(calls) > len(inside)
    # and two consecutive calls of main locate each factor each time
    calls.clear()
    assert main(["verify", path, "--set", "v0"]) == 0
    assert main(["verify", path, "--set", "v0"]) == 0
    assert calls == inside + inside
    assert "PASS" in capsys.readouterr().out


def test_the_root_table_lives_only_inside_main(tmp_path):
    assert roots._located is None
    poly_roots(parse_weight("l^5-1").num)
    assert roots._located is None
    assert main(["spectrum", cycle_graph_path(tmp_path, 5)]) == 0
    assert roots._located is None
    # a refusal leaves no table behind either
    path = tmp_path / "refused.json"
    path.write_text(json.dumps({"vertices": ["v"], "edges": [{"from": "v", "to": "v", "weight": "l^2+10^700"}]}))
    assert main(["spectrum", str(path)]) == 2
    assert roots._located is None
