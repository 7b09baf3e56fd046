"""Weight-field arithmetic, parsing, and formatting."""

import json
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import pytest

from isored import (
    ForbiddenSet,
    WeightedDigraph,
    charpoly_numerators_equal,
    forbidden_set,
    is_structural_set,
    isomorphic,
    proptest,
    ratfun,
    reduced_scc_check,
    remove_vertex,
    unique_reduce_to,
)
from isored.oracles import det_leibniz, det_ratfun_matrix, poly_divmod, poly_gcd_euclid
from isored.proptest import cross_product_mismatches, random_gcd_pair, random_monomial, random_related_pair
from isored.ratfun import (
    MAX_PAREN_DEPTH,
    MAX_POWER,
    MAX_POWER_WORK,
    MAX_PRODUCT_WORK,
    GaussianRational,
    NEG_INF,
    ParseError,
    Poly,
    RatFun,
    format_weight,
    parse_weight,
    poly_gcd,
    poly_lcm,
    poly_product,
    poly_to_string,
    squarefree_decompose,
    _P,
    _SQRT_M1,
    _gaussian_ints,
    _power_size,
)
from isored.roots import _squarefree_roots, poly_roots

L = RatFun.var()
ONE = RatFun.one()
ZERO = RatFun.zero()


def rf(text):
    return parse_weight(text)


def test_add_cancels_to_constant():
    assert ONE / L + (L - ONE) / L == ONE


def test_add_zero_is_identity():
    a = ONE / (L - ONE)
    assert a + ZERO == a


def test_add_unit_and_reciprocal():
    assert ONE + ONE / L == rf("(l+1)/l")


def test_mul_inverse_pair():
    assert rf("(l+1)/l") * rf("l/(l+1)") == ONE


def test_mul_forces_gcd_cancellation():
    assert rf("(l^2-1)/(l-2)") * rf("1/(l+1)") == rf("(l-1)/(l-2)")


def test_mul_squares_reciprocals():
    assert rf("3/l") * rf("3/l") == rf("9/l^2")


def test_div_builds_reciprocal():
    assert ONE / (L - ONE) == rf("1/(l-1)")


def test_div_self_is_one():
    a = rf("(l+1)/l")
    assert a / a == ONE


def test_div_exact_polynomial():
    assert (L * L - ONE) / (L - ONE) == L + ONE


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _two_part_results(a, b, c, d):
    """What +, -, *, / and unary - give on a+bi and c+di, by the two-part
    formulas on Fractions; no quotient for c = d = 0."""
    out = {"+": (a + c, b + d), "-": (a - c, b - d), "*": (a * c - b * d, a * d + b * c), "neg": (-a, -b)}
    if c or d:
        n = c * c + d * d
        out["/"] = ((a * c + b * d) / n, (b * c - a * d) / n)
    return out


def test_scalar_operations_equal_the_two_part_formulas_on_every_zero_pattern():
    # each scalar operation skips the Fraction work of zero parts, so every
    # zero/nonzero pattern of (a, b, c, d) takes its own route
    rng = random.Random("scalar-patterns")

    def part(nonzero):
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)) if nonzero else Fraction(0)

    taken = Counter()
    for mask in range(16):
        for case in range(12):
            a, b, c, d = (part(mask >> k & 1) for k in range(4))
            # cases 1-4 of every 6 make the imaginary part of one result cancel
            if case % 6 == 1 and b:
                c, d = part(True), -b  # the sum's
            elif case % 6 == 2 and b:
                c, d = part(True), b  # the difference's
            elif case % 6 == 3 and b and d:
                c = a * d / b  # a*d = b*c: the quotient's
            elif case % 6 == 4 and b and d:
                c = -a * d / b  # a*d = -b*c: the product's
            x, y = GaussianRational(a, b), GaussianRational(c, d)
            got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x}
            if y:
                got["/"] = x / y
            for op, (re, im) in _two_part_results(a, b, c, d).items():
                r = got[op]
                assert type(r.re) is Fraction and type(r.im) is Fraction, (op, x, y)
                assert (r.re, r.im) == (re, im), (op, x, y)
                built = GaussianRational(re, im)
                assert r == built and hash(r) == hash(built), (op, x, y)
                taken[op, bool(im)] += bool(b or d)
            assert x + y == y + x and hash(x + y) == hash(y + x)
            assert x * y == y * x and hash(x * y) == hash(y * x)
            assert x - y == -(y - x) and hash(x - y) == hash(-(y - x))
    # results with and without an imaginary part from complex operands
    assert len(taken) == 10 and min(taken.values()) >= 10, taken


def _exact_div_pair(rng, k):
    """``(a, b)`` for the exact-division test; ``k`` picks the kind of pair."""

    def coeff(gaussian):
        re = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))
        im = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) if gaussian else 0
        return GaussianRational(re, im)

    def poly(deg, gaussian):
        lead = coeff(gaussian)
        while not lead:
            lead = coeff(gaussian)
        return Poly([coeff(gaussian) for _ in range(deg)] + [lead])

    kind = k % 4
    a = Poly.zero() if k % 25 == 0 else poly(rng.randint(0, 5), kind == 1)
    if kind == 2:  # a constant divisor
        return a, poly(0, rng.random() < 0.5)
    if kind < 2:
        return a, poly(rng.randint(1, 4), kind == 1)
    # a divisor with non-unit Gaussian content c; with conj(c) in the
    # dividend, clearing takes out the integer |c|^2 and leaves a quotient
    # that is not over Z[i]
    cr, ci = rng.choice(((1, 1), (2, 1), (1, 2), (3, 2)))
    f = Poly(
        [GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(rng.randint(1, 3))]
        + [GaussianRational(1)]
    )
    if rng.random() < 0.7 and a:
        a = a * Poly.const(GaussianRational(cr, -ci))
    return a, f * Poly.const(GaussianRational(cr, ci))


def test_exact_div_equals_the_long_division_reference_randomized():
    rng = random.Random(17)
    taken = {"gaussian": 0, "rational": 0, "constant": 0, "zero": 0, "scaled": 0}
    for k in range(400):
        a, b = _exact_div_pair(rng, k)
        p = a * b
        q, r = poly_divmod(p, b)
        assert p.exact_div(b) == a == q, (poly_to_string(p), poly_to_string(b))
        assert not r
        # the quotient of the cleared operands is over Z[i] exactly when the
        # division never scales the remainder by |lc|^2
        if p:
            (_, _, (mp, kp)), (_, _, (mb, kb)) = _gaussian_ints(p.coeffs), _gaussian_ints(b.coeffs)
            cleared = a.scale(GaussianRational(Fraction(mp * kb, kp * mb)))
            taken["scaled"] += any(c.re.denominator > 1 or c.im.denominator > 1 for c in cleared.coeffs)
        cs = p.coeffs + b.coeffs
        taken["gaussian"] += any(c.im for c in cs)
        taken["rational"] += bool(p) and not any(c.im for c in cs)
        taken["constant"] += b.degree == 0
        taken["zero"] += not p
    assert min(taken.values()) >= 10, taken


def test_exact_div_refuses_a_remainder_and_a_zero_divisor():
    rng = random.Random(18)
    for k in range(60):
        a, b = _exact_div_pair(rng, k)
        if b.degree < 1:
            continue
        # a nonzero remainder of lower degree than b, or a lower-degree dividend
        r = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(b.degree)])
        if not r:
            r = Poly.one()
        for p in (a * b + r, r):
            with pytest.raises(ValueError, match="inexact polynomial division"):
                p.exact_div(b)
            assert poly_divmod(p, b)[1] == r
    for p in (Poly.one(), Poly.zero()):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            p.exact_div(Poly.zero())


def test_degree_gap_values():
    assert rf("(l+1)/l").pi() == 0
    assert rf("1/(l-1)").pi() == -1
    assert rf("l^2+1").pi() == 2
    assert ZERO.pi() == NEG_INF


def test_squarefree_of_repeated_root():
    p = parse_weight("l^2*(l-1)").num
    decomp = squarefree_decompose(p)
    assert {(poly_to_string(f), m) for f, m in decomp} == {("l", 2), ("l-1", 1)}


def test_squarefree_of_squarefree_cubic():
    p = parse_weight("l^3-1").num
    assert [(poly_to_string(f), m) for f, m in squarefree_decompose(p)] == [
        ("l^3-1", 1)
    ]


def test_squarefree_of_shifted_square():
    p = parse_weight("(l-2)^2").num
    assert [(poly_to_string(f), m) for f, m in squarefree_decompose(p)] == [
        ("l-2", 2)
    ]


def test_parse_reduced_branch_weight():
    r = rf("(l+1)/l")
    assert poly_to_string(r.num) == "l+1"
    assert poly_to_string(r.den) == "l"


def test_parse_negated_quotient():
    r = rf("-(l+3)/(l-2)")
    assert poly_to_string(r.num) == "-l-3"
    assert poly_to_string(r.den) == "l-2"


def test_parse_gaussian_constant():
    r = rf("3/2 + 1i/2")
    assert r.is_constant()
    c = r.constant_value()
    assert (c.re, c.im) == (GaussianRational(3, 1).re / 2, GaussianRational(1).re / 2)


def test_parse_lambda_synonyms():
    assert rf("lambda") == L
    assert rf("λ^2") == L * L


def test_parse_decimal_is_exact():
    assert rf("0.5") == ONE / RatFun.from_int(2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        rf("l + @")
    assert err.value.position == 4


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        rf("l + 1)")


def test_parse_nesting_up_to_the_depth_bound():
    assert rf("(" * 150 + "l+1" + ")" * 150) == L + ONE
    assert rf("(" * MAX_PAREN_DEPTH + "l" + ")" * MAX_PAREN_DEPTH) == L
    with pytest.raises(ParseError) as err:
        rf("(" * (MAX_PAREN_DEPTH + 1) + "l" + ")" * (MAX_PAREN_DEPTH + 1))
    assert err.value.position == MAX_PAREN_DEPTH


def test_parse_powers_up_to_the_power_ceiling():
    assert rf(f"l^{MAX_POWER}").num.degree == MAX_POWER
    assert rf(f"2^{MAX_POWER}") == RatFun.from_int(2**MAX_POWER)
    assert rf("1^1000000000") == ONE and rf("(-i)^1000000002") == RatFun.from_int(-1)
    assert rf("0^1000000000") == ZERO
    for text in (f"l^{MAX_POWER + 1}", f"(1+i)^{MAX_POWER + 1}", f"(l^{MAX_POWER})^2", "(1/3)^3000"):
        with pytest.raises(ParseError, match="ceiling") as err:
            rf(text)
        assert text[err.value.position] == "^"


def test_parse_powers_up_to_the_work_ceiling():
    for text in (f"l^{MAX_POWER}", f"2^{MAX_POWER}", f"(1+i)^{MAX_POWER}", "10^400", "(l+1)^250"):
        rf(text)
    # (2*l)^n has degree n and bit bound n, as (l+1)^n has, but sparse coefficients
    assert MAX_POWER_WORK == 512 * 512
    assert rf("(2*l)^512") == RatFun.from_int(2**512) * L**512
    for text in ("(2*l)^513", "(l+1)^2000", "(l^2+1/3)^1000"):
        with pytest.raises(ParseError, match="degree times coefficient bits") as err:
            rf(text)
        assert text[err.value.position] == "^"


def test_parse_products_and_quotients_up_to_their_ceilings():
    # each product is judged before it is computed, by the degree it builds
    # and by the coefficient products its two multiplies compute, not by the
    # size of the result: a constant times a long polynomial is cheap
    assert rf("(l+1)^256*(l+1)^256") == rf("(l+1)^512")
    assert rf("2*(l+1)^512") == RatFun.from_int(2) * rf("(l+1)^512")
    assert rf("(l+1)^256*(l+1)^256*(l+1)") == rf("(l+1)^256*(l+1)^257")
    assert rf("(2*l)^256*(2*l)^257") == RatFun.from_int(2**513) * L**513
    assert rf(f"l^{MAX_POWER - 1}*l") == L**MAX_POWER
    assert rf(f"1/l^{MAX_POWER - 1}/l") == L ** (-MAX_POWER)
    assert rf(f"l^{MAX_POWER}/l^{MAX_POWER}") == ONE
    assert rf(f"2^{MAX_POWER}*2^{MAX_POWER}*{'9' * 1000}") == RatFun.from_int(4**MAX_POWER * int("9" * 1000))
    # 64 times 2048 nonzero coefficients (bit bounds 6 and 11) reach the
    # ceiling exactly, so 64 times 2049 passes it
    assert MAX_PRODUCT_WORK == 64 * 2048
    rows = [
        ("((l^64-1)/(l-1))*((l^2049-1)/(l-1))", "*", "coefficient products"),
        ("(l+1)^256*(l+1)^256*(l+1)^256", "*", "coefficient products"),
        ("(l+1)^256*(l+1)^256/(1/(l+1)^256)", "/", "coefficient products"),
        # 201^2 coefficient products, each counted 5 times for its 2*4297 bits
        ("(l+1)^200*2^4096*((l+1)^200*2^4096)", "*", "coefficient products"),
        (f"l^{MAX_POWER}*l", "*", "degree"),
        (f"1/l^{MAX_POWER}/l", "/", "degree"),
        (f"1/(l^{MAX_POWER}-1)/(l+1)", "/", "degree"),
    ]
    for text, op, reason in rows:
        with pytest.raises(ParseError, match=f"the (product|quotient) passes the ceiling of .* on {reason} \\(at") as err:
            rf(text)
        assert text[err.value.position] == op, text


def test_the_powers_of_one_weight_share_one_work_ceiling():
    assert rf("(l+1)^256+(l-1)^256+(l+i)^256+(l-i)^256").num.degree == 256
    for text in ("(l+1)^512+(l+1)^512+(l+1)^512+(l+1)^512", "(l+1)^256+(l-1)^256+(l+i)^256+(l-i)^256+l^2+(l+2)^2"):
        with pytest.raises(ParseError, match="the power passes the ceiling of .* on degree times coefficient bits") as err:
            rf(text)
        assert text[err.value.position] == "^"


@pytest.mark.parametrize(
    "text",
    [
        "(l+1)^512",
        "(2*l)^512",
        f"(1+i)^{MAX_POWER}",
        "(l+1)^256*(l-2)^100",
        "(3*l-2i)^30/(l^2+1/7)^15",
        # degree times bit bound 513 * 513 > 2^18: prints as a sum of
        # constant-times-monomial terms over l, each product cheap
        "(l+1)^512*(l+1)/l",
    ],
)
def test_printed_admitted_values_read_back(text):
    value = rf(text)
    assert rf(format_weight(value)) == value


@pytest.mark.parametrize(
    "base", ["l+1", "3-2i", "(1+i)*l^2-5/7", "(2*l-1)/(l^2+1/3)", "(5/2+i/9)*l+4i", "-l^3+2*l"]
)
def test_power_size_bounds_the_degree_and_coefficient_bits_of_a_power(base):
    value = rf(base)
    degree, bits = _power_size(value)
    for n in (1, 2, 5, 17):
        power = value**n
        power_bits = max(
            max(part.numerator.bit_length(), part.denominator.bit_length())
            for p in (power.num, power.den)
            for c in p.coeffs
            for part in (c.re, c.im)
        )
        assert max(power.num.degree, power.den.degree) <= n * degree
        assert power_bits <= n * bits


@pytest.mark.parametrize(
    "text,value",
    [
        ("l^4/2", L**4 / RatFun.from_int(2)),
        ("l^3/2", L**3 / RatFun.from_int(2)),
        ("2*l^2/3", RatFun.from_int(2) * L**2 / RatFun.from_int(3)),
        ("i*l^2/3", RatFun.const(GaussianRational(0, 1)) * L**2 / RatFun.from_int(3)),
    ],
)
def test_exponent_takes_no_denominator(text, value):
    assert rf(text) == value
    assert rf(format_weight(value)) == value


@pytest.mark.parametrize("text", ["l²", "9" * 5000, "1/" + "9" * 5000, "1." + "9" * 5000, "l+1/0"])
def test_parse_refuses_numerals_int_cannot_read(text):
    with pytest.raises(ParseError):
        rf(text)


def test_format_refuses_a_coefficient_past_the_digit_limit():
    # 10^4300 has 4301 digits, one past Python's default limit, which the
    # parser could not read back either
    with pytest.raises(ValueError, match="4300-digit limit") as exc:
        format_weight(RatFun.from_int(10**4300) * L)
    assert not isinstance(exc.value, ParseError)


def test_single_term_roundtrip_randomized():
    rng = random.Random(12)
    for _ in range(20000):
        r = random_monomial(rng)
        assert rf(format_weight(r)) == r, format_weight(r)


def test_format_zero():
    assert format_weight(ZERO) == "0"


@pytest.mark.parametrize(
    "text,printed",
    [
        ("l^2", "l^2"),  # den 1: no slash
        ("l^2-1", "l^2-1"),
        ("-3i*l/2", "-3i*l/2"),  # one-term num, integer den
        ("(1+2i)*l^2/3", "(1+2i)*l^2/3"),
        ("(l+1)/2", "(l+1)/2"),  # two-term num
        ("3/l^2", "3/l^2"),  # den one power of l
        ("(l-1)/l", "(l-1)/l"),
        ("(l+1)/(2*l)", "(l+1)/(2*l)"),  # one-term den with a coefficient
        ("2/(l^2+1)", "2/(l^2+1)"),  # two-term den
        ("1/(l-1/2)", "2/(2*l-1)"),
    ],
)
def test_format_parenthesizes_from_the_terms(text, printed):
    assert format_weight(rf(text)) == printed
    assert rf(printed) == rf(text)


def test_format_clears_fractions():
    half = RatFun.from_int(1) / RatFun.from_int(2)
    r = (half * L + ONE) / (L - half)
    assert format_weight(r) == "(l+2)/(2*l-1)"


def _random_ratfun(rng, deg=3):
    def poly():
        return Poly(
            [
                GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2))
                for _ in range(rng.randint(1, deg + 1))
            ]
        )

    num = poly()
    while True:
        den = poly()
        if not den.is_zero():
            return RatFun(num, den)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (_random_ratfun(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (ZERO - a) == ZERO
        if not a.is_zero():
            assert a * (ONE / a) == ONE


def _sum_cases(a, b):
    """Which cases of Henrici's sum a + b the pair takes: its denominators
    share a factor at unequal or at equal multiplicities, and the cross
    sum t shares a factor with their gcd g."""
    g = poly_gcd(a.den, b.den)
    if g.degree <= 0:
        return set()
    b1, d1 = a.den.exact_div(g), b.den.exact_div(g)
    seen = set()
    rest = g  # g without the factors that b1 or d1 still holds
    while True:
        common = poly_gcd(rest, b1 * d1)
        if common.degree <= 0:
            break
        seen.add("unequal")
        rest = rest.exact_div(common)
    if rest.degree > 0:
        seen.add("equal")
    t = a.num * d1 + b.num * b1
    if t and poly_gcd(t, g).degree > 0:
        seen.add("t-shares-g")
    return seen


def test_arithmetic_equals_the_full_gcd_constructor_randomized():
    rng = random.Random(12)
    taken = {"unequal": 0, "equal": 0, "t-shares-g": 0}
    for _ in range(150):
        a, b = random_related_pair(rng)
        assert cross_product_mismatches(a, b) == [], (format_weight(a), format_weight(b))
        assert a**2 == RatFun(a.num**2, a.den**2)
        if a:
            assert a**-3 == RatFun(a.den**3, a.num**3)
        for case in _sum_cases(a, b):
            taken[case] += 1
    assert min(taken.values()) >= 20, taken


def test_canonicalization_idempotent_randomized():
    rng = random.Random(8)
    for _ in range(200):
        a = _random_ratfun(rng)
        rebuilt = RatFun(a.num, a.den)
        assert rebuilt.num == a.num and rebuilt.den == a.den
        scale = Poly([GaussianRational(rng.randint(1, 3), rng.randint(0, 2))])
        assert RatFun(a.num * scale, a.den * scale) == a


def test_degree_gap_rules_randomized():
    rng = random.Random(9)
    for _ in range(200):
        a, b = _random_ratfun(rng, 2), _random_ratfun(rng, 2)
        if a and b:
            assert (a * b).pi() == a.pi() + b.pi()
            if a + b:
                assert (a + b).pi() <= max(a.pi(), b.pi())
            c = RatFun.from_int(rng.randint(-3, 3))
            assert (a * b / (L - c)).pi() < a.pi() + b.pi()


def test_parse_format_roundtrip_randomized():
    rng = random.Random(10)
    for _ in range(300):
        a = _random_ratfun(rng)
        if a.is_zero():
            continue
        assert parse_weight(format_weight(a)) == a


def test_squarefree_reconstructs_randomized():
    rng = random.Random(11)
    for _ in range(150):
        factors = []
        for _ in range(rng.randint(1, 3)):
            p = Poly(
                [GaussianRational(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))]
            )
            if p.degree >= 1:
                factors.append(p)
        if not factors:
            continue
        prod = Poly.one()
        for k, f in enumerate(factors):
            prod = prod * f ** (k + 1)
        rebuilt = Poly.one()
        degsum = 0
        for f, m in squarefree_decompose(prod):
            assert poly_gcd(f, f.derivative()).degree == 0
            rebuilt = rebuilt * f**m
            degsum += m * f.degree
        assert rebuilt.monic() == prod.monic()
        assert degsum == prod.degree


def _yun_loop(p: Poly):
    """Yun's loop run to its end, with no exit when p is squarefree."""
    p = p.monic()
    out, dp = [], p.derivative()
    g = poly_gcd(p, dp)
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        f = poly_gcd(c, d)
        if f.degree > 0:
            out.append((f, i))
        c = c.exact_div(f)
        d = d.exact_div(f) - c.derivative()
        i += 1
    return out


def test_squarefree_early_exit_returns_what_yuns_loop_returns_randomized():
    # products of Gaussian factors, some with a root 0, each at multiplicity
    # 1 (squarefree, which takes the early exit) or 1-3
    rng = random.Random("yun-exit")
    taken = Counter()
    for case in range(200):
        p = Poly.one()
        for _ in range(rng.randint(1, 3)):
            f = Poly([GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2) * (rng.random() < 0.5))
                      for _ in range(rng.randint(2, 4))])
            if f.degree > 0:
                p = p * f ** (1 if case % 2 else rng.randint(1, 3))
        if p.degree < 1:
            continue
        got = squarefree_decompose(p)
        assert got == _yun_loop(p), poly_to_string(p)
        taken[got == [(p.monic(), 1)], not p.coeffs[0]] += 1
    assert min(taken.values()) >= 10 and len(taken) == 4, taken


def test_poly_gcd_equals_the_euclidean_reference_randomized():
    rng = random.Random(13)
    taken = {"zero": 0, "constant": 0, "repeated": 0, "gaussian": 0}
    for _ in range(300):
        a, b, common = random_gcd_pair(rng)
        g = poly_gcd(a, b)
        assert g == poly_gcd_euclid(a, b) == poly_gcd(b, a), (poly_to_string(a), poly_to_string(b))
        if a.degree > 0 and b.degree > 0:
            assert not poly_divmod(g, common)[1]  # the planted factor divides the gcd
        taken["zero"] += a.is_zero() or b.is_zero()
        taken["constant"] += a.degree == 0 or b.degree == 0
        taken["repeated"] += poly_gcd(common, common.derivative()).degree > 0
        taken["gaussian"] += any(c.im for c in a.coeffs + b.coeffs)
    assert min(taken.values()) >= 10, taken


def test_poly_gcd_splits_powers_of_l_as_the_euclidean_reference_randomized():
    # l^j planted in both operands, in one only, or in neither; pure
    # monomials l^j against l^k; a zero operand
    rng = random.Random("split-l")
    taken = Counter()
    for case in range(320):
        kind = ("both", "a", "b", "neither", "monomials", "zero")[case % 6]
        a, b, _ = random_gcd_pair(rng)
        if kind == "monomials":
            a, b = L.num ** rng.randint(0, 6), L.num ** rng.randint(0, 6)
        j, k = rng.randint(1, 6), rng.randint(1, 6)
        if kind in ("both", "a"):
            a = a * L.num**j
        if kind in ("both", "b"):
            b = b * L.num**k
        if kind == "zero":
            a, b = Poly.zero(), b * L.num**k
        g = poly_gcd(a, b)
        assert g == poly_gcd_euclid(a, b) == poly_gcd(b, a), (poly_to_string(a), poly_to_string(b))
        taken[kind, g.degree > 0 and not g.coeffs[0]] += 1
        taken["gaussian"] += any(c.im for c in a.coeffs + b.coeffs)
    # l divides the gcd where both operands carry it, and not where one does
    assert min(taken[kind, True] for kind in ("both", "monomials", "zero")) >= 30, taken
    assert min(taken[kind, False] for kind in ("a", "b", "neither")) >= 30, taken
    assert taken["gaussian"] >= 150, taken


def test_poly_gcd_proves_coprime_pairs_by_one_prime_image_randomized(monkeypatch):
    # coprime pairs end at their image over F_p; pairs with a common factor,
    # and pairs whose leading coefficient maps to 0 mod p (a multiple of p,
    # or -s + i with s^2 = -1 mod p), run the subresultant sequence
    rng = random.Random("modular-gcd")
    calls = []
    prem = ratfun._prem
    monkeypatch.setattr(ratfun, "_prem", lambda *a: calls.append(1) or prem(*a))

    def poly(deg, lead=None):
        # a constant term 1-9 keeps the integer content from dividing p out of the lead
        cs = [
            GaussianRational(rng.randint(-9, 9), rng.randint(-3, 3) * (rng.random() < 0.5))
            for _ in range(deg - 1)
        ]
        lead = lead or GaussianRational(rng.randint(1, 9), rng.randint(-3, 3))
        return Poly([GaussianRational(rng.randint(1, 9))] + cs + [lead])

    leads = [None, GaussianRational(_P * rng.randint(1, 5)), GaussianRational(-_SQRT_M1, 1)]
    taken = Counter()
    for case in range(360):
        lead, shared = leads[case % 3], case % 2
        # a shared factor carries the lead, so that its image loses degree
        a, b = poly(rng.randint(1, 8), None if shared else lead), poly(rng.randint(1, 8))
        if shared:
            common = poly(rng.randint(1, 3), lead)
            a, b = a * common, b * common
        calls.clear()
        g = poly_gcd(a, b)
        assert g == poly_gcd_euclid(a, b) == poly_gcd(b, a), (poly_to_string(a), poly_to_string(b))
        assert bool(calls) == (lead is not None or g.degree > 0), (poly_to_string(a), poly_to_string(b))
        taken[lead is None, g.degree > 0] += 1
    assert taken[True, False] >= 50 and taken[True, True] >= 60 and taken[False, False] >= 100, taken


def test_poly_gcd_of_the_recorded_degree_14_gaussian_pair():
    # the characteristic polynomial of a seed-1 charpoly-spectrum graph and
    # its derivative, as squarefree_decompose takes their gcd; a remainder
    # sequence that removes only integer content swells on this pair
    p = rf(
        "l^14-l^13+(-5+8i)*l^12+(-33+11i)*l^11+(-90+4i)*l^10+(-159-546i)*l^9"
        "+(289-2196i)*l^8+(5664-8549i)*l^7+(6089-21617i)*l^6+(-9655-51677i)*l^5"
        "+(-7904-158297i)*l^4+(4579-295989i)*l^3+(45510-303037i)*l^2"
        "+(61141-159847i)*l+(46452-27292i)"
    ).num
    dp = p.derivative()
    assert poly_gcd(p, dp) == poly_gcd_euclid(p, dp) == Poly.one()
    # the same pair with a planted squared Gaussian factor
    f = Poly([GaussianRational(1, -2), GaussianRational(3, 1)])
    q = p * f**2
    dq = q.derivative()
    assert poly_gcd(q, dq) == poly_gcd_euclid(q, dq) == f.monic()


def _random_poly(rng, kind):
    """A polynomial for the product and power tests: ``kind`` is one of
    "zero", "constant", "monomial" (c * l^k), "rational" or "gaussian"."""

    def coeff(gaussian):
        return GaussianRational(
            Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7))),
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) if gaussian else 0,
        )

    def nonzero(gaussian):
        c = coeff(gaussian)
        while not c:
            c = coeff(gaussian)
        return c

    if kind == "zero":
        return Poly.zero()
    if kind == "constant":
        return Poly.const(nonzero(rng.random() < 0.5))
    if kind == "monomial":
        return Poly.const(nonzero(rng.random() < 0.5)) * L.num ** rng.randint(1, 9)
    gaussian = kind == "gaussian"
    return Poly([coeff(gaussian) for _ in range(rng.randint(1, 4))] + [nonzero(gaussian)])


def _convolve(a: Poly, b: Poly) -> Poly:
    """a * b by the schoolbook convolution over every pair of places."""
    if not a or not b:
        return Poly.zero()
    out = [GaussianRational(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def test_mul_by_one_term_and_sub_equal_the_schoolbook_randomized():
    # a one-term operand c * l^j is a scale and a shift; either side may hold it
    rng = random.Random("one-term")
    taken = Counter()
    for case in range(400):
        kind = ("c", "1", "c*l^j", "l^j")[case % 4]
        c = Poly.const(1) if kind in ("1", "l^j") else _random_poly(rng, "constant")
        a = c * L.num ** rng.randint(1, 40) if "l" in kind else c
        b = _random_poly(rng, ("zero", "constant", "monomial", "rational", "gaussian")[case // 4 % 5])
        if case % 3 == 0:
            b = b * L.num ** rng.randint(1, 5)
        assert a * b == b * a == _convolve(a, b), (poly_to_string(a), poly_to_string(b))
        assert a - b == a + (-b) and b - a == b + (-a)
        taken[kind, b.degree > 0] += 1
    assert min(taken.values()) >= 10 and len(taken) == 8, taken


def _coefficientwise(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b, place by place on the Fraction parts of every place."""
    n = max(len(a.coeffs), len(b.coeffs))
    zero = (Fraction(0), Fraction(0))
    xs = [(c.re, c.im) for c in a.coeffs] + [zero] * (n - len(a.coeffs))
    ys = [(c.re, c.im) for c in b.coeffs] + [zero] * (n - len(b.coeffs))
    return Poly(GaussianRational(p + sign * r, q + sign * s) for (p, q), (r, s) in zip(xs, ys))


def test_sparse_sums_and_differences_equal_the_coefficientwise_reference_randomized():
    # a place holding the shared zero is skipped; monomials c * l^k hold it
    # below their term, and so does what adds or subtracts one
    rng = random.Random("sparse-sums")
    kinds = ("zero", "constant", "monomial", "rational", "gaussian")
    taken = Counter()
    for case in range(500):
        a, b = (_random_poly(rng, rng.choice(kinds)) for _ in range(2))
        if case % 5 == 0 and a:
            # b is a's leading term, so a - b (and a + (-b)) loses it
            lead = Poly.const(a.coeffs[-1]) * L.num ** a.degree
            b = lead if rng.random() < 0.5 else lead + _random_poly(rng, "monomial")
            if b.degree < a.degree:
                continue
        if case % 7 == 0:
            a = a + _random_poly(rng, "monomial") * L.num ** rng.randint(0, 6)
        for x, y in ((a, b), (b, a)):
            for sign, got in ((1, x + y), (-1, x - y)):
                want = _coefficientwise(x, y, sign)
                assert got == want, (poly_to_string(x), sign, poly_to_string(y))
                assert hash(got) == hash(want)
        assert -a == _coefficientwise(Poly.zero(), a, -1)
        taken["zero operand"] += not a or not b
        taken["monomials"] += a.degree > 0 and b.degree > 0 and len([c for c in a.coeffs + b.coeffs if c]) == 2
        taken["cancelled lead"] += bool(a) and (a - b).degree < a.degree == b.degree
        taken["gaussian"] += any(c.im for c in a.coeffs + b.coeffs)
    assert min(taken.values()) >= 10, taken


def test_scalar_additions_reading_back_a_printed_weight_grow_linearly_in_its_terms(monkeypatch):
    # a printed weight is a sum of c * l^k terms; each term costs a bounded
    # number of scalar additions, not one per place of the running sum
    count = Counter()
    for name in ("__add__", "__sub__"):
        op = getattr(GaussianRational, name)
        monkeypatch.setattr(GaussianRational, name, lambda x, y, op=op: count.update(("op",)) or op(x, y))
    for base in ("l+1", "l-1", "(1+i)*l-2", "(l^2+3*l+1)/(l-1)", "1/(l+1)^2+1/(l-1)^2"):
        per_term = []
        for n in (16, 32, 64):
            value = rf(f"({base})^{n}")
            text = format_weight(value)
            terms = sum(1 for c in value.num.coeffs + value.den.coeffs if c)
            count.clear()
            assert rf(text) == value
            per_term.append(count["op"] / terms)
        assert max(per_term) <= 4 and per_term[-1] <= 1.25 * per_term[0], (base, per_term)


def test_poly_product_equals_repeated_binary_products_randomized():
    rng = random.Random("poly-product")
    kinds = ("zero", "constant", "monomial", "rational", "gaussian")
    taken = Counter()
    assert poly_product([]) == Poly.one()
    for case in range(300):
        n = case % 9
        # one list in four holds one kind of factor only
        only = kinds[case // 4 % 5] if case % 4 == 0 else None
        factors = [_random_poly(rng, only or rng.choices(kinds, (1, 3, 3, 5, 5))[0]) for _ in range(n)]
        got = poly_product(factors)
        assert got == reduce(operator.mul, factors, Poly.one()), [poly_to_string(f) for f in factors]
        if n == 1:
            assert got is factors[0]
        taken["zero"] += not got and n > 0
        taken["one factor"] += n == 1
        taken["constants"] += n > 1 and all(f.degree == 0 for f in factors)
        taken["monomials"] += n > 1 and only == "monomial"
        taken["rational"] += n > 1 and bool(got) and not any(c.im for f in factors for c in f.coeffs)
        taken["gaussian"] += n > 1 and any(c.im for f in factors for c in f.coeffs)
    assert min(taken.values()) >= 10, taken


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_power_equals_repeated_binary_products_randomized(n):
    rng = random.Random(f"power-{n}")
    kinds = ("zero", "constant", "monomial", "rational", "gaussian")
    for case in range(25 if n == 64 else 100):
        p = _random_poly(rng, kinds[case % 5])
        if n == 64 and p.degree > 2:
            p = Poly(p.coeffs[-3:])
        assert p**n == reduce(operator.mul, [p] * n, Poly.one()), poly_to_string(p)


def test_poly_lcm_equals_the_product_over_the_gcd_randomized():
    rng = random.Random("poly-lcm")
    for _ in range(200):
        a, b, _ = random_gcd_pair(rng)
        want = (a * b).exact_div(poly_gcd(a, b)).monic() if a and b else Poly.zero()
        assert poly_lcm(a, b) == poly_lcm(b, a) == want, (poly_to_string(a), poly_to_string(b))


def test_the_cleared_view_is_never_written_randomized():
    # division, gcd and root location read each operand's cached lists; a
    # write into them would leave the view unequal to a fresh clearing
    rng = random.Random("cleared-view")

    def intact(*ps):
        return all(p.gaussian_ints() == _gaussian_ints(p.coeffs) for p in ps)

    for _ in range(150):
        a, b, common = random_gcd_pair(rng)
        a, b = a * L.num ** rng.randint(0, 3), b * L.num ** rng.randint(0, 3)
        views = [p.gaussian_ints() for p in (a, b, common)]
        if a:
            p = a * common
            assert intact(p, common, p.exact_div(common))
        g = poly_gcd(a, b)
        assert intact(a, b, g)
        if a.degree > 0 and a.degree <= 12:
            for f, _ in squarefree_decompose(a):
                _squarefree_roots(f)
                assert intact(f)
            poly_roots(a)
        assert intact(a, b, common)
        assert all(p.gaussian_ints() is v for p, v in zip((a, b, common), views))


@pytest.mark.parametrize("base, den", [("l+1", "l-1"), ("l^2+3*l+1", "l-1")])
def test_power_weights_parse_to_the_binary_products(base, den):
    # the parser's power runs on the cleared form; 128 binary products of
    # the bases, canonicalized by the general constructor, are the reference
    num_ref = reduce(operator.mul, [rf(base).num] * 128, Poly.one())
    den_ref = reduce(operator.mul, [rf(den).num] * 128, Poly.one())
    assert rf(f"({base})^128/({den})^128") == RatFun(num_ref, den_ref)


@pytest.mark.parametrize(
    "suite,seed,name,broken,message",
    [
        ("squarefree_suite", 3, "squarefree_decompose", lambda p: [], "reconstruction differs, p="),
        (
            "squarefree_suite", 3, "poly_gcd_euclid", lambda a, b: Poly.zero(),
            "gcd(p, p') differs from the Euclidean gcd, p=",
        ),
        (
            "squarefree_suite", 3, "poly_divmod", lambda a, b: (Poly.zero(), Poly.zero()),
            "exact_div by a factor differs from the Q(i) long division, p=",
        ),
        ("parse_format_suite", 2, "parse_weight", lambda text: ZERO, "round-trip failed on "),
    ],
    ids=["squarefree-decompose", "squarefree-gcd", "squarefree-divmod", "parse-format"],
)
def test_weight_suite_failures_carry_replay_data(monkeypatch, suite, seed, name, broken, message):
    monkeypatch.setattr(proptest, name, broken)
    failures = [f for f in getattr(proptest, suite)(cases=6, seed=seed).failures if message in f]
    assert failures
    label = suite[: -len("_suite")].replace("_", "-")
    for line in failures:
        head, _, text = line.partition(message)
        assert re.fullmatch(f"{label} seed={seed} case=[0-9]+: ", head), line
        # the text alone replays the case against the unbroken code
        value = parse_weight(text)
        if suite == "parse_format_suite":
            assert parse_weight(format_weight(value)) == value
        else:
            p = value.num
            assert value.den == Poly.one()
            assert poly_gcd(p, p.derivative()) == poly_gcd_euclid(p, p.derivative())
            rebuilt = Poly.one()
            for f, m in squarefree_decompose(p):
                rebuilt = rebuilt * f**m
                assert p.exact_div(f) == poly_divmod(p, f)[0]
            assert rebuilt.monic() == p.monic()


def _replay_pi(g, sets, text):
    a, b, c = (parse_weight(field.partition("=")[2]) for field in text.split(" "))
    return (a * b / (L - c)).pi() < a.pi() + b.pi()


def _replay_removal(g, sets, text):
    (target,) = sets
    h = g
    for v in g.vertices:
        if v not in target:
            h = remove_vertex(h, v)
    return unique_reduce_to(g, target)[0] == h


def _replay_removal_exceptions(g, sets, text):
    (target,) = sets
    h, ref = g, ForbiddenSet.empty()
    for v in g.vertices:
        if v not in target:
            h, ref = remove_vertex(h, v), ref.union(forbidden_set(h, set(h.vertices) - {v}))
    n = unique_reduce_to(g, target)[1]
    return (n.poly, n.to_json_dict()) == (ref.poly, ref.to_json_dict())


def _replay_determinants(g, sets, text):
    mat = [[parse_weight(w) for w in row] for row in json.loads(text)]
    return det_ratfun_matrix(mat) == det_leibniz(mat)


@pytest.mark.parametrize(
    "suite,seed,target,broken,message,replay",
    [
        ("pi_rule_suite", 1, (RatFun, "pi"), lambda self: 0, "pi(ab/(l-c)) not reduced, ", _replay_pi),
        (
            "commutativity_suite", 11, (proptest, "unique_reduce_to"),
            lambda g, t: (g, ForbiddenSet.empty()),
            "unique reduction differs from manual removal", _replay_removal,
        ),
        (
            "commutativity_suite", 11, (proptest, "unique_reduce_to"),
            lambda g, t: (unique_reduce_to(g, t)[0], ForbiddenSet.empty()),
            "unique reduction's exception set differs", _replay_removal_exceptions,
        ),
        (
            "gpi_closure_suite", 13, (proptest, "is_structural_set"), lambda g, s: False,
            "single-vertex complement not structural",
            lambda g, sets, text: is_structural_set(g, sets[0]),
        ),
        (
            "scc_suite", 14, (proptest, "reduced_scc_check"), lambda g, s: SimpleNamespace(ok=False),
            "component blocks mismatch",
            lambda g, sets, text: reduced_scc_check(g, sets[0]).ok,
        ),
        (
            "oracle_suite", 17, (proptest, "det_leibniz"), lambda m: ZERO,
            "elimination and expansion determinants differ, matrix=", _replay_determinants,
        ),
        (
            "isomorphism_suite", 20, (proptest, "isomorphic"), lambda g, h: None,
            "relabeled graph not recognized",
            lambda g, sets, text: isomorphic(g, g) is not None,
        ),
        (
            "transpose_suite", 21, (proptest, "charpoly_numerators_equal"), lambda g, h: False,
            "transpose changed the spectrum",
            lambda g, sets, text: charpoly_numerators_equal(g, g.transpose()),
        ),
    ],
    ids=[
        "pi-rules", "removal-commutativity", "removal-commutativity-exceptions", "degree-gap-closure",
        "scc", "oracles", "isomorphism", "graph-basics",
    ],
)
def test_graph_suite_failures_carry_replay_data(monkeypatch, suite, seed, target, broken, message, replay):
    monkeypatch.setattr(*target, broken)
    result = getattr(proptest, suite)(cases=6, seed=seed)
    monkeypatch.undo()
    planted = [f for f in result.failures if message in f]
    assert planted
    for line in result.failures:
        assert re.match(f"{result.name} seed={seed} case=[0-9]+[: ]", line), line
        if " graph=" in line:
            head, _, rest = line.partition(" graph=")
            data, end = json.JSONDecoder().raw_decode(rest)
            WeightedDigraph.from_json_dict(data)
            assert rest[end:].startswith(": "), line
    for line in planted:
        # the line alone replays the case against the unbroken code
        head, _, text = line.partition(message)
        g = sets = None
        if " graph=" in head:
            tag, _, rest = head.partition(" graph=")
            data, end = json.JSONDecoder().raw_decode(rest)
            assert rest[end:] == ": "
            g = WeightedDigraph.from_json_dict(data)
            sets = [step.split(",") if step else [] for step in tag.partition(" set=")[2].split(";")]
        assert replay(g, sets, text), line
