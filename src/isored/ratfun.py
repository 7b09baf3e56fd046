"""Exact arithmetic in the edge-weight field: rational functions of one
variable with Gaussian-rational coefficients.

Representation
--------------
GaussianRational   a + b*i with a, b exact ``fractions.Fraction`` values.
Poly               coefficient tuple in ascending degree; the last entry is
                   nonzero, the zero polynomial is the empty tuple.
RatFun             a quotient num/den of two Poly values kept in canonical
                   form: gcd(num, den) = 1, den monic, zero is 0/1.

Because the denominator is monic and common factors are always removed,
every field element has exactly one representation, so ``==`` on RatFun is
field equality.  All three types are immutable and hashable.

``RatFun(num, den)`` is the general canonicaliser: it divides out
gcd(num, den).  The field operations never call it on a cross product.
Their operands are already coprime, so Henrici's algorithms (Knuth, TAOCP
vol. 2, 4.5.1) need only gcds of the operands' own parts:

* a/b + c/d with g = gcd(b, d), b = b1*g, d = d1*g: t = a*d1 + c*b1 is
  coprime to b1 and to d1, so only h = gcd(t, g) can cancel, and
  (t/h) / (b1*(d/h)) is coprime.  With g = 1 (in particular when b or d
  is the constant 1) there is nothing to cancel at all.
* (a/b)*(c/d): a is coprime to b and c to d, so cancelling gcd(a, d)
  and gcd(c, b) leaves a coprime product; a quotient is the product with
  c/d inverted, and a power num^n/den^n is coprime as it stands.

What is left is making the denominator monic.  The result is the same
canonical form the general canonicaliser gives, at the cost of gcds of
polynomials about half the degree of the cross products.

:func:`poly_gcd` splits the powers of l off both operands, clears what is
left to Gaussian-integer polynomials, returns 1 at once when their image
over one prime field proves them coprime, and else runs the subresultant
remainder sequence over Z[i] (Collins 1967; Brown 1971), so no
``Fraction`` arithmetic happens until the last remainder is made monic.
The gcd is unique up to a unit, so this is the same monic polynomial the
Euclidean algorithm over Q(i) gives (``oracles.poly_gcd_euclid``, the
reference).  :meth:`Poly.exact_div`, the one polynomial division (Bareiss
steps, Henrici cancellation, Yun's squarefree split), is long division
over Z[i] through the same clearing, ``_gaussian_ints``; division with a
remainder over Q(i) is ``oracles.poly_divmod``, the reference.
:func:`format_weight` prints through that clearing too, applied to the
numerator's and denominator's coefficients together.

The weight grammar accepted by :func:`parse_weight` (whitespace ignored)::

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := ('-')? atom ('^' uint)?
    atom     := rational | rational 'i' | 'i' | var | '(' expr ')'
    rational := uint ('/' uint)? | decimal-with-finite-digits
    var      := 'l' | 'lambda'

``rational`` is lexed greedily, so ``3/2`` is a single rational atom and
``3/2i`` means (3/2)*i, but an exponent is a ``uint`` and takes no
``/``: ``l^4/2`` means (l^4)/2.  Digits are the ones ``int`` reads (so
not superscripts), and a numeral is converted by ``Fraction``; one it
cannot convert (a zero denominator, or more digits than Python converts)
is a :class:`ParseError`.  The unicode variable name is also accepted on
input; :func:`format_weight` always emits ``l``, and what it prints
parses back to the same weight.  A coefficient with more digits than
Python converts could not, so printing it is a ``ValueError``.
Parentheses may nest at most ``MAX_PAREN_DEPTH`` deep; deeper input is a
:class:`ParseError`.

The parser judges the cost of every power, product and quotient before it
computes it, from the values it has.  A power is judged by a degree and a
bound on the coefficient bit length that adds up under products
(``_power_size``): it may reach at most ``MAX_POWER`` in degree and in bit
bound, and the powers of one weight together at most ``MAX_POWER_WORK``
in their product.  A product or quotient is judged by what its two
polynomial multiplies cost (``_multiply_work``): the numerator and
denominator it builds may reach at most ``MAX_POWER`` in degree, and the
coefficient products it computes at most ``MAX_PRODUCT_WORK``, so a
constant or a monomial times a long polynomial, the form
:func:`format_weight` prints, stays cheap, while dense times dense is
refused.  A sum is not judged, and neither is the gcd that cancels common
factors in a sum, product or quotient.  Past any ceiling the weight is a
:class:`ParseError` at the operator.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, List, Sequence

NEG_INF = float("-inf")

_F0 = Fraction(0)
_F1 = Fraction(1)


class ParseError(ValueError):
    """Malformed weight expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianRational(a * c, _F0)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c, d = other.re, other.im
        if not d:
            return GaussianRational(self.re / c, self.im / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def inverse(self):
        return GR_ONE / self

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


class Poly:
    """Univariate polynomial over the Gaussian rationals.

    ``coeffs`` is an ascending-degree tuple with nonzero leading entry;
    the zero polynomial is the empty tuple and has degree ``NEG_INF``.
    The hash is computed on first use and kept, since a tuple rehashes
    every coefficient on each call.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[GaussianRational] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _P_ZERO

    @staticmethod
    def one() -> "Poly":
        return _P_ONE

    @staticmethod
    def var() -> "Poly":
        return _P_VAR

    @staticmethod
    def const(c) -> "Poly":
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        return Poly((c,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; ``NEG_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.coeffs)
            return self._hash

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return _P_ZERO
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        # the nonzero terms of each operand; a place no product has touched
        # holds the shared GR_ZERO, which the identity test skips at once
        xs = [(k, c) for k, c in enumerate(self.coeffs) if c is not GR_ZERO and c]
        ys = [(k, c) for k, c in enumerate(other.coeffs) if c is not GR_ZERO and c]
        for ia, ca in xs:
            for ib, cb in ys:
                out[ia + ib] = out[ia + ib] + ca * cb
        return Poly(out)

    def scale(self, c: GaussianRational) -> "Poly":
        if not c:
            return _P_ZERO
        return Poly(tuple(k * c for k in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = _P_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def exact_div(self, other: "Poly") -> "Poly":
        """The quotient ``self / other``, which must be a polynomial.

        Long division over Z[i]: both operands are cleared to
        Gaussian-integer polynomials, and each quotient coefficient is
        t * conj(lc) / |lc|^2 for the leading remainder coefficient t and
        the divisor's leading coefficient lc.  Where |lc|^2 does not divide
        that, the rest of the remainder and a running integer denominator
        are multiplied by |lc|^2 first.  ``Fraction`` coefficients are built
        once, from the integer quotient, its denominators and the scales.
        Division by the constant 1 returns ``self`` at once.
        """
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.coeffs:
            return _P_ZERO
        if other.coeffs == _P_ONE.coeffs:
            return self
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            raise ValueError("inexact polynomial division")
        # descending degree; self = (ar + ai*i) * ka/ma, other = (br + bi*i) * kb/mb
        ar, ai, (ma, ka) = _gaussian_ints(self.coeffs[::-1])
        br, bi, (mb, kb) = _gaussian_ints(other.coeffs[::-1])
        lr, li = br[0], bi[0]
        n = lr * lr + li * li
        br, bi = br[1:], bi[1:]
        dd = len(br)
        den = 1
        quot = []  # (re, im, den): one quotient coefficient times den
        for k in range(dq + 1):
            tr, ti = ar[k], ai[k]
            qr, qi = tr * lr + ti * li, ti * lr - tr * li
            if qr % n or qi % n:
                # scaled by n, the coefficient is t * n * conj(lc) / n
                ar[k + 1 :] = [x * n for x in ar[k + 1 :]]
                ai[k + 1 :] = [y * n for y in ai[k + 1 :]]
                den *= n
            else:
                qr, qi = qr // n, qi // n
            quot.append((qr, qi, den))
            if qr or qi:
                # the remainder less q * x^(dq-k) * (other without its lead)
                zs = list(zip(ar[k + 1 : k + 1 + dd], ai[k + 1 : k + 1 + dd], br, bi))
                ar[k + 1 : k + 1 + dd] = [x - qr * c + qi * d for x, y, c, d in zs]
                ai[k + 1 : k + 1 + dd] = [y - qr * d - qi * c for x, y, c, d in zs]
        if any(ar[dq + 1 :]) or any(ai[dq + 1 :]):
            raise ValueError("inexact polynomial division")
        # self / other = (quotient over Z[i]) * fn / fd
        fn, fd = ka * mb, ma * kb
        out = Poly.__new__(Poly)
        out.coeffs = tuple(
            GaussianRational(
                Fraction(qr * fn, d * fd) if qr else _F0,
                Fraction(qi * fn, d * fd) if qi else _F0,
            )
            for qr, qi, d in reversed(quot)
        )
        return out

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == GR_ONE:
            return self
        return self.scale(lead.inverse())

    def derivative(self) -> "Poly":
        return Poly(
            tuple(c * GaussianRational(k) for k, c in enumerate(self.coeffs) if k)
        )

    def eval_complex(self, z: complex) -> complex:
        return horner(self.complex_coeffs(), z)

    def complex_coeffs(self) -> List[complex]:
        return [c.to_complex() for c in self.coeffs]

    def __repr__(self):
        return f"Poly({poly_to_string(self)!r})"


def horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Value at ``z`` of the ascending-degree coefficients ``coeffs``."""
    out = 0j
    for c in reversed(coeffs):
        out = out * z + c
    return out


_P_ZERO = Poly.__new__(Poly)
_P_ZERO.coeffs = ()
_P_ONE = Poly.__new__(Poly)
_P_ONE.coeffs = (GR_ONE,)
_P_VAR = Poly.__new__(Poly)
_P_VAR.coeffs = (GR_ZERO, GR_ONE)


# -- gcd over the Gaussian integers -------------------------------------
# A Gaussian-integer polynomial is a pair of int lists (real parts,
# imaginary parts) in descending degree; a Gaussian integer is an int pair.


def _gaussian_ints(cs: Sequence[GaussianRational]):
    """The coefficients ``cs`` cleared to Gaussian integers with integer
    content 1, as (real parts, imaginary parts) in the order given, and the
    scale m/k as the int pair (m, k): the cleared values are ``cs`` times
    the lcm m of their denominators, over the gcd k of the resulting
    integers."""
    parts = [c.re for c in cs] + [c.im for c in cs]
    dens = [f.denominator for f in parts]
    nums = [f.numerator for f in parts]
    m = int_lcm(*dens)
    if m > 1:
        nums = [x * (m // d) for x, d in zip(nums, dens)]
    k = int_gcd(*nums)
    if k > 1:
        nums = [x // k for x in nums]
    return nums[: len(cs)], nums[len(cs) :], (m, k)


def _gpow(ar: int, ai: int, n: int):
    """The Gaussian integer (ar + ai*i)^n, by repeated squaring."""
    rr, ri = 1, 0
    while n:
        if n & 1:
            rr, ri = rr * ar - ri * ai, rr * ai + ri * ar
        n >>= 1
        if n:
            ar, ai = ar * ar - ai * ai, 2 * ar * ai
    return rr, ri


def _gdiv(ar: int, ai: int, sr: int, si: int):
    """The exact quotient of two Gaussian integers."""
    if not si:
        return ar // sr, ai // sr
    n = sr * sr + si * si
    return (ar * sr + ai * si) // n, (ai * sr - ar * si) // n


def _prem(ur, ui, vr, vi):
    """Pseudo-remainder of u by v (deg u >= deg v >= 1): the remainder of
    lc(v)^(deg u - deg v + 1) * u, leading zeros stripped."""
    lr, li = vr[0], vi[0]
    pad = [0] * (len(ur) - len(vr))
    vr, vi = vr[1:] + pad, vi[1:] + pad
    for _ in range(len(pad) + 1):
        # u <- lc(v) * u - lc(u) * x^k * v, which cancels the leading term;
        # zip stops at the end of u, so the padded v lines up term by term
        tr, ti = ur[0], ui[0]
        zs = list(zip(ur[1:], ui[1:], vr, vi))
        ur = [lr * a - li * b - tr * c + ti * d for a, b, c, d in zs]
        ui = [lr * b + li * a - tr * d - ti * c for a, b, c, d in zs]
    k = 0
    while k < len(ur) and not ur[k] and not ui[k]:
        k += 1
    return ur[k:], ui[k:]


# a prime p = 5 (mod 8), so that 2 is a non-residue and 2^((p-1)/4) is a
# square root of -1 mod p: i -> _SQRT_M1 maps Z[i] onto F_p
_P = 2**61 + 21
_SQRT_M1 = pow(2, (_P - 1) // 4, _P)


def _coprime_mod_p(ur, ui, vr, vi) -> bool:
    """Whether the images over F_p of the Gaussian-integer polynomials u and
    v (deg u >= deg v >= 1) keep their leading terms and have a constant
    gcd, which proves u and v coprime over Q(i): the primitive gcd G over
    Z[i] divides both, so its image, of the same degree, divides theirs."""
    p, s = _P, _SQRT_M1
    a = [(x + s * y) % p for x, y in zip(ur, ui)]
    b = [(x + s * y) % p for x, y in zip(vr, vi)]
    if not a[0] or not b[0]:
        return False
    while len(b) > 1:
        # a mod b by long division, the quotient's places left in a
        n, inv = len(b), pow(b[0], -1, p)
        for k in range(len(a) - n + 1):
            q = a[k] * inv % p
            if q:
                a[k + 1 : k + n] = [(x - q * y) % p for x, y in zip(a[k + 1 : k + n], b[1:])]
        k = len(a) - n + 1
        while k < len(a) and not a[k]:
            k += 1
        a, b = b, a[k:]
    return bool(b)


def _order(cs: Sequence[GaussianRational]) -> int:
    """The order of vanishing at 0 of the nonzero polynomial with the
    ascending coefficients ``cs``: the index of the first nonzero one."""
    k = 0
    while not cs[k]:
        k += 1
    return k


def _times_l(cs: Sequence[GaussianRational], k: int) -> Poly:
    """The monic polynomial l^k times the one with ascending coefficients
    ``cs``, whose leading coefficient is 1."""
    if not k and len(cs) == 1:
        return _P_ONE
    out = Poly.__new__(Poly)
    out.coeffs = (GR_ZERO,) * k + tuple(cs)
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by the subresultant PRS over Z[i].

    Powers of l are split off first: with v the order of vanishing at 0,
    gcd(a, b) = l^min(v_a, v_b) gcd(a / l^v_a, b / l^v_b), so a chain of
    eliminations' l^k never enters the remainder sequence.  What is left is
    cleared to Gaussian-integer polynomials.  If one image over a fixed
    prime field proves them coprime (``_coprime_mod_p``), their gcd is 1.
    Else the Collins-Brown subresultant remainder sequence (Brown 1971, "On
    Euclid's algorithm and the computation of polynomial greatest common
    divisors") divides each pseudo-remainder exactly by g * h^delta, which
    keeps the coefficients small without any gcd of coefficients.  The last
    nonzero remainder is a Gaussian-integer multiple of the gcd over Q(i),
    which is made monic.
    """
    if not b.coeffs:
        return a.monic()
    if not a.coeffs:
        return b.monic()
    va, vb = _order(a.coeffs), _order(b.coeffs)
    shift = min(va, vb)
    ac, bc = a.coeffs[va:], b.coeffs[vb:]
    if len(ac) < len(bc):
        ac, bc = bc, ac
    if len(bc) == 1:
        return _times_l((GR_ONE,), shift)
    ur, ui, _ = _gaussian_ints(ac[::-1])
    vr, vi, _ = _gaussian_ints(bc[::-1])
    if _coprime_mod_p(ur, ui, vr, vi):
        return _times_l((GR_ONE,), shift)
    gr, gi, hr, hi = 1, 0, 1, 0
    while True:
        delta = len(ur) - len(vr)
        rr, ri = _prem(ur, ui, vr, vi)
        if not rr:
            break
        if len(rr) == 1:
            return _times_l((GR_ONE,), shift)
        # v <- prem(u, v) / (g * h^delta), then g <- lc(u), h <- g^delta / h^(delta-1)
        sr, si = _gpow(hr, hi, delta)
        sr, si = gr * sr - gi * si, gr * si + gi * sr
        ur, ui = vr, vi
        if not si:
            vr, vi = [x // sr for x in rr], [y // sr for y in ri]
        else:
            n = sr * sr + si * si
            vr = [(x * sr + y * si) // n for x, y in zip(rr, ri)]
            vi = [(y * sr - x * si) // n for x, y in zip(rr, ri)]
        gr, gi = ur[0], ui[0]
        if delta:
            hr, hi = _gdiv(*_gpow(gr, gi, delta), *_gpow(hr, hi, delta - 1))
    k = int_gcd(*vr, *vi)
    if k > 1:
        vr, vi = [x // k for x in vr], [y // k for y in vi]
    lr, li = vr[0], vi[0]
    n = lr * lr + li * li
    # c / lc = c * conj(lc) / |lc|^2
    cs = [
        GaussianRational(Fraction(x * lr + y * li, n), Fraction(y * lr - x * li, n))
        for x, y in zip(vr[:0:-1], vi[:0:-1])
    ]
    cs.append(GR_ONE)
    return _times_l(cs, shift)


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if not a.coeffs or not b.coeffs:
        return _P_ZERO
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def squarefree_decompose(p: Poly):
    """Yun decomposition ``p = lead * prod f_i^(m_i)``.

    Returns a list of (monic squarefree factor, multiplicity) pairs with
    pairwise-coprime factors; constants decompose to the empty list.  A
    squarefree p, whose gcd with p' is 1, is returned as [(p, 1)] at once,
    as the loop would return it.  A root 0 stays inside its factor: the
    factor f_i with l | f_i has multiplicity m_i, and is printed as the
    witness of its roots.
    """
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    out = []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
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


class RatFun:
    """Canonical rational function num/den over the Gaussian rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = _P_ZERO
            self.den = _P_ONE
            return
        self.num, self.den = _monic_den(*_cancel(num, den))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RatFun":
        return RF_ZERO

    @staticmethod
    def one() -> "RatFun":
        return RF_ONE

    @staticmethod
    def var() -> "RatFun":
        return RF_VAR

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c))

    @staticmethod
    def from_int(k: int) -> "RatFun":
        return RatFun(Poly.const(GaussianRational(k)))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.coeffs)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.coeffs[0] if self.num.coeffs else GR_ZERO

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    # -- field operations ---------------------------------------------
    # Henrici's algorithms: see the module docstring.

    def __add__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a.coeffs:
            return other
        if not c.coeffs:
            return self
        if b.degree == 0 and d.degree == 0:  # both monic constants, so 1
            t = a + c
            return _coprime(t, _P_ONE) if t.coeffs else RF_ZERO
        g = poly_gcd(b, d) if b.degree > 0 and d.degree > 0 else _P_ONE
        if g.degree > 0:
            b1 = b.exact_div(g)
            t = a * d.exact_div(g) + c * b1
            if t.coeffs:
                h = poly_gcd(t, g)
                if h.degree > 0:
                    t = t.exact_div(h)
                    d = d.exact_div(h)
            b = b1
        else:
            t = a * d + c * b
        if not t.coeffs:
            return RF_ZERO
        return _coprime(t, b * d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _coprime(-self.num, self.den)

    def __mul__(self, other):
        if not self.num.coeffs or not other.num.coeffs:
            return RF_ZERO
        return _product(self.num, self.den, other.num, other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if not self.num.coeffs:
            return RF_ZERO
        return _product(self.num, self.den, other.den, other.num)

    def __pow__(self, n: int):
        if n < 0:
            return RF_ONE / (self ** (-n))
        return _coprime(self.num ** n, self.den ** n)

    def inverse(self) -> "RatFun":
        return RF_ONE / self

    # -- analysis -----------------------------------------------------

    def pi(self):
        """deg(num) - deg(den); ``NEG_INF`` for the zero function."""
        if not self.num.coeffs:
            return NEG_INF
        return self.num.degree - self.den.degree

    def __repr__(self):
        return f"RatFun({format_weight(self)!r})"

    def __str__(self):
        return format_weight(self)


def _monic_den(num: Poly, den: Poly):
    """``num`` and ``den`` scaled so that ``den`` is monic."""
    lead = den.coeffs[-1]
    if lead != GR_ONE:
        inv = lead.inverse()
        return num.scale(inv), den.scale(inv)
    return num, den


def _coprime(num: Poly, den: Poly) -> RatFun:
    """``num/den`` for coprime ``num`` and nonzero ``den``: there is nothing
    to cancel, so this only makes the denominator monic."""
    out = RatFun.__new__(RatFun)
    out.num, out.den = _monic_den(num, den)
    return out


def _cancel(p: Poly, q: Poly):
    """``p/g, q/g`` for ``g = gcd(p, q)``; a constant side has g = 1."""
    if p.degree > 0 and q.degree > 0:
        g = poly_gcd(p, q)
        if g.degree > 0:
            return p.exact_div(g), q.exact_div(g)
    return p, q


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFun:
    """``(a/b)(c/d)`` for coprime pairs (a, b) and (c, d), cancelling a
    against d and c against b before multiplying."""
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _coprime(a * c, b * d)


RF_ZERO = RatFun.__new__(RatFun)
RF_ZERO.num = _P_ZERO
RF_ZERO.den = _P_ONE
RF_ONE = RatFun.__new__(RatFun)
RF_ONE.num = _P_ONE
RF_ONE.den = _P_ONE
RF_VAR = RatFun.__new__(RatFun)
RF_VAR.num = _P_VAR
RF_VAR.den = _P_ONE


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------


def _frac_str(f) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _terms(re: Sequence, im: Sequence) -> List[str]:
    """The nonzero monomials of the polynomial whose ascending-degree
    coefficients are re + im*i (ints or Fractions), highest degree first,
    each with its sign except a leading '+'."""
    out = []
    for k in range(len(re) - 1, -1, -1):
        a, b = re[k], im[k]
        if not a and not b:
            continue
        var = "" if k == 0 else ("l" if k == 1 else f"l^{k}")
        if a and b:
            sign, body = "+", f"({_frac_str(a)}{'+' if b > 0 else '-'}{_frac_str(abs(b))}i)"
            if var:
                body = f"{body}*{var}"
        else:
            sign = "+" if (b or a) > 0 else "-"
            body = f"{_frac_str(abs(b))}i" if b else _frac_str(abs(a))
            if var:
                body = var if body == "1" else f"{body}*{var}"
        out.append(body if sign == "+" and not out else sign + body)
    return out


def poly_to_string(p: Poly) -> str:
    return "".join(_terms([c.re for c in p.coeffs], [c.im for c in p.coeffs])) or "0"


def format_weight(r: RatFun) -> str:
    """Normalized ``num/den`` string: num and den cleared together to
    Gaussian integers with content 1.  The den is monic, so its cleared
    leading coefficient is a positive integer and fixes the sign.  A
    numerator of two or more terms is parenthesized, and so is a
    denominator unless it is one integer or one power of ``l``."""
    if r.is_zero():
        return "0"
    re, im, _ = _gaussian_ints(r.num.coeffs + r.den.coeffs)
    k = len(r.num.coeffs)
    try:
        num, den = _terms(re[:k], im[:k]), _terms(re[k:], im[k:])
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise ValueError(
            f"cannot print a weight: a coefficient passes Python's {sys.get_int_max_str_digits()}"
            "-digit limit on integers as text, so it could not be read back"
        ) from None
    ns, ds = "".join(num), "".join(den)
    if ds == "1":
        return ns
    if len(num) > 1:
        ns = f"({ns})"
    # a one-term den has the positive integer leading coefficient re[-1]
    if len(den) > 1 or (len(re) > k + 1 and re[-1] != 1):
        ds = f"({ds})"
    return f"{ns}/{ds}"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

_VAR_NAMES = ("lambda", "l", "λ")

# a numeral: the digits are those int() reads, and the optional group is
# the '/denominator' of a rational, which an exponent (a uint) never takes
_NUMERAL = re.compile(r"\d+(?:\.\d+|(/\d+))?")

# the parser recurses through four frames per parenthesis level, so this
# bound keeps it well inside Python's default limit of 1000 frames
MAX_PAREN_DEPTH = 200

# the most degree, and the most coefficient bits, a power may reach: a few
# characters such as l^1000000000 would otherwise ask for 10^9 coefficients
MAX_POWER = 4096

# the most degree times coefficient bits the powers of one weight may reach
# together: a dense power costs about the cube of its exponent, so
# (l+1)^512 (about 0.5 s on a 2-CPU x86 machine) is admitted, and
# (l+1)^2000 (12.5 s) and (l+1)^512+(l+1)^512 are not
MAX_POWER_WORK = 2**18

# the most coefficient products a product or quotient may compute, each
# counted once more for every 2048 bits of its operands' bit bounds: the
# last squaring of (l+1)^512, (l+1)^256 times itself (66,049, about 0.4 s
# on a 2-CPU x86 machine), is admitted, and (l+1)^512 times itself
# (263,169, 1.7 s) is not
MAX_PRODUCT_WORK = 2**17


def _poly_bits(p: Poly) -> int:
    """A bound on the coefficient bit length of ``p`` that adds up under
    products: for p = P * k/m with P over Z[i] (``_gaussian_ints``), the
    coefficients of a product P*Q are bounded by the product of the
    1-norms, so ceil(log2) of the 1-norm plus ceil(log2 max(m, k))."""
    re, im, (m, k) = _gaussian_ints(p.coeffs)
    norm = sum(map(abs, re)) + sum(map(abs, im))
    return (norm - 1).bit_length() + (max(m, k) - 1).bit_length()


def _power_size(r: RatFun):
    """What each unit of an exponent adds, at most, to the degree and to
    the coefficient bit length of a power of ``r``, as a pair: the larger
    degree, and the larger ``_poly_bits``, of its numerator and
    denominator."""
    if not r.num.coeffs:
        return 0, 0  # a power of zero is zero or one
    return max(r.num.degree, r.den.degree), max(_poly_bits(r.num), _poly_bits(r.den))


def _multiply_work(p: Poly, q: Poly) -> int:
    """What the schoolbook ``p * q`` costs, in coefficient products: one
    for each pair of nonzero coefficients, and one more for each 2048 bits
    of the two ``_poly_bits`` together, past which a big-int product
    outweighs the ``Fraction`` arithmetic around it."""
    pairs = sum(1 for c in p.coeffs if c) * sum(1 for c in q.coeffs if c)
    return pairs * (1 + (_poly_bits(p) + _poly_bits(q)) // 2048)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, None, i))
                i += 1
                continue
            m = _NUMERAL.match(text, i)
            if m:
                end = m.end()
                if m.group(1) and self.tokens and self.tokens[-1][0] == "^":
                    end = m.start(1)  # l^4/2 is (l^4)/2
                try:
                    val = Fraction(text[i:end])
                except ZeroDivisionError:
                    raise ParseError("zero denominator in rational", i) from None
                except ValueError:
                    raise ParseError("numeral has too many digits", i) from None
                self.tokens.append(("num", val, i))
                i = end
                continue
            if ch.isalpha():
                start = i
                while i < n and text[i].isalpha():
                    i += 1
                word = text[start:i]
                if word == "i":
                    self.tokens.append(("imag", None, start))
                elif word in _VAR_NAMES:
                    self.tokens.append(("var", None, start))
                else:
                    raise ParseError(f"unknown name {word!r}", start)
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        t = self.tokens[self.idx]
        self.idx += 1
        return t


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)
        self.depth = 0
        self.power_work = 0  # what the powers computed so far charged

    def parse(self) -> RatFun:
        value = self.expr()
        kind, _, pos = self.lex.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self) -> RatFun:
        value = self.term()
        while True:
            kind, _, _ = self.lex.peek()
            if kind == "+":
                self.lex.next()
                value = value + self.term()
            elif kind == "-":
                self.lex.next()
                value = value - self.term()
            else:
                return value

    def term(self) -> RatFun:
        value = self.factor()
        while True:
            kind, _, pos = self.lex.peek()
            if kind not in ("*", "/"):
                return value
            self.lex.next()
            rhs = self.factor()
            if kind == "/" and rhs.is_zero():
                raise ParseError("division by zero", pos)
            if value and rhs:
                top, bottom = (rhs.num, rhs.den) if kind == "*" else (rhs.den, rhs.num)
                what = "product" if kind == "*" else "quotient"
                if max(value.num.degree + top.degree, value.den.degree + bottom.degree) > MAX_POWER:
                    raise ParseError(f"the {what} passes the ceiling of {MAX_POWER} on degree", pos)
                if _multiply_work(value.num, top) + _multiply_work(value.den, bottom) > MAX_PRODUCT_WORK:
                    raise ParseError(
                        f"the {what} passes the ceiling of {MAX_PRODUCT_WORK} on coefficient products",
                        pos,
                    )
            value = value * rhs if kind == "*" else value / rhs

    def factor(self) -> RatFun:
        kind, _, _ = self.lex.peek()
        negate = False
        if kind == "-":
            self.lex.next()
            negate = True
        value = self.atom()
        kind, _, pos = self.lex.peek()
        if kind == "^":
            self.lex.next()
            ekind, eval_, epos = self.lex.next()
            if ekind != "num" or eval_.denominator != 1 or eval_ < 0:
                raise ParseError("exponent must be an unsigned integer", epos)
            n = int(eval_)
            degree, bits = _power_size(value)
            if n * max(degree, bits) > MAX_POWER:
                raise ParseError(
                    f"the power passes the ceiling of {MAX_POWER} on degree and coefficient bits",
                    pos,
                )
            self.power_work += n * degree * n * bits
            if self.power_work > MAX_POWER_WORK:
                raise ParseError(
                    f"the power passes the ceiling of {MAX_POWER_WORK} on degree times coefficient bits",
                    pos,
                )
            value = value ** n
        return -value if negate else value

    def atom(self) -> RatFun:
        kind, val, pos = self.lex.next()
        if kind == "num":
            nkind, _, _ = self.lex.peek()
            if nkind == "imag":
                self.lex.next()
                return RatFun.const(GaussianRational(0, val))
            return RatFun.const(GaussianRational(val))
        if kind == "imag":
            return RatFun.const(GR_I)
        if kind == "var":
            return RF_VAR
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
            value = self.expr()
            self.depth -= 1
            ckind, _, cpos = self.lex.next()
            if ckind != ")":
                raise ParseError("expected ')'", cpos)
            return value
        raise ParseError("expected a number, 'i', variable, or '('", pos)


def parse_weight(text: str) -> RatFun:
    """Parse a weight expression into a canonical RatFun."""
    return _Parser(text).parse()
