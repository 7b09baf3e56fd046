"""Numeric roots of exact polynomials, each certified or refused.

Factors are squarefree, so multiplicities are exact, and a root 0 is split
off exactly.  Aberth's iteration (Bini 1996) starts on the circles of the
Newton polygon of the coefficient moduli, and runs first on complex doubles,
f and f' by Horner's rule at z or, past the unit circle, in the reversed
polynomial at 1/z, until each root settles or its value drowns in the
rounding bound.
The certified sweeps follow, on double iterates with f and f' evaluated in
fixed point from each iterate's exact binary value under a rigorous
truncation bound, until each correction is at most 2^-48 |z|.  The corrected
roots are accepted only if the discs D(z_i, d |f(z_i)| / |lc prod_{j != i}
(z_i - z_j)|) are pairwise disjoint, so each holds one root (Braess & Hadeler
1973; Carstensen 1991), and each, grown by its correction, has radius at most
2^-40 |z_i|.  Roots that doubles cannot part go on as exact dyadic
rationals.  For a factor with real coefficients, a disc that meets the real
axis and whose mirror image meets no other disc holds a real root, which is
returned with imaginary part 0.  Everything runs on Python numbers.

Inside ``located_once``, which ``cli.main`` enters for each command, each
monic squarefree factor is located once and looked up after: by the
identity det(M - lI) = prod (w_vv - l) det(R_S - lI), sigma(G), sigma(R_S)
and the exception set share most of their factors.  The table is dropped
when the block ends, so calls outside it keep nothing."""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

from .ratfun import Poly, squarefree_decompose

# the most degree whose roots are located: a sweep on d roots and n terms
# costs d (n + d) time, the iterates d memory (2-CPU x86: l^1200 - 1 in
# 1.5 s and a dense degree-1200 integer polynomial in 8.1 s, 3.7 s and 22 s
# at d = 2048, each under 1.5 MiB)
MAX_ROOT_DEGREE = 2048
# the most work of Aberth's sweeps on one factor: a certified sweep at p bits
# on d roots and n terms costs d (n + d / 64) p, but at most half of the
# whole; a double sweep on m roots still moving costs m (n + d), but at most
# 1/32 of the whole, and the double sweeps stop once they have spent half
MAX_SWEEP_WORK = 2**24


# the roots of each factor located inside ``located_once``, by factor
_located: dict[Poly, list[complex]] | None = None


class RootLocationError(ValueError):
    """A coefficient or root leaves the double range, the discs are not
    certified within MAX_SWEEP_WORK, or the degree passes MAX_ROOT_DEGREE."""


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _log2(x: float) -> float:
    return math.log2(x) if x else -math.inf


def _logaddexp2(a: float, b: float) -> float:
    hi, lo = max(a, b), min(a, b)
    return hi if lo == -math.inf else hi + math.log2(1 + 2.0 ** (lo - hi))


def _evaluate(terms, d: int, x, y, p: int):
    """(f(z) / (z f'(z)), log2 |f(z)| rounded up, P) at z = x + iy for the
    Gaussian-integer f of degree d with terms (k, re, im), from k = 0 up.
    With 2^t <= |z| < 2^(t+1), each truncated power of w = z / 2^t at P >= p
    bits is off by < sqrt(2) (2k - 1) |w|^(k-1) 2^-P to first order, so the
    exact sum of a_k w^k 2^(tk) by < 2^(1.5 - P) d sum |a_k z^k|."""
    (mx, dx), (my, dy) = x.as_integer_ratio(), y.as_integer_ratio()
    e = max(dx, dy).bit_length() - 1
    wr, wi = mx * ((1 << e) // dx), my * ((1 << e) // dy)  # z * 2^e
    t = ((wr * wr + wi * wi).bit_length() - 1) // 2 - e
    big = max(p, e + t)
    wr, wi = wr << (big - e - t), wi << (big - e - t)  # w * 2^P
    cr, ci, fr, fi, gr, gi, last = 1 << big, 0, 0, 0, 0, 0, 0
    for k, ar, ai in terms:
        n, vr, vi, last = k - last, wr, wi, k
        while n:  # c <- c w^n by repeated squaring, each product truncated
            if n & 1:
                cr, ci = (cr * vr - ci * vi) >> big, (cr * vi + ci * vr) >> big
            n >>= 1
            if n:
                vr, vi = (vr * vr - vi * vi) >> big, (vr * vi) >> (big - 1)
        s = t * k if t >= 0 else -t * (d - k)
        hr, hi = (ar * cr - ai * ci) << s, (ar * ci + ai * cr) << s
        fr, fi, gr, gi = fr + hr, fi + hi, gr + k * hr, gi + k * hi
    n2 = gr * gr + gi * gi  # f / (z f') is F / G, by correctly rounded int divisions
    q = complex((fr * gr + fi * gi) / n2, (fi * gr - fr * gi) / n2) if n2 else math.inf
    return q, math.log2(fr * fr + fi * fi + 1) / 2 - big + min(t, 0) * d, big


def _starts(ks, la, d: int) -> list[complex]:
    """Aberth's starts (Bini 1996): on each edge of the upper convex hull of
    the points (k, log2 |a_k|), from k0 to k1, k1 - k0 points spread evenly
    on the circle of radius (|a_k0| / |a_k1|)^(1 / (k1 - k0)), turned by
    2 pi k0 / d + 0.7 so that no two circles line up.  The starts of a real
    factor are not made conjugate-symmetric: the double sweeps keep such a
    set symmetric, and with it the number of real iterates."""
    hull: list[tuple[int, float]] = []
    for k, a in zip(ks, la):
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (a - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (k - hull[-2][0]):
            hull.pop()
        hull.append((k, a))
    z = []
    for (k0, a0), (k1, a1) in zip(hull, hull[1:]):
        m, r = k1 - k0, 2.0 ** ((a0 - a1) / (k1 - k0))
        turns = [2 * math.pi * (j / m + k0 / d) + 0.7 for j in range(m)]
        z += [complex(r * math.cos(t), r * math.sin(t)) for t in turns]
    return z


def _double_sweeps(terms, la, z: list[complex], work: int):
    """Aberth sweeps on complex doubles from z, each root updated in turn
    (Gauss-Seidel) and left once it takes a correction below 2^-26 |z|,
    which near a simple root leaves it within about a rounding of it, or
    once its value drowns in the rounding bound of Horner's rule,
    4 (d + 1) 2^-53 sum |a_k x^k|: the iterates, uncertified, and the work
    left."""
    d, n = terms[-1][0], len(terms)
    scale = 2 ** int(max(la))
    cs = [(k, complex(ar / scale, ai / scale)) for k, ar, ai in terms]
    # Horner's rule on descending powers, of z for |z| <= 1 and of 1/z in
    # the reversed polynomial for |z| > 1 (f / (z f') is the same), as
    # (power step from the term before, a_k, k a_k, |a_k|)
    inner = [(j - k, a, k * a, abs(a)) for (k, a), (j, _) in zip(cs[::-1], cs[-1:] + cs[:0:-1])]
    outer = [(k - j, a, k * a, abs(a)) for (k, a), (j, _) in zip(cs, cs[:1] + cs[:-1])]
    # at |x| <= 1 the rounding bound is at most noise * sum |a_k|
    noise = 4 * (d + 1) * 2.0**-53
    loose = noise * sum(abs(a) for _, a in cs)
    moving = list(range(d))
    while moving and work > MAX_SWEEP_WORK // 2:
        work -= min(len(moving) * (n + d), MAX_SWEEP_WORK // 32)
        still = []
        for i in moving:
            # z[i] reads infinite while the others' pull on it is summed
            zi, z[i], zn = z[i], math.inf, z[i]
            try:
                horner, x = (inner, zi) if abs(zi) <= 1 else (outer, 1 / zi)
                f = g = s = 0j
                for step, a, ka, _ in horner:
                    w = x if step == 1 else x**step
                    f = f * w + a
                    g = g * w + ka
                for zj in z:
                    s += 1 / (zi - zj)
                newton = zi * f / g
                c = newton / (1 - newton * s)
                if _finite(zi - c):
                    zn = zi - c
                    moved = abs(c) > 2.0**-26 * abs(zi)
                    if moved and (abs(f) > loose or abs(f) > noise * _bound(horner, abs(x))):
                        still.append(i)
            except (ZeroDivisionError, OverflowError):
                pass
            z[i] = zn
        moving = still
    return z, work


def _bound(horner, ax: float) -> float:
    """sum |a_k| x^k by Horner's rule on the terms of ``_double_sweeps``."""
    out = 0.0
    for step, _, _, aa in horner:
        out = out * ax**step + aa
    return out


def _aberth(terms, la, z, work: int, p: int):
    """The roots by Aberth sweeps from z on doubles until the corrections are
    at most 2^-48 |z|, or, for p > 128, on Fractions from z nudged 2^-60 |z|
    apart, p doubling when they settle or drown in the bound; else None.
    The real roots of a factor with real coefficients come back real."""
    d, n, wide = terms[-1][0], len(terms), p > 128
    ks, top, real = [t[0] for t in terms], max(la), not any(t[2] for t in terms)
    if wide:
        turns = [2 * math.pi * k / d for k in range(d)]
        z = [zk + abs(zk) * 2.0**-60 * complex(math.cos(t), math.sin(t)) for zk, t in zip(z, turns)]
    z = [zk or complex(2.0 ** (la[0] - top - 1)) for zk in z]  # no root is 0, nor smaller (Cauchy)
    num = Fraction if wide else float
    xr, xi = [num(zk.real) for zk in z], [num(zk.imag) for zk in z]
    polished, slack, lift = False, 2.5 + math.log2(d * n), 1 + math.log2(d) - la[-1] + 1e-6
    while work > 0:
        work -= min(d * (n + d // 64) * p, MAX_SWEEP_WORK // 2)
        z = [complex(x, y) for x, y in zip(xr, xi)]
        c, log_r, ok, noisy = [], [], True, False
        for i, zi in enumerate(z):
            q, log_f, big = _evaluate(terms, d, xr[i], xi[i], p)
            if wide:
                diff = [complex(xr[i] - xr[j], xi[i] - xi[j]) for j in range(d) if j != i]
            else:
                diff = [zi - zj for zj in z[:i] + z[i + 1 :]]
            dist = list(map(abs, diff))
            span = math.prod(dist)
            log_min = _log2(min(dist))
            log_sum = math.log2(span) if 1e-300 < span < 1e300 else sum(map(_log2, dist))
            try:  # coincident iterates take no correction, and part only once nudged
                newton = zi * q
                ci = newton / (1 - newton * sum(1 / dj for dj in diff))
            except (ZeroDivisionError, OverflowError):
                ci = 0j
            ci = ci if _finite(ci) else 0j
            log_z = _log2(abs(zi))
            log_err = slack - big + max(a + k * log_z for k, a in zip(ks, la))
            r = max(log_f, log_err) + lift - log_sum
            # z - c, rounded, lies within |c| + 2^-51 |z| of z
            g = _logaddexp2(r, _log2(abs(ci) + 2.0**-51 * abs(zi)))
            certified = g <= log_z - 40 and r < log_min - 1
            ok = ok and certified
            # p is too small where an uncertified root's value drowns in the bound
            noisy = noisy or (not certified and log_f < log_err + 8)
            c.append(ci)
            log_r.append(r)
        settled = all(abs(ci) <= 2.0 ** (16 - p if wide else -48) * abs(zi) for ci, zi in zip(c, z))
        if (settled or wide) and ok:
            found = [zi - ci for zi, ci in zip(z, c)]
            return _realness(xr, xi, log_r, found) if real else found
        # settled doubles are each within a rounding of their root once
        # corrected, so a second settled sweep that fails shows that
        # doubles cannot part them
        if settled and polished:
            return _roots_high_precision(terms, la, z, work)
        polished = settled and not wide
        xr = [x - num(ci.real) for x, ci in zip(xr, c)]
        xi = [y - num(ci.imag) for y, ci in zip(xi, c)]
        p *= 1 + bool(wide and (settled or noisy))
    return None


def _realness(xr, xi, log_r, found: list[complex]) -> list[complex]:
    """``found`` with the imaginary part of each real root set to 0, for a
    factor with real coefficients whose pairwise disjoint discs D(x_i + i y_i,
    2^log_r_i) hold one root each: the conjugate of the root in disc i lies
    in the mirror image of the disc, so if that meets no other disc, the
    root is its own conjugate."""
    # rounded up past the underflow, so a radius never reads 0
    rad = [2.0**r + 5e-324 for r in log_r]
    out = list(found)
    for i, (x, y, r) in enumerate(zip(xr, xi, rad)):
        if abs(y) <= r and all(
            abs(complex(x - xr[j], -y - xi[j])) > r + rad[j] for j in range(len(xr)) if j != i
        ):
            out[i] = complex(found[i].real, 0.0)
    return out


def _roots_high_precision(terms, la, z, work: int):
    """The sweeps on exact dyadic iterates, for roots doubles cannot part."""
    return _aberth(terms, la, z, work, 256)


def _squarefree_roots(f: Poly) -> list[complex]:
    if f.degree > 1 and not f.coeffs[0]:
        return [0j] + _squarefree_roots(Poly(f.coeffs[1:]))
    refusal = f"cannot locate the roots of a degree-{f.degree} factor: "
    try:
        if f.degree == 1:
            coeffs = f.complex_coeffs()
            return [-coeffs[0] / coeffs[1]]
        terms = [(k, a, b) for k, (a, b) in enumerate(zip(*f.gaussian_ints()[:2])) if a or b]
        la = [math.log2(a * a + b * b) / 2 for _, a, b in terms]
        z = _starts([t[0] for t in terms], la, f.degree)
        z, work = _double_sweeps(terms, la, z, MAX_SWEEP_WORK)
        roots = _aberth(terms, la, z, work, 128)
    except (OverflowError, ValueError):
        raise RootLocationError(refusal + "its coefficients or roots leave double range") from None
    if roots is None:
        raise RootLocationError(refusal + "its discs are not certified within the sweep ceiling")
    return roots


@contextmanager
def located_once():
    """A block in which each monic squarefree factor is located only once."""
    global _located
    _located = {}
    try:
        yield
    finally:
        _located = None


def _located_roots(f: Poly) -> list[complex]:
    if _located is None:
        return _squarefree_roots(f)
    if f not in _located:
        _located[f] = _squarefree_roots(f)
    return _located[f]


def poly_roots(p: Poly) -> list[tuple[complex, int, Poly]]:
    """All complex roots of ``p`` as (value, multiplicity, witness), sorted by
    (real, imag); the witness is the monic squarefree factor the root kills."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every value as a root")
    if p.degree > MAX_ROOT_DEGREE:
        raise RootLocationError(f"cannot locate the roots of a degree-{p.degree} polynomial: "
                                f"its degree passes the ceiling of {MAX_ROOT_DEGREE}")
    out = [(z, m, f) for f, m in squarefree_decompose(p) for z in _located_roots(f)]
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))
