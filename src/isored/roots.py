"""Numeric roots of exact polynomials, each certified or refused.

Factors are squarefree, so multiplicities are exact, and a root 0 is split
off exactly.  Aberth's iteration (Bini 1996) runs from the companion
eigenvalues on double iterates, f and f' evaluated in fixed point from each
iterate's exact binary value under a rigorous truncation bound, until each
correction is at most 2^-48 |z|.  The corrected roots are accepted only if the
discs D(z_i, d |f(z_i)| / |lc prod_{j != i} (z_i - z_j)|) are pairwise
disjoint, so each holds one root (Braess & Hadeler 1973; Carstensen 1991),
and each, grown by its correction, has radius at most 2^-40 |z_i|.  Roots
that doubles cannot part go on as exact dyadic rationals.  numpy loads at
the first factor of degree 2 or more."""

from __future__ import annotations

import math
from fractions import Fraction

from .ratfun import Poly, _gaussian_ints, squarefree_decompose

# the most degree whose roots are located: eigvals cost d^3 time, d^2 memory
# (one thread, 2-CPU x86: 4.8 s and 22 MiB at d = 1200, 16.9 s and 64 MiB at 2048)
MAX_ROOT_DEGREE = 2048
# the most work of Aberth's sweeps on one factor, a sweep at p bits on d roots
# and n terms costing d (n + d / 64) p, but at most half of the whole
MAX_SWEEP_WORK = 2**24


class RootLocationError(ValueError):
    """A coefficient or root leaves the double range, the discs are not
    certified within MAX_SWEEP_WORK, or the degree passes MAX_ROOT_DEGREE."""


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


def _aberth(terms, la, z, work: int, p: int):
    """The roots by Aberth sweeps from z on doubles until the corrections are
    at most 2^-48 |z|, or, for p > 128, on Fractions from z nudged 2^-60 |z|
    apart, p doubling when they settle or drown in the bound; else None."""
    import numpy as np
    d, ks, wide = terms[-1][0], np.array([t[0] for t in terms]), p > 128
    num = np.frompyfunc(Fraction, 1, 1) if wide else np.asarray
    z = z + wide * np.abs(z) * 2.0**-60 * np.exp(2j * np.pi * np.arange(d) / d)
    z[z == 0] = 2.0 ** (la[0] - la.max() - 1)  # no root is 0, nor smaller (Cauchy)
    xr, xi = num(z.real), num(z.imag)
    while work > 0:
        work -= min(d * (len(ks) + d // 64) * p, MAX_SWEEP_WORK // 2)
        q, log_f, big = np.array([_evaluate(terms, d, x, y, p) for x, y in zip(xr, xi)]).T
        z = xr.astype(float) + 1j * xi.astype(float)
        diff = (xr[:, None] - xr).astype(float) + 1j * (xi[:, None] - xi).astype(float)
        np.fill_diagonal(diff, np.inf)
        with np.errstate(all="ignore"):
            newton = z * q
            c = newton / (1 - newton * (1 / diff).sum(1))
            c[~np.isfinite(c)] = 0
            log_z, log_d = np.log2(np.abs(z)), np.log2(np.abs(diff))
            log_err = 2.5 + math.log2(d * len(ks)) - big.real + (la + np.outer(log_z, ks)).max(1)
            log_min = log_d.min(1)
            np.fill_diagonal(log_d, 0)
            log_r = np.maximum(log_f.real, log_err) + 1 + math.log2(d) - la[-1] - log_d.sum(1) + 1e-6
            # z - c, rounded, lies within |c| + 2^-51 |z| of z
            grown = np.logaddexp2(log_r, np.log2(np.abs(c) + 2.0**-51 * np.abs(z)))
            settled = np.all(np.abs(c) <= 2.0 ** (16 - p if wide else -48) * np.abs(z))
            certified = (grown <= log_z - 40) & (log_r < log_min - 1)
            if (settled or wide) and certified.all():
                return list(map(complex, z - c))
            # p is too small where an uncertified root's value drowns in the bound
            noisy = np.any(~certified & (log_f.real < log_err + 8))
        if settled and not wide:
            return _roots_high_precision(terms, la, z, work)
        xr, xi, p = xr - num(c.real), xi - num(c.imag), p * (1 + bool(wide and (settled or noisy)))
    return None


def _roots_high_precision(terms, la, z, work: int):
    """The sweeps on exact dyadic iterates, for roots doubles cannot part."""
    return _aberth(terms, la, z, work, 256)


def _squarefree_roots(f: Poly) -> list[complex]:
    if f.degree > 1 and not f.coeffs[0]:
        return [0j] + _squarefree_roots(Poly(f.coeffs[1:]))
    refusal = f"cannot locate the roots of a degree-{f.degree} factor: "
    try:
        coeffs = f.complex_coeffs()
        if f.degree == 1:
            return [-coeffs[0] / coeffs[1]]
        import numpy as np
        comp = np.diag(np.ones(f.degree - 1, dtype=complex), -1)
        comp[:, -1] = [-c for c in coeffs[:-1]]
        terms = [(k, a, b) for k, (a, b) in enumerate(zip(*_gaussian_ints(f.coeffs)[:2])) if a or b]
        la = np.array([math.log2(a * a + b * b) / 2 for _, a, b in terms])
        roots = _aberth(terms, la, np.linalg.eigvals(comp), MAX_SWEEP_WORK, 128)
    except (OverflowError, ValueError):
        raise RootLocationError(refusal + "its coefficients or roots leave double range") from None
    if roots is None:
        raise RootLocationError(refusal + "its discs are not certified within the sweep ceiling")
    return roots


def poly_roots(p: Poly) -> list[tuple[complex, int, Poly]]:
    """All complex roots of ``p`` as (value, multiplicity, witness), sorted by
    (real, imag); the witness is the monic squarefree factor the root kills."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every value as a root")
    if p.degree > MAX_ROOT_DEGREE:
        raise RootLocationError(f"cannot locate the roots of a degree-{p.degree} polynomial: "
                                f"its degree passes the ceiling of {MAX_ROOT_DEGREE}")
    out = [(z, m, f) for f, m in squarefree_decompose(p) for z in _squarefree_roots(f)]
    return sorted(out, key=lambda t: (t[0].real, t[0].imag))
