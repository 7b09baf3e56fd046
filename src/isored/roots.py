"""Numeric roots of exact polynomials.

Multiplicities are never inferred numerically: the polynomial is first
split into squarefree factors exactly, then each factor's simple roots are
located by companion-matrix eigenvalues and polished with Newton steps
against the exact coefficients.

Double precision locates a cluster of nearly coincident simple roots only
to about the square root of machine epsilon, so when companion roots come
out closer than a cluster threshold the factor is re-solved with mpmath at
50 digits; elsewhere plain float arithmetic is plenty.

A degree-1 factor is solved by one division, so numpy is imported only
when the first factor of degree 2 or more is met, and mpmath only at the
first cluster: a command whose polynomials are all linear loads neither.

Roots are located in double precision or not at all.  When a coefficient
or a root falls outside the double range (it overflows, or Newton's
method leaves it infinite or NaN), or mpmath does not converge on a
cluster, ``RootLocationError`` is raised; no NaN or infinite root is
ever returned.  It is raised too, before any work, for a polynomial of
degree past ``MAX_ROOT_DEGREE``.
"""

from __future__ import annotations

import cmath
from typing import List, Tuple

from .ratfun import Poly, horner, squarefree_decompose

_CLUSTER_TOL = 1e-5

# the most degree a polynomial may have for its roots to be located: the
# companion eigenvalues cost the cube of the degree in time and its square
# in memory (one thread on a 2-CPU x86 machine: 4.8 s and 22 MiB at degree
# 1200, 16.9 s and 64 MiB at 2048)
MAX_ROOT_DEGREE = 2048


class RootLocationError(ValueError):
    """The roots of a polynomial cannot be located in double precision."""


def _newton_polish(f: Poly, roots: List[complex]) -> List[complex]:
    fc = f.complex_coeffs()
    dfc = f.derivative().complex_coeffs()
    polished = []
    for r in roots:
        z = complex(r)
        for _ in range(12):
            fz = horner(fc, z)
            dz = horner(dfc, z)
            if dz == 0:
                break
            step = fz / dz
            z -= step
            if abs(step) < 1e-14 * max(1.0, abs(z)):
                break
        polished.append(z)
    return polished


def _has_cluster(roots: List[complex]) -> bool:
    scale = max(1.0, max(abs(z) for z in roots))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < _CLUSTER_TOL * scale:
                return True
    return False


def _roots_high_precision(f: Poly) -> List[complex]:
    import mpmath
    from mpmath.libmp import NoConvergence

    with mpmath.workdps(50):
        coeffs = []
        for c in reversed(f.coeffs):
            re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
            im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
            coeffs.append(mpmath.mpc(re, im))
        try:
            found = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        except NoConvergence:
            raise _refusal(f, "mpmath does not converge on its root cluster") from None
        return [complex(z) for z in found]


def _refusal(f: Poly, why: str) -> RootLocationError:
    return RootLocationError(f"cannot locate the roots of a degree-{f.degree} factor: {why}")


def _all_finite(values: List[complex]) -> bool:
    return all(cmath.isfinite(z) for z in values)


def _squarefree_roots(f: Poly) -> List[complex]:
    deg = f.degree
    try:
        coeffs = f.complex_coeffs()
        monic = [c / coeffs[-1] for c in coeffs[:-1]]
    except (OverflowError, ZeroDivisionError):
        raise _refusal(f, "its coefficients leave double range") from None
    if not _all_finite(monic):
        raise _refusal(f, "its coefficients leave double range")
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    import numpy as np

    comp = np.zeros((deg, deg), dtype=complex)
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = [-c for c in monic]
    roots = list(np.linalg.eigvals(comp))
    roots = _roots_high_precision(f) if _has_cluster(roots) else _newton_polish(f, roots)
    if not _all_finite(roots):
        raise _refusal(f, "its root estimates leave double range")
    return roots


def poly_roots(p: Poly) -> List[Tuple[complex, int, Poly]]:
    """All complex roots of ``p`` as (value, multiplicity, squarefree witness).

    The witness is the monic squarefree factor the root annihilates.
    Results are sorted by (real, imag).
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every value as a root")
    if p.degree > MAX_ROOT_DEGREE:
        raise RootLocationError(
            f"cannot locate the roots of a degree-{p.degree} polynomial: "
            f"its degree passes the ceiling of {MAX_ROOT_DEGREE}"
        )
    out: List[Tuple[complex, int, Poly]] = []
    for factor, mult in squarefree_decompose(p):
        for z in _squarefree_roots(factor):
            out.append((z, mult, factor))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out
