"""Exact characteristic determinants and spectra.

The spectrum of a graph is the solution list, with multiplicities, of
``det(M(l) - l*I) = 0`` where the determinant is taken over the weight
field.  The determinant canonicalizes to ``num/den``; the solutions are
the roots of ``num`` (poles are cancelled by canonicality), their
multiplicities come from the exact squarefree decomposition, and numeric
root values are companion-matrix eigenvalues polished by Newton steps.

``char_det`` clears each row's denominators and runs a fraction-free
(Bareiss) elimination, which avoids per-step gcds.  It is the one
determinant route; the tests cross-check it against the fraction-field
elimination and permutation-expansion oracles in :mod:`isored.oracles`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .ratfun import Poly, RatFun, poly_gcd, poly_lcm, poly_to_string
from .roots import poly_roots
from .structural import DEDUP_TOL, ForbiddenPoint, ForbiddenSet
from .wgraph import WeightedDigraph


def _det_poly_bareiss(rows: List[List[Poly]]) -> Poly:
    """Fraction-free determinant of a polynomial matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return Poly.one()
    m = [row[:] for row in rows]
    sign = 1
    prev = Poly.one()
    zero = Poly.zero()
    for k in range(n - 1):
        pivot_row = None
        best = None
        for r in range(k, n):
            if m[r][k]:
                d = m[r][k].degree
                if best is None or d < best:
                    best, pivot_row = d, r
        if pivot_row is None:
            return zero
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pk = m[k][k]
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            mik = row[k]
            for j in range(k + 1, n):
                num = pk * row[j] - mik * top[j]
                row[j] = num.exact_div(prev)
            row[k] = zero
        prev = pk
    det = m[n - 1][n - 1]
    return -det if sign == -1 else det


def char_matrix(g: WeightedDigraph) -> List[List[RatFun]]:
    """M(g) - l*I over the weight field."""
    mat = g.adjacency_matrix()
    lam = RatFun.var()
    for k in range(g.n):
        mat[k][k] = mat[k][k] - lam
    return mat


def char_det(g: WeightedDigraph) -> RatFun:
    """det(M(g) - l*I) as a canonical rational function; the empty graph
    gives the constant one."""
    if g.n == 0:
        return RatFun.one()
    mat = char_matrix(g)
    cleared: List[List[Poly]] = []
    scale = Poly.one()
    for row in mat:
        common = Poly.one()
        for e in row:
            if e.den.degree > 0:
                common = poly_lcm(common, e.den)
        cleared.append(
            [e.num * common.exact_div(e.den) if e else Poly.zero() for e in row]
        )
        scale = scale * common
    return RatFun(_det_poly_bareiss(cleared), scale)


class SpectralPoint:
    """One spectrum entry: numeric root, exact multiplicity, and the monic
    squarefree polynomial witnessing the root."""

    __slots__ = ("value", "multiplicity", "witness")

    def __init__(self, value: complex, multiplicity: int, witness: Optional[Poly]):
        self.value = complex(value)
        self.multiplicity = int(multiplicity)
        self.witness = witness

    def __repr__(self):
        return f"SpectralPoint({self.value:.6g}, x{self.multiplicity})"


class SpectralList:
    """A spectrum: multiset of roots stored as (value, multiplicity,
    witness) entries sorted by (real, imag)."""

    __slots__ = ("points", "charpoly")

    def __init__(self, points: Iterable[SpectralPoint], charpoly: Optional[RatFun] = None):
        pts = sorted(points, key=lambda p: (p.value.real, p.value.imag))
        self.points = tuple(pts)
        self.charpoly = charpoly

    def total(self) -> int:
        return sum(p.multiplicity for p in self.points)

    def values(self) -> List[complex]:
        """Roots expanded with multiplicity, sorted."""
        out: List[complex] = []
        for p in self.points:
            out.extend([p.value] * p.multiplicity)
        return out

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        inner = ", ".join(
            f"{p.value:.6g}" + (f"x{p.multiplicity}" if p.multiplicity > 1 else "")
            for p in self.points
        )
        return f"SpectralList({{{inner}}})"

    def to_json_dict(self) -> dict:
        data = {
            "roots": [
                {
                    "re": float(p.value.real),
                    "im": float(p.value.imag),
                    "mult": p.multiplicity,
                }
                for p in self.points
            ]
        }
        if self.charpoly is not None:
            data["charpoly_num"] = poly_to_string(self.charpoly.num)
            data["charpoly_den"] = poly_to_string(self.charpoly.den)
        return data


def spectrum(g: WeightedDigraph) -> SpectralList:
    """Roots, with exact multiplicities, of the numerator of char_det."""
    cd = char_det(g)
    if cd.num.degree <= 0:
        return SpectralList([], cd)
    pts = [
        SpectralPoint(z, mult, witness) for z, mult, witness in poly_roots(cd.num)
    ]
    return SpectralList(pts, cd)


def _root_matches_point(
    value: complex, witness: Optional[Poly], fp: ForbiddenPoint, tol: float
) -> bool:
    if witness is not None:
        if witness == fp.witness:
            return abs(value - fp.value) <= max(tol, DEDUP_TOL)
        g = poly_gcd(witness, fp.witness)
        if g.degree > 0 and abs(g.eval_complex(value)) <= 1e-6:
            return abs(value - fp.value) <= max(tol, 1e-6)
    return abs(value - fp.value) <= tol


def spectrum_minus(
    sl: SpectralList, forbidden: ForbiddenSet, tol: float = DEDUP_TOL
) -> SpectralList:
    """Drop every entry whose root matches a forbidden point; removal is
    by value, so all copies of a matching root go at once."""
    kept = [
        p
        for p in sl.points
        if not any(
            _root_matches_point(p.value, p.witness, fp, tol) for fp in forbidden
        )
    ]
    return SpectralList(kept, None)


class MatchReport:
    """Result of a tolerance-matched multiset comparison of two spectra."""

    __slots__ = ("ok", "pairs", "unmatched_left", "unmatched_right")

    def __init__(self, ok, pairs, unmatched_left, unmatched_right):
        self.ok = ok
        self.pairs = pairs
        self.unmatched_left = unmatched_left
        self.unmatched_right = unmatched_right

    def __bool__(self):
        return self.ok

    def lines(self) -> List[str]:
        if self.ok:
            return [f"spectra match ({len(self.pairs)} paired roots)"]
        out = [f"spectra differ ({len(self.pairs)} paired roots)"]
        for z in self.unmatched_left:
            out.append(f"  only left:  {z:.9g}")
        for z in self.unmatched_right:
            out.append(f"  only right: {z:.9g}")
        return out


def _pair_values(left: List[complex], right: List[complex], tol: float):
    """Greedy nearest-neighbor pairing; on failure retry with an optimal
    assignment so near-ties cannot spoil a valid matching."""
    pairs = []
    used = [False] * len(right)
    unmatched_left = []
    for z in left:
        best_j, best_d = None, None
        for j, w in enumerate(right):
            if used[j]:
                continue
            d = abs(z - w)
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        if best_j is not None and best_d <= tol:
            used[best_j] = True
            pairs.append((z, right[best_j]))
        else:
            unmatched_left.append(z)
    unmatched_right = [w for j, w in enumerate(right) if not used[j]]
    if not unmatched_left and not unmatched_right:
        return pairs, [], []
    if len(left) == len(right) and left:
        # Hungarian fallback: greedy can strand points when distances tie
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        cost = np.array([[abs(z - w) for w in right] for z in left])
        rows, cols = linear_sum_assignment(cost)
        if all(cost[r, c] <= tol for r, c in zip(rows, cols)):
            return [(left[r], right[c]) for r, c in zip(rows, cols)], [], []
    return pairs, unmatched_left, unmatched_right


def spectra_equal_up_to(
    left: SpectralList,
    right: SpectralList,
    forbidden: ForbiddenSet,
    tol: float = 1e-9,
) -> MatchReport:
    """Multiset equality of the two spectra outside the forbidden set."""
    lv = spectrum_minus(left, forbidden, tol).values()
    rv = spectrum_minus(right, forbidden, tol).values()
    pairs, ul, ur = _pair_values(lv, rv, tol)
    return MatchReport(not ul and not ur, pairs, ul, ur)


def charpoly_numerators_equal(g: WeightedDigraph, h: WeightedDigraph) -> bool:
    """Exact spectral equality: canonical char_det numerators agree up to
    a nonzero constant."""
    a = char_det(g).num
    b = char_det(h).num
    if a.degree != b.degree:
        return False
    return a.monic() == b.monic()
