"""Exact characteristic determinants and spectra.

The spectrum of a graph is the solution list, with multiplicities, of
``det(M(l) - l*I) = 0`` where the determinant is taken over the weight
field.  The determinant canonicalizes to ``num/den``; the solutions are
the roots of ``num`` (poles are cancelled by canonicality), their
multiplicities come from the exact squarefree decomposition, and each
numeric root value is certified by :mod:`isored.roots`, on Python numbers,
to lie within 2^-40 of its root, relative to it; a root that its disc
shows real, in a factor with real coefficients, has imaginary part 0.

``char_det`` runs the one elimination kernel of :mod:`isored.reduction`
under its least-fill pivot rule first.  Removing a vertex v by the
reduction's closed form multiplies the determinant by ``w(v,v) - l``, the
identity ``det(M - l*I) = prod (w_vv - l) * det(R_S - l*I)`` of the paper
for any order of nonzero pivots, so each cheap pivot becomes one factor
and a sparse graph costs about linear work in its edges.  The block the
rule leaves, with its rows cleared of denominators, goes to one dense
kernel, the fraction-free (Bareiss) elimination, which avoids per-step
gcds.  This is the one determinant route; the tests cross-check it
against the fraction-field elimination and permutation-expansion oracles
in :mod:`isored.oracles`.

Spectra are compared outside an exception set exactly: every root of the
set's polynomial is divided out of each characteristic numerator, with
all its multiplicity, and the spectra agree when the rests are the same
monic polynomial (``numerator_outside`` strips one numerator, and
``spectral_list`` locates the roots of what is left).  Root values only
report; they never decide.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from .ratfun import Poly, RatFun, poly_gcd, poly_lcm, poly_product, poly_to_string
from .reduction import _eliminate
from .roots import poly_roots
from .structural import ForbiddenSet
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
    gives the constant one.

    Removing a vertex v with the closed form of ``reduction._eliminate``
    multiplies the determinant by w(v,v) - l, so the cheap pivots of the
    least-fill rule become factors and Bareiss takes the block they leave.
    The factors are multiplied as polynomials and the quotient
    canonicalized once."""
    rest, loops = _eliminate(g)
    lam = Poly.var()
    cleared: List[List[Poly]] = []
    dens = [w.den for w in loops if w.den.degree > 0]
    for row in char_matrix(rest):
        common = Poly.one()
        for e in row:
            if e.den.degree > 0:
                common = poly_lcm(common, e.den)
        if common.degree > 0:
            cleared.append([e.num * common.exact_div(e.den) for e in row])
            dens.append(common)
        else:
            cleared.append([e.num for e in row])
    nums = [w.num - lam * w.den for w in loops]
    nums.append(_det_poly_bareiss(cleared))
    return RatFun(poly_product(nums), poly_product(dens))


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


def spectral_list(charpoly: RatFun) -> SpectralList:
    """The roots, with exact multiplicities, of the numerator of ``charpoly``;
    an identically zero determinant, which every number solves, is refused."""
    if charpoly.is_zero():
        raise ValueError(
            "the characteristic determinant is identically zero, so every number is an eigenvalue"
        )
    if charpoly.num.degree <= 0:
        return SpectralList([], charpoly)
    pts = [
        SpectralPoint(z, mult, witness) for z, mult, witness in poly_roots(charpoly.num)
    ]
    return SpectralList(pts, charpoly)


def spectrum(g: WeightedDigraph) -> SpectralList:
    """Roots, with exact multiplicities, of the numerator of char_det."""
    return spectral_list(char_det(g))


def numerator_outside(sl: SpectralList, forbidden: ForbiddenSet) -> Poly:
    """The monic characteristic numerator of ``sl`` with every root of
    ``forbidden.poly`` divided out, all multiplicities included."""
    num = sl.charpoly.num.monic()
    while True:
        common = poly_gcd(num, forbidden.poly)
        if common.degree <= 0:
            return num
        num = num.exact_div(common)


class OutsideComparison(NamedTuple):
    """Two spectra compared exactly outside an exception set."""

    agree: bool  # the stripped monic numerators are equal
    touched: bool  # either spectrum has a root in the set
    paired: int  # roots found on both sides, with multiplicity
    only_left: List[complex]
    only_right: List[complex]


def compare_outside(
    left: SpectralList, right: SpectralList, forbidden: ForbiddenSet
) -> OutsideComparison:
    """Strip every root of the forbidden set from both characteristic
    numerators and compare the rests; on a mismatch, the roots found on
    one side only are those of the rests over their gcd."""
    a, b = numerator_outside(left, forbidden), numerator_outside(right, forbidden)
    touched = a.degree < left.charpoly.num.degree or b.degree < right.charpoly.num.degree
    if a == b:
        return OutsideComparison(True, touched, a.degree, [], [])
    common = poly_gcd(a, b)
    only_left = spectral_list(RatFun(a.exact_div(common))).values()
    only_right = spectral_list(RatFun(b.exact_div(common))).values()
    return OutsideComparison(False, touched, common.degree, only_left, only_right)


def spectra_agree_outside(
    left: SpectralList, right: SpectralList, forbidden: ForbiddenSet
) -> bool:
    """Exact multiset equality of two spectra outside the forbidden set."""
    return compare_outside(left, right, forbidden).agree


def charpoly_numerators_equal(g: WeightedDigraph, h: WeightedDigraph) -> bool:
    """Exact spectral equality: canonical char_det numerators agree up to
    a nonzero constant."""
    return char_det(g).num.monic() == char_det(h).num.monic()
