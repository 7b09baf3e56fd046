"""Independent brute-force oracles.

These deliberately avoid the production code paths so they can anchor the
randomized test suites: long division over Q(i) (against
``Poly.exact_div``) and the monic Euclidean gcd built on it (against the
subresultant ``poly_gcd``), a fraction-field elimination determinant and a
permutation-expansion determinant (both against ``char_det``), an
exhaustive path enumerator, the branch product, and the reduction built
on both by the paper's definition (against ``reduce``), and a dense
numeric eigensolver for constant-weight graphs, with the
tolerance-matched spectrum comparison that checks float spectra (its own
or the numeric normalized Laplacian's) against exact ones by one maximum
matching of the roots within the tolerance, once ``spectrum_minus`` has
removed the exception set exactly.  ``mpmath.polyroots`` at 60 digits is
the reference for the certified ``poly_roots``.  Size guards keep the
factorial/exponential costs honest.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Sequence, Tuple

import numpy as np

from .ratfun import GR_ZERO, Poly, RatFun
from .reduction import Branch
from .spectrum import SpectralList, SpectralPoint, numerator_outside, spectral_list
from .structural import ForbiddenSet
from .wgraph import WeightedDigraph


def poly_divmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b, by long division over
    Q(i) on the Gaussian-rational coefficients."""
    if not b.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dv = b.coeffs
    dd = len(dv) - 1
    if len(rem) - 1 < dd:
        return Poly.zero(), a
    lead_inv = dv[-1].inverse()
    q = [GR_ZERO] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if not c:
            continue
        f = c * lead_inv
        q[k - dd] = f
        for j in range(dd + 1):
            rem[k - dd + j] = rem[k - dd + j] - f * dv[j]
    return Poly(q), Poly(rem)


def poly_gcd_euclid(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm over Q(i),
    each remainder (from ``poly_divmod``) made monic."""
    while b.coeffs:
        a, b = b, poly_divmod(a, b)[1]
        if b.coeffs:
            b = b.monic()
    return a.monic() if a.coeffs else a


def det_ratfun_matrix(matrix: Sequence[Sequence[RatFun]]) -> RatFun:
    """Exact determinant of a square RatFun matrix by fraction-field
    Gaussian elimination, pivoting on the lowest-degree nonzero entry."""
    n = len(matrix)
    if n == 0:
        return RatFun.one()
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    zero = RatFun.zero()
    det = RatFun.one()
    sign = 1
    for col in range(n):
        pivot_row = None
        best = None
        for r in range(col, n):
            e = m[r][col]
            if e:
                size = e.num.degree + e.den.degree
                if best is None or size < best:
                    best, pivot_row = size, r
        if pivot_row is None:
            return zero
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] / pivot
                row, top = m[r], m[col]
                for c in range(col + 1, n):
                    if top[c]:
                        row[c] = row[c] - f * top[c]
                row[col] = zero
    return -det if sign == -1 else det


def det_leibniz(matrix: Sequence[Sequence[RatFun]]) -> RatFun:
    """Determinant by signed permutation expansion; n <= 6."""
    n = len(matrix)
    if n > 6:
        raise ValueError("permutation-expansion determinant is limited to n <= 6")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return RatFun.one()
    total = RatFun.zero()
    for perm in permutations(range(n)):
        term = RatFun.one()
        for i in range(n):
            term = term * matrix[i][perm[i]]
            if term.is_zero():
                break
        if term.is_zero():
            continue
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def all_paths(
    g: WeightedDigraph,
    source: str,
    target: str,
    forbidden_interiors: Sequence[str],
) -> List[Tuple[str, ...]]:
    """Every path or cycle from source to target whose interior vertices
    avoid the forbidden set, by plain recursive search; n <= 10."""
    if g.n > 10:
        raise ValueError("exhaustive path search is limited to 10 vertices")
    banned = set(forbidden_interiors)
    out: List[Tuple[str, ...]] = []

    def step(path: List[str]) -> None:
        here = path[-1]
        for nxt in sorted(g.successors(here), key=g.index):
            if nxt == target:
                out.append(tuple(path + [nxt]))
            if nxt != target and nxt not in banned and nxt not in path:
                path.append(nxt)
                step(path)
                path.pop()

    step([source])
    # a cycle back to the source counts only when source == target, and
    # the search above never walks through the target, so cycles through
    # it are already excluded
    return out


def branch_product(g: WeightedDigraph, branch: Branch) -> RatFun:
    """First edge weight times edge/(l - loop) over the interior vertices;
    a two-vertex branch is just its edge weight."""
    vs = branch.vertices
    product = g.weight(vs[0], vs[1])
    lam = RatFun.var()
    for k in range(1, len(vs) - 1):
        product = product * g.weight(vs[k], vs[k + 1]) / (lam - g.loop(vs[k]))
    return product


def reduce_by_paths(g: WeightedDigraph, s: Sequence[str]) -> WeightedDigraph:
    """The reduction over S by the paper's definition: each (i, j) weight
    is the sum, over the paths i -> j with interiors off S, of
    w(v1,v2) * prod w(vk,vk+1) / (l - w(vk,vk)) over the interiors vk;
    n <= 10."""
    s_set = set(s)
    s_ordered = [v for v in g.vertices if v in s_set]
    edges = []
    for src in s_ordered:
        for dst in s_ordered:
            total = RatFun.zero()
            for path in all_paths(g, src, dst, s_ordered):
                total = total + branch_product(g, Branch(path))
            edges.append((src, dst, total))
    return WeightedDigraph(s_ordered, edges)


def polyroots_reference(p: Poly) -> list:
    """The roots of ``p`` by ``mpmath.polyroots`` at 60 digits, as mpc
    values: the reference that ``poly_roots``' certified roots are tested
    against.  Its tolerance is absolute, so roots near 0 need the variable
    scaled first; ``mpmath.NoConvergence`` propagates."""
    import mpmath

    with mpmath.workdps(60):
        coeffs = [
            mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator, mpmath.mpf(c.im.numerator) / c.im.denominator)
            for c in reversed(p.coeffs)
        ]
        return mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)


def _eig_high_precision(mat: np.ndarray) -> List[complex]:
    import mpmath

    with mpmath.workdps(50):
        m = mpmath.matrix(
            [[mpmath.mpc(mat[i, j]) for j in range(mat.shape[1])] for i in range(mat.shape[0])]
        )
        return [complex(z) for z in mpmath.eig(m, left=False, right=False)]


def eig_dense(g: WeightedDigraph) -> SpectralList:
    """Numeric spectrum of a constant-weight graph via a dense
    eigensolver, with multiplicities recovered by clustering: a sorted
    value within 1e-6 of the one before it joins that value's cluster.

    Defective eigenvalues come out of a double-precision solve with error
    about eps**(1/k) for a k-fold Jordan block, so whenever the computed
    values show a cluster too wide to be honest roundoff yet too narrow to
    be separate eigenvalues, the solve is redone in 50-digit arithmetic.
    """
    mat = np.zeros((g.n, g.n), dtype=complex)
    for u, v, w in g.edges():
        if not w.is_constant():
            raise ValueError(f"weight of {u!r}->{v!r} is not constant")
        mat[g.index(u), g.index(v)] = w.constant_value().to_complex()
    if g.n == 0:
        return SpectralList([])
    values = sorted(np.linalg.eigvals(mat), key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in values))
    suspicious = any(
        1e-9 * scale < abs(a - b) < 1e-3 * scale
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    )
    if suspicious:
        values = sorted(_eig_high_precision(mat), key=lambda z: (z.real, z.imag))
    clusters: List[List[complex]] = []
    for z in values:
        if clusters and abs(z - clusters[-1][-1]) <= 1e-6:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    points = [
        SpectralPoint(sum(c) / len(c), len(c), None) for c in clusters
    ]
    return SpectralList(points)


def spectrum_minus(sl: SpectralList, forbidden: ForbiddenSet) -> SpectralList:
    """The entries of ``sl`` outside the forbidden set: all copies of a
    root in the set go at once.  A list without its charpoly, such as a
    float eigenvalue list, can only lose an empty set."""
    if forbidden.poly.degree <= 0:
        return sl
    if sl.charpoly is None:
        raise ValueError("a spectrum without its charpoly cannot be filtered exactly")
    return spectral_list(RatFun(numerator_outside(sl, forbidden)))


class MatchReport:
    """Result of a tolerance-matched multiset comparison of two spectra."""

    __slots__ = ("ok", "pairs", "unmatched_left", "unmatched_right")

    def __init__(self, ok, pairs, unmatched_left, unmatched_right):
        self.ok = ok
        self.pairs = pairs
        self.unmatched_left = unmatched_left
        self.unmatched_right = unmatched_right

    def lines(self) -> List[str]:
        """The mismatch, one line per unpaired root."""
        out = [f"spectra differ ({len(self.pairs)} paired roots)"]
        for z in self.unmatched_left:
            out.append(f"  only left:  {z:.9g}")
        for z in self.unmatched_right:
            out.append(f"  only right: {z:.9g}")
        return out


def _pair_values(left: List[complex], right: List[complex], tol: float):
    """A maximum matching of ``left`` to ``right`` over the pairs within
    ``tol``, by augmenting paths (Kuhn's algorithm, on an explicit stack),
    so every root is paired exactly when some within-``tol`` pairing of
    all of them exists.  Returns the pairs in the order of ``left`` and
    the unpaired roots of each side in input order."""
    near = [[j for j, w in enumerate(right) if abs(z - w) <= tol] for z in left]
    owner = [None] * len(right)  # right index -> left index
    for i in range(len(left)):
        seen = set()
        path = [(i, iter(near[i]), None)]  # left root, its options, the right root it came by
        while path:
            j = next((j for j in path[-1][1] if j not in seen), None)
            if j is None:
                path.pop()
            elif owner[j] is None:
                for u, _, came in reversed(path):  # each left root on the path moves on
                    owner[j], j = u, came
                break
            else:
                seen.add(j)
                path.append((owner[j], iter(near[owner[j]]), j))
    partner = {u: j for j, u in enumerate(owner) if u is not None}
    pairs = [(z, right[partner[i]]) for i, z in enumerate(left) if i in partner]
    unmatched_left = [z for i, z in enumerate(left) if i not in partner]
    return pairs, unmatched_left, [w for j, w in enumerate(right) if owner[j] is None]


def spectra_equal_up_to(
    left: SpectralList,
    right: SpectralList,
    forbidden: ForbiddenSet,
    tol: float = 1e-9,
) -> MatchReport:
    """Multiset equality of the two spectra outside the forbidden set, with
    root values paired within ``tol``; the set itself is removed exactly, so
    a float list such as ``eig_dense``'s output only takes an empty set
    (a nonempty one raises ``ValueError``)."""
    lv = spectrum_minus(left, forbidden).values()
    rv = spectrum_minus(right, forbidden).values()
    pairs, ul, ur = _pair_values(lv, rv, tol)
    return MatchReport(not ul and not ur, pairs, ul, ur)
