"""Structural sets and the finite exception set attached to a reduction.

A vertex subset S is *structural* when it is nonempty, the complement
induces no cycles once loops are deleted, and no complement loop weight
equals the identity function ``l``.  The exception set of (G, S) collects
every complex number at which some off-S loop weight takes the value of
the variable or is undefined; spectra of G and of its reduction over S can
only disagree at those points.

The exception set is kept exactly as one monic squarefree polynomial,
the lcm of the witnesses of its points, whose roots are exactly the
points; adding a witness multiplies in only the part coprime to what is
already there.  Each point also carries a numeric value, certified to lie
within 2^-40 of the point relative to it, which is for display and never
decides membership.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .ratfun import Poly, RatFun, poly_gcd, poly_to_string
from .roots import poly_roots
from .wgraph import UnknownVertexError, WeightedDigraph


class StructuralSetError(ValueError):
    """Raised when an operation requires a structural set and is not given one."""


class EmptyBasicSetError(ValueError):
    """Raised when a graph has no basic structural set (acyclic, all
    out-degrees below two)."""


class StructuralCheck:
    """Outcome of a structural-set test with a human-readable diagnostic."""

    __slots__ = ("ok", "reason", "cycle")

    def __init__(self, ok: bool, reason: Optional[str] = None, cycle: Optional[List[str]] = None):
        self.ok = ok
        self.reason = reason
        self.cycle = cycle

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "StructuralCheck(ok)" if self.ok else f"StructuralCheck({self.reason!r})"


def _find_cycle(g: WeightedDigraph, inside: Set[str]) -> Optional[List[str]]:
    """A directed cycle of the loopless graph induced on ``inside``, if any."""
    color: Dict[str, int] = {}
    stack_path: List[str] = []

    def succ(v):
        return [u for u in g.successors(v) if u in inside and u != v]

    for root in g.vertices:
        if root not in inside or color.get(root):
            continue
        stack = [(root, iter(succ(root)))]
        color[root] = 1
        stack_path.append(root)
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if color.get(u) == 1:
                    k = stack_path.index(u)
                    return stack_path[k:] + [u]
                if not color.get(u):
                    color[u] = 1
                    stack_path.append(u)
                    stack.append((u, iter(succ(u))))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack_path.pop()
                stack.pop()
    return None


def check_structural_set(g: WeightedDigraph, s: Iterable[str]) -> StructuralCheck:
    """Test Definition-level validity of S with a diagnostic on failure."""
    s_set = set(s)
    for v in s_set:
        if not g.has_vertex(v):
            raise UnknownVertexError(f"unknown vertex {v!r}")
    if not s_set:
        return StructuralCheck(False, "structural set must be nonempty")
    complement = [v for v in g.vertices if v not in s_set]
    lam = RatFun.var()
    for v in complement:
        if g.loop(v) == lam:
            return StructuralCheck(
                False, f"complement loop on {v!r} equals the variable l"
            )
    cycle = _find_cycle(g, set(complement))
    if cycle is not None:
        return StructuralCheck(
            False,
            "complement induces the cycle " + " -> ".join(cycle),
            cycle,
        )
    return StructuralCheck(True)


def is_structural_set(g: WeightedDigraph, s: Iterable[str]) -> bool:
    return check_structural_set(g, s).ok


def require_structural_set(g: WeightedDigraph, s: Iterable[str]) -> Tuple[str, ...]:
    """Validate S and return it in the graph's vertex order."""
    check = check_structural_set(g, s)
    if not check.ok:
        raise StructuralSetError(check.reason)
    s_set = set(s)
    return tuple(v for v in g.vertices if v in s_set)


class ForbiddenPoint:
    """One exception point: a numeric value plus its exact witness."""

    __slots__ = ("value", "witness")

    def __init__(self, value: complex, witness: Poly):
        self.value = complex(value)
        self.witness = witness

    def __repr__(self):
        return f"ForbiddenPoint({self.value:.6g}, {poly_to_string(self.witness)})"


class ForbiddenSet:
    """Finite set of complex exception points.

    ``poly`` is the set, exactly: the monic squarefree lcm of the points'
    witnesses.  ``points`` holds one entry per root of ``poly``, sorted by
    (real, imag).  The points given for one witness must be all of its
    roots, possibly repeated as a whole (one copy per loop weight that
    yields the witness); ``_roots`` keeps one full copy per witness, so a
    union can add the other set's witnesses whole.
    """

    __slots__ = ("points", "poly", "_roots")

    def __init__(self, points: Iterable[ForbiddenPoint] = ()):
        self.points: Tuple[ForbiddenPoint, ...] = ()
        self.poly = Poly.one()
        self._roots: Dict[Poly, List[ForbiddenPoint]] = {}
        groups: Dict[Poly, List[ForbiddenPoint]] = {}
        for p in points:
            groups.setdefault(p.witness, []).append(p)
        # any further copies of a witness's roots repeat the first
        self._add({w: group[: w.degree] for w, group in groups.items()})

    def _add(self, roots: Dict[Poly, List[ForbiddenPoint]]) -> None:
        """Multiply each new witness into ``poly`` up to its common factor,
        dropping as many of its roots as that factor has; which of them go
        (those nearest its zeros) is only a display choice."""
        kept = list(self.points)
        for w, group in roots.items():
            if w in self._roots:
                continue
            self._roots[w] = group
            common = poly_gcd(w, self.poly)
            if common.degree > 0:
                group = sorted(group, key=lambda p: abs(common.eval_complex(p.value)))
                group = group[common.degree :]
                w = w.exact_div(common)
            self.poly = self.poly * w
            kept.extend(group)
        kept.sort(key=lambda p: (p.value.real, p.value.imag))
        self.points = tuple(kept)

    @staticmethod
    def empty() -> "ForbiddenSet":
        return ForbiddenSet()

    def union(self, other: "ForbiddenSet") -> "ForbiddenSet":
        out = ForbiddenSet()
        out.points, out.poly, out._roots = self.points, self.poly, dict(self._roots)
        out._add(other._roots)
        return out

    def values(self) -> List[complex]:
        return [p.value for p in self.points]

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        vals = ", ".join(f"{p.value:.6g}" for p in self.points)
        return f"ForbiddenSet({{{vals}}})"

    def to_json_dict(self) -> dict:
        # one string per witness, not one per point: a degree-d witness has d points
        names = {w: poly_to_string(w) for w in self._roots}
        return {
            "points": [
                {
                    "re": float(p.value.real),
                    "im": float(p.value.imag),
                    "witness": names[p.witness],
                }
                for p in self.points
            ]
        }


def forbidden_set(g: WeightedDigraph, s: Iterable[str]) -> ForbiddenSet:
    """Exception points of (g, s): those of the complement's loop weights."""
    s_set = set(require_structural_set(g, s))
    return exception_set(g.loop(v) for v in g.vertices if v not in s_set)


def exception_set(loops: Iterable[RatFun]) -> ForbiddenSet:
    """Exception points of eliminated vertices with these loop weights: for
    each loop weight p/q, the solutions of l*q(l) = p(l) plus the roots of q."""
    lam = Poly.var()
    points: List[ForbiddenPoint] = []
    seen = set()
    for w in loops:
        if w in seen:
            continue  # a repeated loop weight repeats its witnesses
        seen.add(w)
        eq = lam * w.den - w.num
        if not eq.is_zero():
            for z, _, witness in poly_roots(eq):
                points.append(ForbiddenPoint(z, witness))
        if w.den.degree > 0:
            for z, _, witness in poly_roots(w.den):
                points.append(ForbiddenPoint(z, witness))
    return ForbiddenSet(points)


def basic_structural_set(g: WeightedDigraph) -> Tuple[str, ...]:
    """Vertices of out-degree at least two, plus all vertices on cycles
    that avoid such vertices.  Raises when the result would be empty."""
    d_out = {v for v in g.vertices if g.out_degree(v) >= 2}
    members = set(d_out)
    # cycles avoiding d_out live in the functional graph of out-degree <= 1
    # vertices: follow unique out-edges and keep whatever loops back
    nxt: Dict[str, Optional[str]] = {}
    for v in g.vertices:
        if v in d_out:
            continue
        succ = g.successors(v)
        nxt[v] = succ[0] if succ else None
    state: Dict[str, int] = {}
    for start in g.vertices:
        if start in d_out or state.get(start):
            continue
        path = []
        v: Optional[str] = start
        while v is not None and v not in d_out and not state.get(v):
            state[v] = 1
            path.append(v)
            v = nxt[v]
        if v is not None and state.get(v) == 1 and v not in d_out:
            members.update(path[path.index(v):])
        for u in path:
            state[u] = 2
    if not members:
        raise EmptyBasicSetError(
            "graph has no basic structural set (no cycles and every "
            "out-degree is below two)"
        )
    return tuple(v for v in g.vertices if v in members)


def is_g_pi(g: WeightedDigraph) -> bool:
    """True when every present edge weight has numerator degree at most
    the denominator degree."""
    return all(w.pi() <= 0 for _, _, w in g.edges())


def require_g_pi(g: WeightedDigraph) -> None:
    for u, v, w in g.edges():
        if w.pi() > 0:
            raise ValueError(
                f"weight of {u!r}->{v!r} has positive degree gap "
                f"(numerator degree exceeds denominator degree)"
            )
