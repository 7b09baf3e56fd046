"""Exact output checker, independent of the program's arithmetic.

Weights (the program's grammar) are parsed here by a separate small
parser and evaluated with sympy's Gaussian-rational field ``QQ_I`` at a
few fixed points whose real and imaginary parts are not integers.  Input
denominators are monic with Gaussian-integer coefficients (see
``workloads``), so no point is a pole of an input weight or a solution of
``l = loop(l)``, and every value compared is exact.

Checks:
  branch-reduce      every reduced weight against the Schur complement
                     M_SS + M_SS' (x I - M_S'S')^-1 M_S'S at each point;
  charpoly-spectrum  charpoly_num / charpoly_den against det(M(x) - x I)
                     at each point, and root multiplicities summing to
                     the numerator degree;
  verify-mix         exit code and verdict against the expected value
                     fixed when the op was built.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

POINTS = [
    QQ_I(QQ(7, 3), QQ(5, 11)),
    QQ_I(QQ(-13, 7), QQ(2, 9)),
    QQ_I(QQ(17, 5), QQ(-3, 13)),
]


class CheckError(ValueError):
    """An output the checker rejects."""


# ----------------------------------------------------------------------
# Weight grammar: parse to a tuple tree, evaluate over an algebra
# ----------------------------------------------------------------------


def _tokens(text: str) -> List[Tuple[str, object]]:
    out: List[Tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append((ch, None))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                out.append(("num", Fraction(text[i:k])))
                i = k
            elif j + 1 < n and text[j] == "/" and text[j + 1].isdigit():
                # rationals lex greedily: 3/2 is one atom, so 3/2^2 = 9/4
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                out.append(("num", Fraction(int(text[i:j]), int(text[j + 1 : k]))))
                i = k
            else:
                out.append(("num", Fraction(int(text[i:j]))))
                i = j
        elif ch.isalpha() or ch == "λ":
            j = i
            while j < n and (text[j].isalpha() or text[j] == "λ"):
                j += 1
            word = text[i:j]
            if word == "i":
                out.append(("imag", None))
            elif word in ("l", "lambda", "λ"):
                out.append(("var", None))
            else:
                raise CheckError(f"unknown name {word!r} in {text!r}")
            i = j
        else:
            raise CheckError(f"unexpected {ch!r} in {text!r}")
    out.append(("end", None))
    return out


def parse(text: str):
    """Tuple tree of a weight expression: ("num", re, im), ("var",),
    (op, left, right) for + - * / and ("^", base, k), ("neg", x)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos][0]

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        node = term()
        while peek() in ("+", "-"):
            node = (take()[0], node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            node = (take()[0], node, factor())
        return node

    def factor():
        negate = peek() == "-"
        if negate:
            take()
        node = atom()
        if peek() == "^":
            take()
            kind, k = take()
            if kind != "num" or k.denominator != 1:
                raise CheckError(f"bad exponent in {text!r}")
            node = ("^", node, int(k))
        return ("neg", node) if negate else node

    def atom():
        kind, val = take()
        if kind == "num":
            if peek() == "imag":
                take()
                return ("num", Fraction(0), val)
            return ("num", val, Fraction(0))
        if kind == "imag":
            return ("num", Fraction(0), Fraction(1))
        if kind == "var":
            return ("var",)
        if kind == "(":
            node = expr()
            if take()[0] != ")":
                raise CheckError(f"expected ')' in {text!r}")
            return node
        raise CheckError(f"unexpected token {kind!r} in {text!r}")

    tree = expr()
    if peek() != "end":
        raise CheckError(f"trailing input in {text!r}")
    return tree


def _gq(re: Fraction, im: Fraction):
    return QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))


def at_point(tree, x):
    """Exact value of a parsed weight at the QQ_I point ``x``."""
    kind = tree[0]
    if kind == "num":
        return _gq(tree[1], tree[2])
    if kind == "var":
        return x
    if kind == "neg":
        return -at_point(tree[1], x)
    if kind == "^":
        return at_point(tree[1], x) ** tree[2]
    a, b = at_point(tree[1], x), at_point(tree[2], x)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if not b:
        raise CheckError("division by zero at a check point")
    return a / b


def _padd(a: list, b: list) -> list:
    out = [QQ_I.zero] * max(len(a), len(b))
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [QQ_I.zero] * (len(a) + len(b) - 1)
    for j, c in enumerate(a):
        if c:
            for k, d in enumerate(b):
                out[j + k] += c * d
    return _trim(out)


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def as_fraction(tree) -> Tuple[list, list]:
    """(numerator, denominator) coefficient lists, lowest degree first, of
    a parsed weight, multiplied out without cancellation; canonical output
    text N/D gives (N, D)."""
    kind = tree[0]
    one = [QQ_I.one]
    if kind == "num":
        return _trim([_gq(tree[1], tree[2])]), one
    if kind == "var":
        return [QQ_I.zero, QQ_I.one], one
    if kind == "neg":
        n, d = as_fraction(tree[1])
        return [-c for c in n], d
    if kind == "^":
        n, d = as_fraction(tree[1])
        pn, pd = one, one
        for _ in range(tree[2]):
            pn, pd = _pmul(pn, n), _pmul(pd, d)
        return pn, pd
    (an, ad), (bn, bd) = as_fraction(tree[1]), as_fraction(tree[2])
    if kind == "+":
        return _padd(_pmul(an, bd), _pmul(bn, ad)), _pmul(ad, bd)
    if kind == "-":
        return _padd(_pmul(an, bd), [-c for c in _pmul(bn, ad)]), _pmul(ad, bd)
    if kind == "*":
        return _pmul(an, bn), _pmul(ad, bd)
    return _pmul(an, bd), _pmul(ad, bn)


def _coeff_bits(p: list) -> int:
    bits = 0
    for c in p:
        for part in (c.x, c.y):
            bits = max(bits, abs(int(part.numerator)).bit_length(), int(part.denominator).bit_length())
    return bits


class Peaks:
    """Largest degree and coefficient bit length seen in checked outputs."""

    def __init__(self):
        self.degree = 0
        self.coeff_bits = 0

    def see(self, *polys: list) -> None:
        for p in polys:
            self.degree = max(self.degree, len(p) - 1)
            self.coeff_bits = max(self.coeff_bits, _coeff_bits(p))


# ----------------------------------------------------------------------
# Matrices of the input graph
# ----------------------------------------------------------------------


def _matrix(x, rows: List[str], cols: List[str], trees: Dict[Tuple[str, str], object]):
    r = {v: i for i, v in enumerate(rows)}
    c = {v: j for j, v in enumerate(cols)}
    data = [[QQ_I.zero] * len(cols) for _ in rows]
    for (u, v), tree in trees.items():
        if u in r and v in c:
            data[r[u]][c[v]] = at_point(tree, x)
    return DomainMatrix(data, (len(rows), len(cols)), QQ_I)


def input_trees(op) -> Dict[Tuple[str, str], object]:
    return {(u, v): parse(w) for u, v, w in op.edges}


def schur_complement(op, trees, x) -> List[list]:
    """M_SS + M_SS' (x I - M_S'S')^-1 M_S'S for the op's graph and S, as
    rows in the order of S."""
    s = op.s
    rest = [v for v in op.vertices if v not in set(s)]
    m_ss = _matrix(x, s, s, trees)
    if rest:
        shifted = DomainMatrix.eye(len(rest), QQ_I) * x - _matrix(x, rest, rest, trees)
        solved = shifted.lu_solve(_matrix(x, rest, s, trees))
        m_ss = m_ss + _matrix(x, s, rest, trees) * solved
    return m_ss.to_list()


def gaussian_int_det(rows: List[List[Tuple[int, int]]]) -> Tuple[int, int]:
    """det of a square matrix of Gaussian integers given as (re, im), by
    Bareiss's fraction-free elimination on plain ints (several times
    faster than sympy's element objects)."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, (1, 0)
    for k in range(n - 1):
        if a[k][k] == (0, 0):
            swap = next((r for r in range(k + 1, n) if a[r][k] != (0, 0)), None)
            if swap is None:
                return (0, 0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        (pr, pi), (qr, qi) = a[k][k], prev
        norm = qr * qr + qi * qi
        for i in range(k + 1, n):
            ar, ai = a[i][k]
            for j in range(k + 1, n):
                (br, bi), (cr, ci) = a[i][j], a[k][j]
                xr = pr * br - pi * bi - ar * cr + ai * ci
                xi = pr * bi + pi * br - ar * ci - ai * cr
                # exact division by the previous pivot: x * conj(prev) / |prev|^2
                a[i][j] = ((xr * qr + xi * qi) // norm, (xi * qr - xr * qi) // norm)
        prev = a[k][k]
    re, im = a[-1][-1]
    return (sign * re, sign * im)


def char_value(op, trees, x):
    """det(M(x) - x I) for the op's graph, with each row scaled to
    Gaussian integers first."""
    m = _matrix(x, op.vertices, op.vertices, trees) - DomainMatrix.eye(len(op.vertices), QQ_I) * x
    rows, scale = [], 1
    for row in m.to_list():
        d = lcm(*(int(part.denominator) for c in row for part in (c.x, c.y)))
        rows.append([(int(c.x * d), int(c.y * d)) for c in row])
        scale *= d
    re, im = gaussian_int_det(rows)
    return QQ_I(QQ(re, scale), QQ(im, scale))


# ----------------------------------------------------------------------
# Per-workload checks
# ----------------------------------------------------------------------


def _load(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def check_reduce(op, stdout: str, peaks: Optional[Peaks]) -> None:
    graph = _load(stdout)["graph"]
    if graph["vertices"] != op.s:
        raise CheckError(f"reduced vertices {graph['vertices']} != S {op.s}")
    got = {(e["from"], e["to"]): parse(e["weight"]) for e in graph["edges"]}
    if peaks is not None:
        for tree in got.values():
            peaks.see(*as_fraction(tree))
    trees = input_trees(op)
    for x in POINTS:
        want = schur_complement(op, trees, x)
        for i, u in enumerate(op.s):
            for j, v in enumerate(op.s):
                have = at_point(got[(u, v)], x) if (u, v) in got else QQ_I.zero
                if have != want[i][j]:
                    raise CheckError(f"reduced weight {u}->{v} is wrong at l = {x}")


def check_spectrum(op, stdout: str, peaks: Optional[Peaks]) -> None:
    data = _load(stdout)
    num_tree, den_tree = parse(data["charpoly_num"]), parse(data["charpoly_den"])
    (num, one_a), (den, one_b) = as_fraction(num_tree), as_fraction(den_tree)
    if len(one_a) != 1 or len(one_b) != 1:
        raise CheckError("charpoly_num and charpoly_den must be polynomials")
    if peaks is not None:
        peaks.see(num, den)
    degree = max(len(num) - 1, 0)
    if sum(r["mult"] for r in data["roots"]) != degree:
        raise CheckError(f"root multiplicities do not sum to the numerator degree {degree}")
    trees = input_trees(op)
    for x in POINTS:
        if at_point(num_tree, x) != char_value(op, trees, x) * at_point(den_tree, x):
            raise CheckError(f"charpoly_num/charpoly_den != det(M - l I) at l = {x}")


def check_verify(op, code: int, stdout: str) -> None:
    verdict = "FAIL:" if op.expect_exit == 3 else "PASS:"
    if code != op.expect_exit:
        raise CheckError(f"exit code {code}, expected {op.expect_exit}")
    if not any(line.startswith(verdict) for line in stdout.splitlines()):
        raise CheckError(f"no {verdict} verdict line")


def check(op, code: Optional[int], stdout: str, peaks: Optional[Peaks] = None) -> Optional[str]:
    """None when the op's output is right, else the reason it is not.
    ``peaks``, when given, records the size of the output's polynomials."""
    try:
        if op.command == "verify":
            check_verify(op, code, stdout)
            return None
        if code != op.expect_exit:
            raise CheckError(f"exit code {code}, expected {op.expect_exit}")
        if op.command == "reduce":
            check_reduce(op, stdout, peaks)
        else:
            check_spectrum(op, stdout, peaks)
    except CheckError as exc:
        return str(exc)
    except (KeyError, TypeError) as exc:
        return f"output lacks an expected field: {exc!r}"
    return None
