"""Seeded input generators for the benchmark workloads.

Every operation is built from its own ``random.Random`` keyed by
(workload, seed, index), so one operation can be rebuilt alone for a
replay.  Each workload has a fixed class table (graph sizes, FAIL share)
that op indices cycle through; the seed only draws the graphs inside each
class and the order they run in.  That keeps the cost mix of a pool the
same from seed to seed, which is what makes runs on different seeds
comparable.

Weights are written as text in the program's weight grammar.  Every
denominator is a monic polynomial with Gaussian-integer coefficients, so
its roots are algebraic integers and no Gaussian rational with a
non-integer part can be a pole; the checker's evaluation points rely on
that.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

Edge = Tuple[str, str, str]


@dataclass
class Op:
    """One CLI invocation: its argv (file arguments are names in
    ``files``), the files' JSON text, and what the checker needs."""

    workload: str
    seed: int
    index: int
    command: str
    argv: List[str]
    files: Dict[str, str]
    vertices: List[str]
    edges: List[Edge]
    s: List[str]
    expect_exit: int = 0
    size: Dict[str, int] = field(default_factory=dict)
    branches: int = 0

    def argv_in(self, workdir: str) -> List[str]:
        return [f"{workdir}/{a}" if a in self.files else a for a in self.argv]


def graph_json(vertices: List[str], edges: List[Edge]) -> str:
    return json.dumps(
        {
            "vertices": vertices,
            "edges": [{"from": u, "to": v, "weight": w} for u, v, w in edges],
            "undirected": False,
            "unit_weights": False,
        },
        indent=1,
    )


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------


def _nonzero(rng: random.Random, lo: int = -3, hi: int = 3) -> int:
    while True:
        k = rng.randint(lo, hi)
        if k:
            return k


def _lin(d: int) -> str:
    """The text of l - d."""
    return "l" if d == 0 else f"(l{-d:+d})"


def int_weight(rng: random.Random) -> str:
    return str(_nonzero(rng))


def gaussian_weight(rng: random.Random) -> str:
    return f"({rng.randint(-3, 3)}{_nonzero(rng, -2, 2):+d}i)"


def pole_weight(rng: random.Random, gaussian: bool = False) -> str:
    """c/(l-d)."""
    c = gaussian_weight(rng) if gaussian else str(_nonzero(rng))
    return f"{c}/{_lin(rng.randint(-2, 2))}"


def rational_weight(rng: random.Random, gaussian: bool = False) -> str:
    """c/(l-d) most of the time, else (a*l+b)/(l^2-c)."""
    if rng.random() < 0.7:
        return pole_weight(rng, gaussian)
    a, b, c = rng.randint(-2, 2), _nonzero(rng), rng.randint(-2, 2)
    return f"({a}*l+({b}))/(l^2-({c}))"


def loop_weight(rng: random.Random) -> str:
    return rational_weight(rng) if rng.random() < 0.5 else int_weight(rng)


# ----------------------------------------------------------------------
# Graph helpers (independent of the program)
# ----------------------------------------------------------------------


def find_cycle(vertices: List[str], edges: List[Edge], inside: set) -> Optional[List[str]]:
    """A directed cycle of the loopless graph induced on ``inside``."""
    succ: Dict[str, List[str]] = {v: [] for v in vertices}
    for u, v, _ in edges:
        if u != v and u in inside and v in inside:
            succ[u].append(v)
    color: Dict[str, int] = {}
    for root in vertices:
        if root not in inside or root in color:
            continue
        path = [root]
        stack = [iter(succ[root])]
        color[root] = 1
        while stack:
            for u in stack[-1]:
                if color.get(u) == 1:
                    return path[path.index(u):]
                if u not in color:
                    color[u] = 1
                    path.append(u)
                    stack.append(iter(succ[u]))
                    break
            else:
                color[path.pop()] = 2
                stack.pop()
    return None


def random_structural_set(rng: random.Random, vertices: List[str], edges: List[Edge]) -> List[str]:
    """A random subset grown until its complement has no cycle."""
    s = {v for v in vertices if rng.random() < 0.55} or {rng.choice(vertices)}
    while True:
        cycle = find_cycle(vertices, edges, set(vertices) - s)
        if cycle is None:
            return [v for v in vertices if v in s]
        s.add(rng.choice(cycle))


def count_branches(vertices: List[str], edges: List[Edge], s: List[str]) -> int:
    """Number of branches over S: paths between S vertices (possibly the
    same one) whose interior avoids S; the complement must be acyclic."""
    s_set = set(s)
    succ: Dict[str, List[str]] = {v: [] for v in vertices}
    for u, v, _ in edges:
        if u != v or u in s_set:
            succ[u].append(v)
    memo: Dict[str, int] = {}

    def to_s(v: str) -> int:
        # paths from complement vertex v to any S vertex, through the complement
        if v not in memo:
            memo[v] = sum(1 if w in s_set else to_s(w) for w in succ[v] if w != v)
        return memo[v]

    return sum(1 if w in s_set else to_s(w) for u in s for w in succ[u])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _verify_op(seed: int, k: int, rng: random.Random, n: int, fail: bool) -> Op:
    labels = [f"v{j + 1}" for j in range(n)]
    p = min(0.9, 2.4 / n + rng.random() * 0.2)
    edges: List[Edge] = [
        (u, v, int_weight(rng)) for u in labels for v in labels if u != v and rng.random() < p
    ]
    edges += [(v, v, loop_weight(rng)) for v in labels if rng.random() < 0.3]
    s = random_structural_set(rng, labels, edges)
    files = {f"verify-{k}.json": graph_json(labels, edges)}
    argv = ["verify", f"verify-{k}.json", "--set", ",".join(s)]
    if fail:
        # The induced graph on S with every loop moved by +1000.  Its
        # spectrum has |S| roots near 1000, far outside both sigma(G)
        # (|weights| <= 3, n <= 8) and N(G;S), so verify must FAIL.
        s_set = set(s)
        loops = {u: w for u, v, w in edges if u == v}
        wrong = [(u, v, w) for u, v, w in edges if u in s_set and v in s_set and u != v]
        wrong += [(v, v, f"({loops.get(v, '0')})+1000") for v in s]
        files[f"expect-{k}.json"] = graph_json(s, wrong)
        argv += ["--expect", f"expect-{k}.json"]
    op = Op("verify-mix", seed, k, "verify", argv, files, labels, edges, s,
            expect_exit=3 if fail else 0, size={"n": n})
    if not fail:  # a FAIL op checks the claimed graph and never reduces
        op.branches = count_branches(labels, edges, s)
    return op


def _reduce_op(seed: int, k: int, rng: random.Random, width: int, depth: int, band: Tuple[int, int]) -> Op:
    s = ["s1", "s2"]
    layers = [[f"x{d + 1}_{j + 1}" for j in range(width)] for d in range(depth)]
    interior = [v for layer in layers for v in layer]
    vertices = s + interior

    def connect(src: List[str], dst: List[str], q: float) -> List[Edge]:
        # every source keeps an out-edge and every target an in-edge
        chosen = {(u, v) for u in src for v in dst if rng.random() < q}
        for u in src:
            if not any(a == u for a, _ in chosen):
                chosen.add((u, rng.choice(dst)))
        for v in dst:
            if not any(b == v for _, b in chosen):
                chosen.add((rng.choice(src), v))
        return [(u, v, int_weight(rng)) for u in src for v in dst if (u, v) in chosen]

    # Redraw the layer edges until the branch count lands in the class's
    # band: the cost of a reduction by branch walk follows the branch count.
    for _ in range(200):
        edges = connect(s, layers[0], 0.8)
        for a, b in zip(layers, layers[1:]):
            edges += connect(a, b, 0.8)
        edges += connect(layers[-1], s, 0.8)
        branches = count_branches(vertices, edges, s)
        if band[0] <= branches <= band[1]:
            break
    edges += [(u, v, int_weight(rng)) for u in s for v in s if rng.random() < 0.5]
    # c/(l-d) loops with distinct poles d, so the loop denominators share
    # no factor and every op of a class does the same kind of gcd work
    looped = rng.sample(interior, round(0.3 * len(interior)))
    poles = dict(zip(looped, rng.sample(range(-2, 3), len(looped))))
    edges += [(v, v, f"{_nonzero(rng)}/{_lin(poles[v])}") for v in interior if v in poles]
    name = f"reduce-{k}.json"
    op = Op("branch-reduce", seed, k, "reduce", ["reduce", name, "--set", ",".join(s)],
            {name: graph_json(vertices, edges)}, vertices, edges, s,
            size={"depth": depth, "width": width})
    op.branches = count_branches(vertices, edges, s)
    return op


def _spectrum_op(seed: int, k: int, rng: random.Random, n: int) -> Op:
    # Fixed counts per n (30% of ordered pairs as edges, a quarter of them
    # Gaussian, 30% of vertices looped, half of those loops rational)
    # so graphs of one size cost about the same.
    labels = [f"v{j + 1}" for j in range(n)]
    pairs = rng.sample([(u, v) for u in labels for v in labels if u != v], round(0.3 * n * (n - 1)))
    gaussian = set(rng.sample(range(len(pairs)), round(len(pairs) / 4)))
    edges: List[Edge] = [
        (u, v, gaussian_weight(rng) if j in gaussian else int_weight(rng))
        for j, (u, v) in enumerate(pairs)
    ]
    looped = rng.sample(labels, round(0.3 * n))
    for j, v in enumerate(looped):
        if j % 2 == 0:
            w = rational_weight(rng, gaussian=rng.random() < 0.25)
        else:
            w = gaussian_weight(rng) if rng.random() < 0.25 else int_weight(rng)
        edges.append((v, v, w))
    edges.sort(key=lambda e: (labels.index(e[0]), labels.index(e[1])))
    name = f"spectrum-{k}.json"
    return Op("charpoly-spectrum", seed, k, "spectrum", ["spectrum", name],
              {name: graph_json(labels, edges)}, labels, edges, [], size={"n": n})


# Class tables: op k belongs to class k % len(table).  The reduce and
# spectrum tables are laid out so that the 50th and 90th latency
# percentiles fall inside a run of classes of like cost, not on the edge
# between a cheap and a dear class, where they would jump from seed to
# seed.  Verify costs overlap across n, so that table needs no such care.
VERIFY_CLASSES = [(n, k == 9) for k, n in enumerate([2, 3, 4, 5, 6, 7, 8, 5, 6, 7])]
# (width, depth, branch band): low tier 0-40%, p50 tier 40-80%, p90 tier 80-100%
REDUCE_CLASSES = (
    [(2, 3, (18, 24))] * 4 + [(2, 3, (27, 33))] * 2 + [(2, 4, (27, 33))] * 2
    + [(3, 3, (36, 44))] * 4 + [(2, 4, (36, 44))] * 2 + [(2, 5, (28, 34))] * 2
    + [(3, 4, (57, 63))] * 4
)
# n: p50 tier n10 (35-65%), p90 tier n12 (80-95%)
SPECTRUM_CLASSES = [8] * 8 + [9] * 6 + [10] * 12 + [11] * 6 + [12] * 6 + [13, 14]


def make_op(workload: str, seed: int, k: int) -> Op:
    rng = random.Random(f"{workload}/{seed}/{k}")
    if workload == "verify-mix":
        n, fail = VERIFY_CLASSES[k % len(VERIFY_CLASSES)]
        return _verify_op(seed, k, rng, n, fail)
    if workload == "branch-reduce":
        width, depth, band = REDUCE_CLASSES[k % len(REDUCE_CLASSES)]
        return _reduce_op(seed, k, rng, width, depth, band)
    if workload == "charpoly-spectrum":
        return _spectrum_op(seed, k, rng, SPECTRUM_CLASSES[k % len(SPECTRUM_CLASSES)])
    raise KeyError(workload)


WORKLOADS = ("verify-mix", "branch-reduce", "charpoly-spectrum")
# ops in one cycle of each workload's class table
CYCLE = {"verify-mix": len(VERIFY_CLASSES), "branch-reduce": len(REDUCE_CLASSES),
         "charpoly-spectrum": len(SPECTRUM_CLASSES)}


def size_tag(workload: str, k: int) -> Optional[str]:
    """The scaling-curve point of op k (``depth<d>`` or ``n<n>``), read
    from the class table without building the op; None on verify-mix."""
    if workload == "branch-reduce":
        return f"depth{REDUCE_CLASSES[k % len(REDUCE_CLASSES)][1]}"
    if workload == "charpoly-spectrum":
        return f"n{SPECTRUM_CLASSES[k % len(SPECTRUM_CLASSES)]}"
    return None
