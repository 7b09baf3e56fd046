"""Finite weighted digraphs with rational-function edge weights.

A graph stores an ordered vertex tuple (string labels, unique) and a map
from ordered label pairs to nonzero RatFun weights.  A zero weight and an
absent edge are the same thing, so the edge map never stores zeros.  Loops
are allowed, parallel edges are not.  Instances are immutable; every
operation returns a new graph.

Conventions for importing foreign graphs:

* undirected edges become a pair of directed edges of equal weight,
* missing weights default to 1,
* parallel edges must be merged by summing weights (``merge_parallel``).

The JSON wire format (bit-exact round-trip)::

    { "vertices": ["w1", "w2", ...],
      "edges": [ {"from": "w1", "to": "w2", "weight": "1"}, ... ],
      "undirected": false, "unit_weights": false }

Weight strings use the grammar of :mod:`isored.ratfun`, and each weight
is written by ``format_weight``, whose output ``parse_weight`` reads back
as the same weight; that is what makes the round trip exact.  With
``"unit_weights": true`` an omitted weight means 1; with
``"undirected": true`` each listed edge is oriented both ways.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ratfun import RatFun, format_weight, parse_weight

Edge = Tuple[str, str]


class GraphError(ValueError):
    pass


class UnknownVertexError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class WeightedDigraph:
    """Immutable weighted digraph; weights are canonical RatFun values."""

    __slots__ = ("vertices", "_index", "_edges", "_out", "_in")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Tuple[str, str, RatFun]] = ()):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise GraphError("duplicate vertex labels")
        index = {v: k for k, v in enumerate(vs)}
        emap: Dict[Edge, RatFun] = {}
        for u, v, w in edges:
            if u not in index:
                raise UnknownVertexError(f"unknown vertex {u!r}")
            if v not in index:
                raise UnknownVertexError(f"unknown vertex {v!r}")
            if (u, v) in emap:
                raise DuplicateEdgeError(f"parallel edge {u!r}->{v!r}")
            if not isinstance(w, RatFun):
                raise GraphError(f"weight of {u!r}->{v!r} is not a RatFun")
            if w.is_zero():
                continue
            emap[(u, v)] = w
        self.vertices = vs
        self._index = index
        self._edges = emap
        out: Dict[str, List[str]] = {v: [] for v in vs}
        incoming: Dict[str, List[str]] = {v: [] for v in vs}
        for (u, v) in sorted(emap, key=lambda e: (index[e[0]], index[e[1]])):
            out[u].append(v)
            incoming[v].append(u)
        self._out = out
        self._in = incoming

    # -- basic queries --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self._edges

    def weight(self, u: str, v: str) -> RatFun:
        """Weight of (u, v); the zero function when the edge is absent."""
        if u not in self._index:
            raise UnknownVertexError(f"unknown vertex {u!r}")
        if v not in self._index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return self._edges.get((u, v), RatFun.zero())

    def loop(self, v: str) -> RatFun:
        return self.weight(v, v)

    def edges(self) -> List[Tuple[str, str, RatFun]]:
        """Every edge, ordered by (source index, target index)."""
        emap = self._edges
        return [(u, v, emap[(u, v)]) for u in self.vertices for v in self._out[u]]

    def edge_count(self) -> int:
        return len(self._edges)

    def successors(self, v: str) -> List[str]:
        """The heads of v's out-edges, in vertex-index order."""
        if v not in self._index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return list(self._out[v])

    def predecessors(self, v: str) -> List[str]:
        """The tails of v's in-edges, in vertex-index order."""
        if v not in self._index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return list(self._in[v])

    def out_degree(self, v: str) -> int:
        return len(self._out[v])

    def in_degree(self, v: str) -> int:
        return len(self._in[v])

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return set(self.vertices) == set(other.vertices) and self._edges == other._edges

    def __hash__(self):
        return hash((frozenset(self.vertices), frozenset(self._edges.items())))

    def __repr__(self):
        return f"WeightedDigraph({len(self.vertices)} vertices, {len(self._edges)} edges)"

    # -- derived graphs --------------------------------------------------

    def loopless(self) -> "WeightedDigraph":
        """The graph with every loop removed."""
        return WeightedDigraph(
            self.vertices, [(u, v, w) for (u, v), w in self._edges.items() if u != v]
        )

    def transpose(self) -> "WeightedDigraph":
        return WeightedDigraph(
            self.vertices, [(v, u, w) for (u, v), w in self._edges.items()]
        )

    def subgraph(self, keep: Sequence[str]) -> "WeightedDigraph":
        """Induced subgraph on ``keep`` in this graph's vertex order."""
        keep_set = set(keep)
        for v in keep_set:
            if v not in self._index:
                raise UnknownVertexError(f"unknown vertex {v!r}")
        vs = tuple(v for v in self.vertices if v in keep_set)
        return WeightedDigraph(
            vs,
            [
                (u, v, w)
                for (u, v), w in self._edges.items()
                if u in keep_set and v in keep_set
            ],
        )

    def relabeled(self, mapping: Dict[str, str]) -> "WeightedDigraph":
        vs = tuple(mapping.get(v, v) for v in self.vertices)
        return WeightedDigraph(
            vs,
            [
                (mapping.get(u, u), mapping.get(v, v), w)
                for (u, v), w in self._edges.items()
            ],
        )

    def adjacency_matrix(self) -> List[List[RatFun]]:
        """n-by-n matrix in vertex order; absent edges give the zero function."""
        zero = RatFun.zero()
        mat = [[zero] * self.n for _ in range(self.n)]
        idx = self._index
        for (u, v), w in self._edges.items():
            mat[idx[u]][idx[v]] = w
        return mat

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_matrix(labels: Sequence[str], matrix: Sequence[Sequence[RatFun]]) -> "WeightedDigraph":
        n = len(labels)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise GraphError("matrix shape does not match the label count")
        edges = []
        for i in range(n):
            for j in range(n):
                if not matrix[i][j].is_zero():
                    edges.append((labels[i], labels[j], matrix[i][j]))
        return WeightedDigraph(labels, edges)

    @staticmethod
    def from_undirected(
        vertices: Iterable[str],
        pairs: Iterable[Tuple],
    ) -> "WeightedDigraph":
        """Build a digraph from undirected edges, orienting each both ways.

        ``pairs`` holds ``(u, v)`` or ``(u, v, weight)`` items; a missing
        weight means unit weight.  A self pair stays a single loop.
        Duplicate unordered pairs are rejected: parallel undirected edges
        must be pre-merged.
        """
        seen = set()
        edges = []
        for item in pairs:
            if len(item) == 2:
                u, v = item
                w = RatFun.one()
            else:
                u, v, w = item
            key = frozenset((u, v))
            if key in seen:
                raise DuplicateEdgeError(f"duplicate undirected pair {u!r}-{v!r}")
            seen.add(key)
            if u == v:
                edges.append((u, u, w))
            else:
                edges.append((u, v, w))
                edges.append((v, u, w))
        return WeightedDigraph(vertices, edges)

    # -- JSON ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"from": u, "to": v, "weight": format_weight(w)}
                for u, v, w in self.edges()
            ],
            "undirected": False,
            "unit_weights": False,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json_dict(data: dict) -> "WeightedDigraph":
        """Build a graph from the JSON wire format; input that does not
        follow it raises GraphError (or ParseError for a bad weight)."""
        if not isinstance(data, dict):
            raise GraphError("graph JSON must be an object")
        vertices = data.get("vertices")
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise GraphError("graph JSON needs a 'vertices' list of strings")
        records = data.get("edges", [])
        if not isinstance(records, list):
            raise GraphError("graph JSON 'edges' must be a list")
        undirected = data.get("undirected", False)
        unit = data.get("unit_weights", False)
        if not isinstance(undirected, bool) or not isinstance(unit, bool):
            raise GraphError("graph JSON 'undirected' and 'unit_weights' must be true or false")
        raw = []
        for k, rec in enumerate(records):
            if not isinstance(rec, dict) or not all(
                isinstance(rec.get(end), str) for end in ("from", "to")
            ):
                raise GraphError(f"edge record {k} needs string 'from' and 'to'")
            u, v = rec["from"], rec["to"]
            if "weight" in rec:
                if not isinstance(rec["weight"], str):
                    raise GraphError(f"edge {u!r}->{v!r}: weight must be a string")
                w = parse_weight(rec["weight"])
            elif unit:
                w = RatFun.one()
            else:
                raise GraphError(
                    f"edge {u!r}->{v!r} has no weight and unit_weights is false"
                )
            raw.append((u, v, w))
        if undirected:
            return WeightedDigraph.from_undirected(vertices, raw)
        return WeightedDigraph(vertices, raw)

    @staticmethod
    def from_json(text: str) -> "WeightedDigraph":
        return WeightedDigraph.from_json_dict(json.loads(text))


def merge_parallel(
    vertices: Iterable[str], raw: Iterable[Tuple[str, str, RatFun]]
) -> WeightedDigraph:
    """Merge a raw edge list that may repeat ordered pairs by adding
    weights; pairs whose weights sum to zero end up absent."""
    sums: Dict[Edge, RatFun] = {}
    order: List[Edge] = []
    for u, v, w in raw:
        key = (u, v)
        if key in sums:
            sums[key] = sums[key] + w
        else:
            sums[key] = w
            order.append(key)
    return WeightedDigraph(vertices, [(u, v, sums[(u, v)]) for (u, v) in order])


def complete_graph(n: int) -> WeightedDigraph:
    """Undirected unweighted complete graph on v1..vn, as a digraph."""
    labels = [f"v{k + 1}" for k in range(n)]
    pairs = [
        (labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
    ]
    return WeightedDigraph.from_undirected(labels, pairs)


def complete_bipartite_graph(m: int, n: int) -> WeightedDigraph:
    """K_{m,n} with parts m1..mm and n1..nn, unit weights both ways."""
    left = [f"m{k + 1}" for k in range(m)]
    right = [f"n{k + 1}" for k in range(n)]
    pairs = [(u, v) for u in left for v in right]
    return WeightedDigraph.from_undirected(left + right, pairs)
