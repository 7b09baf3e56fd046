"""Timing and counting wrappers installed on the program's public names.

The program has no tracing of its own yet, so the traced run replaces
each name below, in every loaded ``isored`` module that binds it, with a
wrapper that records a span: calls, total time, and self time (the span's
duration minus the time covered by its child spans).  ``uninstall`` puts
the original objects back.  A name that is missing from its home module
(removed or moved by a later change) is recorded as absent, and its
metrics read 0; installing never fails because of it.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

# (home module, attribute path, span name)
TARGETS: List[Tuple[str, str, str]] = [
    ("isored.cli", "main", "cli.main"),
    ("isored.wgraph", "WeightedDigraph.from_json_dict", "wgraph.from_json_dict"),
    ("isored.ratfun", "parse_weight", "ratfun.parse_weight"),
    ("isored.ratfun", "format_weight", "ratfun.format_weight"),
    ("isored.ratfun", "poly_gcd", "ratfun.poly_gcd"),
    ("isored.ratfun", "squarefree_decompose", "ratfun.squarefree_decompose"),
    ("isored.structural", "forbidden_set", "structural.forbidden_set"),
    ("isored.structural", "require_structural_set", "structural.require_structural_set"),
    ("isored.reduction", "reduce", "reduction.reduce"),
    ("isored.spectrum", "char_det", "spectrum.char_det"),
    ("isored.spectrum", "det_ratfun_matrix", "spectrum.det_ratfun_matrix"),
    ("isored.spectrum", "spectrum", "spectrum.spectrum"),
    ("isored.spectrum", "spectra_equal_up_to", "spectrum.spectra_equal_up_to"),
    ("isored.spectrum", "spectrum_minus", "spectrum.spectrum_minus"),
    ("isored.roots", "poly_roots", "roots.poly_roots"),
    ("isored.roots", "_roots_high_precision", "roots.mp_fallback"),
]

# spans whose durations are kept per op tag, for the scaling curves
SAMPLED = ("reduction.reduce", "spectrum.char_det")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "with_fallback")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.with_fallback = 0


class _Frame:
    __slots__ = ("child_s", "fallback")

    def __init__(self):
        self.child_s = 0.0
        self.fallback = False


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: Dict[str, SpanStats] = {name: SpanStats() for _, _, name in targets}
        self.absent: List[str] = []
        self.samples: Dict[Tuple[str, str], List[float]] = {}
        self.tag: Optional[str] = None
        self._stack: List[_Frame] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        sampled = name in SAMPLED

        def wrapper(*args, **kwargs):
            frame = _Frame()
            if name == "roots.mp_fallback":
                for outer in stack:
                    outer.fallback = True
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame.child_s
                if frame.fallback:
                    stats.with_fallback += 1
                if sampled and self.tag is not None:
                    self.samples.setdefault((name, self.tag), []).append(dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "isored" or n.startswith("isored.")]
        for module_name, path, name in self.targets:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(name, raw.__func__)))
                continue
            # names imported into other modules are wrapped there too
            wrapper = self._wrap(name, raw)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
