"""Command-line interface.

Commands take a graph JSON file and print JSON or a plain-text report to
stdout (or ``--out``).  Output is byte-stable for identical inputs: vertex
and edge orders are fixed, weights print in canonical form with the
variable spelled ``l``, and exact coefficients print as integer ratios.
A root in JSON output (``spectrum``, and ``reduce``'s ``forbidden_set``)
prints each of its parts as the shortest decimal that reads back as the
same double; ``verify``'s report prints roots with 12 significant digits.

Exit codes: 0 success or PASS, 1 malformed input or unwritable output, 2
violated mathematical precondition (for example a non-structural set), 3
verification FAIL.
Handlers catch nothing; ``main`` maps what they raise.  A usage error, a
``CliError``, an ``UnknownVertexError`` or a ``ParseError`` is malformed
input; any other ``ValueError`` is a violated precondition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .ratfun import ParseError, parse_weight
from .reduction import expand, loop_bisect, reduce, sequential_reduce, unique_reduce_to
from .roots import located_once
from .spectrum import compare_outside, spectrum
from .structural import basic_structural_set, forbidden_set
from .weightset import SUBRING_TESTS, verify_weightset, weightset_reduce
from .wgraph import GraphError, UnknownVertexError, WeightedDigraph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_FAIL = 3


class CliError(Exception):
    """Malformed command-line input."""


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply")


def _load_graph(path: str) -> WeightedDigraph:
    try:
        return WeightedDigraph.from_json_dict(_read_json(path))
    except (ParseError, GraphError) as exc:
        raise CliError(f"{path}: {exc}")


def _vertex_list(arg: str) -> List[str]:
    out = [v.strip() for v in arg.split(",") if v.strip()]
    if not out:
        raise CliError("empty vertex list")
    return out


def _fmt_complex(z: complex) -> str:
    # a part below 1e-12 is root-location noise (or a negative zero)
    re = z.real if abs(z.real) >= 1e-12 else 0.0
    if abs(z.imag) < 1e-12:
        return f"{re:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{re:.12g}{sign}{abs(z.imag):.12g}i"


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}")
    elif sys.stdout is None:  # the process started with stdout closed
        raise CliError("cannot write to stdout: it is closed")
    else:
        try:
            print(text, flush=True)
        except OSError as exc:
            # the interpreter flushes stdout once more at exit; point it at
            # the null device so that the flush cannot fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise CliError(f"cannot write to stdout: {exc}")


def _json_text(data) -> str:
    return json.dumps(data, indent=2, allow_nan=False)


# ----------------------------------------------------------------------
# Command handlers
# ----------------------------------------------------------------------


def cmd_reduce(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    chosen = [bool(args.set), bool(args.seq), bool(args.to)]
    if sum(chosen) != 1:
        raise CliError("choose exactly one of --set, --seq, --to")
    if args.set:
        s = _vertex_list(args.set)
        n = forbidden_set(g, s)
        reduced = reduce(g, s)
    elif args.to:
        reduced, n = unique_reduce_to(g, _vertex_list(args.to))
    else:
        seq = _read_json(args.seq)
        if not isinstance(seq, list) or not all(
            isinstance(step, list) and all(isinstance(v, str) for v in step) for step in seq
        ):
            raise CliError(f"{args.seq}: expected a JSON list of vertex lists")
        reduced, n = sequential_reduce(g, seq)
    payload = {
        "graph": reduced.to_json_dict(),
        "forbidden_set": n.to_json_dict(),
    }
    return EXIT_OK, _json_text(payload)


def cmd_spectrum(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    return EXIT_OK, _json_text(spectrum(g).to_json_dict())


def cmd_verify(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    s = _vertex_list(args.set)
    n = forbidden_set(g, s)
    reduced = _load_graph(args.expect) if args.expect else reduce(g, s)
    sg = spectrum(g)
    sr = spectrum(reduced)
    cmp = compare_outside(sg, sr, n)
    lines = [
        "sigma(G):     " + " ".join(_fmt_complex(z) for z in sg.values()),
        "sigma(R_S):   " + " ".join(_fmt_complex(z) for z in sr.values()),
        "N(G;S):       " + " ".join(_fmt_complex(z) for z in n.values()),
    ]
    if cmp.agree:
        lines.append("PASS: spectra differ at most by N(G;S)")
        if not cmp.touched:
            lines.append("note: spectrum preserved exactly")
        return EXIT_OK, "\n".join(lines)
    lines.append("FAIL: spectra differ beyond N(G;S)")
    lines.append(f"  spectra differ ({cmp.paired} paired roots)")
    lines.extend("    only left:  " + _fmt_complex(z) for z in cmp.only_left)
    lines.extend("    only right: " + _fmt_complex(z) for z in cmp.only_right)
    return EXIT_FAIL, "\n".join(lines)


def cmd_bas(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    bas = basic_structural_set(g)
    return EXIT_OK, _json_text({"basic_structural_set": list(bas)})


def cmd_scc(args) -> Tuple[int, str]:
    from .scc import scc_filter, scc_partition

    g = _load_graph(args.graph)
    if args.filter:
        return EXIT_OK, _json_text(scc_filter(g).to_json_dict())
    part = scc_partition(g)
    return EXIT_OK, _json_text({"components": [list(c) for c in part]})


def cmd_expand(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    x = expand(g, _vertex_list(args.set))
    return EXIT_OK, _json_text(x.to_json_dict())


def cmd_bisect(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    endpoints = _vertex_list(args.edge)
    if len(endpoints) != 2:
        raise CliError("--edge wants 'from,to'")
    w_in = parse_weight(args.w_in)
    w_loop = parse_weight(args.w_loop)
    w_out = parse_weight(args.w_out)
    out = loop_bisect(
        g, (endpoints[0], endpoints[1]), w_in, w_loop, w_out, args.vertex
    )
    return EXIT_OK, _json_text(out.to_json_dict())


def cmd_laplacian(args) -> Tuple[int, str]:
    from .laplacian import (
        combinatorial_laplacian_graph,
        generalized_laplacian_graph,
        normalized_laplacian_graph,
    )

    g = _load_graph(args.graph)
    kind = args.laplacian
    if kind == "comb":
        out = combinatorial_laplacian_graph(g)
    elif kind == "norm":
        out = normalized_laplacian_graph(g, mode="numeric")
    elif kind == "norm-exact":
        out = normalized_laplacian_graph(g, mode="exact-similar")
    else:
        out = generalized_laplacian_graph(g)
    return EXIT_OK, _json_text(out.to_json_dict())


def cmd_weightset(args) -> Tuple[int, str]:
    g = _load_graph(args.graph)
    test = SUBRING_TESTS[args.subring]
    reduced = weightset_reduce(g, test)
    report = verify_weightset(g, reduced, test)
    payload = {
        "graph": reduced.to_json_dict(),
        "verify": {"ok": report.ok, "lines": report.lines},
    }
    return (EXIT_OK if report.ok else EXIT_FAIL), _json_text(payload)


def cmd_isocheck(args) -> Tuple[int, str]:
    from .isoequiv import isomorphic

    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    witness = isomorphic(g, h)
    payload = {
        "isomorphic": witness is not None,
        "witness": witness,
    }
    return EXIT_OK, _json_text(payload)


def cmd_proptest(args) -> Tuple[int, str]:
    from .proptest import run_all

    results = run_all(cases=args.cases, seed=args.seed)
    lines = [r.summary() for r in results]
    bad = [r for r in results if not r.ok]
    for r in bad:
        lines.extend("  " + f for f in r.failures[:5])
    total = sum(r.cases for r in results)
    lines.append(
        f"total: {total} cases across {len(results)} suites, "
        + ("all ok" if not bad else f"{len(bad)} suites failed")
    )
    return (EXIT_OK if not bad else EXIT_FAIL), "\n".join(lines)


# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other malformed input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _case_count(text: str) -> int:
    """A ``--cases`` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_GRAPH = ("graph", {})

# name: (handler, help, arguments); every command also takes --out
COMMANDS = {
    "reduce": (cmd_reduce, "reduce a graph over a structural set", (
        _GRAPH,
        ("--set", dict(help="comma-separated structural set")),
        ("--seq", dict(help="JSON file with a list of vertex lists")),
        ("--to", dict(help="target vertex set for a unique reduction")),
    )),
    "spectrum": (cmd_spectrum, "exact spectrum of a graph", (_GRAPH,)),
    "verify": (cmd_verify, "check spectrum preservation end to end", (
        _GRAPH,
        ("--set", dict(required=True)),
        ("--expect", dict(help="claimed reduced graph to check instead of the computed one")),
    )),
    "bas": (cmd_bas, "basic structural set", (_GRAPH,)),
    "scc": (cmd_scc, "strongly connected components", (
        _GRAPH,
        ("--filter", dict(action="store_true", help="emit the intra-component graph")),
    )),
    "expand": (cmd_expand, "branch expansion over a structural set", (
        _GRAPH,
        ("--set", dict(required=True)),
    )),
    "bisect": (cmd_bisect, "loop-bisect one edge", (
        _GRAPH,
        ("--edge", dict(required=True, help="'from,to'")),
        ("--w-in", dict(required=True, help="weight into the new vertex")),
        ("--w-loop", dict(required=True, help="loop weight of the new vertex")),
        ("--w-out", dict(required=True, help="weight out of the new vertex")),
        ("--vertex", dict(help="name for the new vertex")),
    )),
    "laplacian": (cmd_laplacian, "Laplacian-derived graphs", (
        _GRAPH,
        ("--laplacian", dict(choices=["comb", "norm", "norm-exact", "gen"], default="comb",
                             help="which Laplacian form to build")),
    )),
    "weightset": (cmd_weightset, "vertex reduction over a weight subring", (
        _GRAPH,
        ("--subring", dict(choices=sorted(SUBRING_TESTS), default="int")),
    )),
    "isocheck": (cmd_isocheck, "weighted isomorphism check", (_GRAPH, ("other", {}))),
    "proptest": (cmd_proptest, "run the randomized invariant suites", (
        ("--cases", dict(type=_case_count, default=60)),
        ("--seed", dict(type=int, default=0)),
    )),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the subparser of the command that
    ``argv`` starts with, or all of them when it starts with no command
    name, so that top-level help and usage errors list every command."""
    p = _Parser(prog="isored", description="Isospectral reductions of weighted digraphs")
    names = [argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS)
    # the top-level usage line, which reports an unknown option after a
    # command, lists every command; argparse writes it when all are built
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        handler, help_text, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", help="write output to this file")
        for flag, options in arguments:
            sp.add_argument(flag, **options)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    # one BLAS thread unless the user chose one: more threads can make the
    # first small eigenvalue problem an order of magnitude slower, and make
    # a large one no faster; numpy, which only proptest loads (through
    # oracles), reads these when it loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        with located_once():
            code, text = args.handler(args)
        _emit(text, args.out)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        malformed = isinstance(exc, (CliError, UnknownVertexError, ParseError))
        return EXIT_INPUT if malformed else EXIT_PRECONDITION
    return code


if __name__ == "__main__":
    sys.exit(main())
