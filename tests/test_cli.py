"""End-to-end command-line behavior, including the golden verify runs."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path, PurePath

import pytest

import isored

from isored import (
    RatFun,
    WeightedDigraph,
    complete_bipartite_graph,
    complete_graph,
    parse_weight,
)
from isored import cli
from isored.cli import _fmt_complex, main
from isored.oracles import polyroots_reference
from isored.ratfun import GaussianRational, Poly

from sample_graphs import (
    COMPACT_SET,
    EXPANDED_SET,
    branch_pair_compact,
    branch_pair_expanded,
    diamond_with_pendant_cycles,
    laplacian_triangle,
)

ONE = RatFun.one()


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(graph.to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_reduce_with_set(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", branch_pair_expanded())
    code, out = run_cli(capsys, "reduce", path, "--set", "w2,w5")
    assert code == 0
    data = json.loads(out)
    weights = {(e["from"], e["to"]): e["weight"] for e in data["graph"]["edges"]}
    assert weights == {
        ("w2", "w2"): "1/(l-1)",
        ("w2", "w5"): "1/(l-1)",
        ("w5", "w2"): "1/l",
        ("w5", "w5"): "(l+1)/l",
    }
    points = sorted(p["re"] for p in data["forbidden_set"]["points"])
    assert points == pytest.approx([0.0, 1.0])


def test_reduce_output_with_a_long_weight_verifies_as_expected(tmp_path, capsys):
    # (l+1)^512 * (l+1) / l prints as a long constant-times-monomial sum over
    # l, and verify --expect reads that output back
    edges = [{"from": "a", "to": "c", "weight": "(l+1)^512"}, {"from": "c", "to": "b", "weight": "l+1"}]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": edges}))
    path = str(path)
    code, out = run_cli(capsys, "reduce", path, "--set", "a,b")
    assert code == 0
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps(json.loads(out)["graph"]))
    code, out = run_cli(capsys, "verify", path, "--set", "a,b", "--expect", str(claim))
    assert code == 0, out


def test_reduce_over_everything_echoes_graph(tmp_path, capsys):
    g = branch_pair_compact()
    path = write_graph(tmp_path, "g.json", g)
    code, out = run_cli(capsys, "reduce", path, "--set", ",".join(g.vertices))
    assert code == 0
    data = json.loads(out)
    assert WeightedDigraph.from_json_dict(data["graph"]) == g
    assert data["forbidden_set"]["points"] == []


def test_reduce_to_single_vertex(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.json", complete_graph(4))
    code, out = run_cli(capsys, "reduce", path, "--to", "v1")
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["vertices"] == ["v1"]


def test_reduce_with_sequence_file(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", branch_pair_expanded())
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps([["w2", "w5"], ["w2"]]))
    code, out = run_cli(capsys, "reduce", path, "--seq", str(seq))
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["vertices"] == ["w2"]
    assert len(data["forbidden_set"]["points"]) >= 2


def test_reduce_invalid_set_exits_2(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.json", complete_graph(3))
    code = main(["reduce", path, "--set", "v1"])
    assert code == 2


def test_reduce_requires_exactly_one_mode(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.json", complete_graph(3))
    code = main(["reduce", path])
    assert code == 1


def test_spectrum_output(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", branch_pair_expanded())
    code, out = run_cli(capsys, "spectrum", path)
    assert code == 0
    data = json.loads(out)
    roots = sorted((round(r["re"], 9), r["mult"]) for r in data["roots"])
    assert roots == [(-1.0, 1), (0.0, 2), (1.0, 2), (2.0, 1)]
    assert "charpoly_num" in data and "charpoly_den" in data


# Small graphs mixing integer, c/(l-d) and a+bi weights, with the exact
# strings `spectrum` and `reduce --set` print for them.  Float roots are not
# pinned: their last digits belong to the root finder.
PINNED_OUTPUTS = [
    (
        {"vertices": ["a", "b", "c"], "edges": [("a", "b", "2"), ("b", "c", "1/(l-3)"), ("c", "a", "1+2i"),
                                                 ("a", "a", "-1"), ("b", "a", "3/(l+1)")]},
        "a,b",
        ("-l^5+l^4+5*l^3+9*l^2+(-16+4i)*l+(2+4i)", "l^2-2*l-3"),
        [("a", "a", "-1"), ("a", "b", "2"), ("b", "a", "(3*l^2+(-8+2i)*l+(1+2i))/(l^3-2*l^2-3*l)")],
    ),
    (
        {"vertices": ["a", "b", "c", "d"], "edges": [("a", "c", "i/(l-2)"), ("c", "b", "2-i"), ("b", "d", "3"),
                                                      ("d", "a", "1/(l+1)"), ("b", "a", "-2"), ("c", "c", "5")]},
        "a,b",
        ("l^6-6*l^5+3*l^4+10*l^3+(2+4i)*l^2+(2+4i)*l+(-3-6i)", "l^2-l-2"),
        [("a", "b", "(1+2i)/(l^2-7*l+10)"), ("b", "a", "(-2*l^2-2*l+3)/(l^2+l)")],
    ),
    (
        {"vertices": ["u", "v", "w"], "edges": [("u", "v", "1/2"), ("v", "w", "(1-i)/(l+2)"), ("w", "u", "4"),
                                                 ("w", "v", "-3"), ("u", "u", "i")]},
        "u,v",
        ("-l^4+(-2+1i)*l^3+2i*l^2+(-3+3i)*l+(5+1i)", "l+2"),
        [("u", "u", "1i"), ("u", "v", "1/2"), ("v", "u", "(4-4i)/(l^2+2*l)"), ("v", "v", "(-3+3i)/(l^2+2*l)")],
    ),
    (
        {"vertices": ["p", "q", "r", "s"], "edges": [("p", "q", "1"), ("q", "r", "2/(l-1)"), ("r", "s", "1+i"),
                                                      ("s", "p", "-1"), ("r", "p", "3"), ("s", "q", "1/(l+1)"),
                                                      ("p", "p", "2")]},
        "p,q",
        ("l^6-2*l^5-l^4+2*l^3-6*l^2-6*l+(6+6i)", "l^2-1"),
        [("p", "p", "2"), ("p", "q", "1"), ("q", "p", "(6*l+(-2-2i))/(l^3-l^2)"), ("q", "q", "(2+2i)/(l^4-l^2)")],
    ),
]


@pytest.mark.parametrize("graph, structural, charpoly, weights", PINNED_OUTPUTS)
def test_spectrum_and_reduce_print_the_pinned_weights(tmp_path, capsys, graph, structural, charpoly, weights):
    graph = {"vertices": graph["vertices"], "edges": _edges(*graph["edges"])}
    code, out = run_on_files(tmp_path, capsys, graph, ["spectrum"])
    assert code == 0, out.err
    data = json.loads(out.out)
    assert (data["charpoly_num"], data["charpoly_den"]) == charpoly
    code, out = run_on_files(tmp_path, capsys, graph, ["reduce", "--set", structural])
    assert code == 0, out.err
    assert [(e["from"], e["to"], e["weight"]) for e in json.loads(out.out)["graph"]["edges"]] == weights


def test_spectrum_of_empty_graph(tmp_path, capsys):
    path = write_graph(tmp_path, "empty.json", WeightedDigraph([], []))
    code, out = run_cli(capsys, "spectrum", path)
    assert code == 0
    assert json.loads(out)["roots"] == []


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["spectrum", str(path)]) == 1


def test_bad_weight_string_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["a"],
                "edges": [{"from": "a", "to": "a", "weight": "1 + #"}],
            }
        )
    )
    assert main(["spectrum", str(path)]) == 1


@pytest.mark.parametrize(
    "builder,structural",
    [
        (branch_pair_expanded, "w2,w5"),
        (branch_pair_compact, "v1,v4"),
        (lambda: complete_bipartite_graph(2, 3), "m1,m2"),
        (laplacian_triangle, "v1,v2"),
        (diamond_with_pendant_cycles, "w2,w5"),
    ],
)
def test_verify_golden_graphs_pass(tmp_path, capsys, builder, structural):
    path = write_graph(tmp_path, "g.json", builder())
    code, out = run_cli(capsys, "verify", path, "--set", structural)
    assert code == 0
    assert "PASS" in out


def test_verify_laplacian_notes_exact_preservation(tmp_path, capsys):
    path = write_graph(tmp_path, "lap.json", laplacian_triangle())
    code, out = run_cli(capsys, "verify", path, "--set", "v1,v2")
    assert code == 0
    assert "note: spectrum preserved exactly" in out


def test_verify_broken_claimed_reduction_fails_with_exit_3(tmp_path, capsys):
    from isored import reduce

    g = branch_pair_expanded()
    path = write_graph(tmp_path, "g.json", g)
    r = reduce(g, ["w2", "w5"])
    broken_edges = [
        (u, v, w if (u, v) != ("w2", "w5") else RatFun.from_int(9))
        for u, v, w in r.edges()
    ]
    broken = write_graph(tmp_path, "claim.json", WeightedDigraph(r.vertices, broken_edges))
    code, out = run_cli(capsys, "verify", path, "--set", "w2,w5", "--expect", broken)
    assert code == 3
    assert "FAIL" in out and "only" in out
    # the engine's own reduction passes the same check
    good = write_graph(tmp_path, "good.json", r)
    code, out = run_cli(capsys, "verify", path, "--set", "w2,w5", "--expect", good)
    assert code == 0


def test_verify_claim_with_eigenvalue_just_off_the_exception_set_fails(tmp_path, capsys):
    # N(G;{s}) = {1}; the claim adds the eigenvalue 1 + 1e-10, which is
    # neither in sigma(G) nor in N, so no tolerance may absorb it
    g = WeightedDigraph(
        ["s", "a"], [("s", "a", ONE), ("a", "s", ONE), ("a", "a", ONE)]
    )
    claim = WeightedDigraph(
        ["s", "t"],
        [("s", "s", parse_weight("1/(l-1)")), ("t", "t", parse_weight("10000000001/10000000000"))],
    )
    path = write_graph(tmp_path, "g.json", g)
    claimed = write_graph(tmp_path, "claim.json", claim)
    code, out = run_cli(capsys, "verify", path, "--set", "s", "--expect", claimed)
    assert code == 3
    assert "FAIL" in out and "only right: 1.0000000001\n" in out
    code, out = run_cli(capsys, "verify", path, "--set", "s")
    assert code == 0
    assert "note: spectrum preserved exactly" in out


GOOD_EDGE = {"from": "a", "to": "b", "weight": "1"}


@pytest.mark.parametrize(
    "graph,argv",
    [
        ({"vertices": ["a", "b"], "edges": [{"to": "b", "weight": "1"}]}, ["spectrum"]),
        ({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "weight": 5}]}, ["spectrum"]),
        ({"vertices": [1, 2], "edges": []}, ["spectrum"]),
        ({"vertices": "ab", "edges": []}, ["spectrum"]),
        ({"vertices": ["a", "b"], "edges": {"from": "a"}}, ["spectrum"]),
        ({"vertices": ["a", "b"], "edges": ["a->b"]}, ["spectrum"]),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE], "undirected": "no"}, ["spectrum"]),
        (["a", "b"], ["spectrum"]),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE]}, ["reduce", "--set", "a,zz"]),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE]}, ["reduce", "--to", "zz"]),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE]}, ["verify", "--set", "a,zz"]),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE]}, ["expand", "--set", "a,zz"]),
        (
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "(" * 5000 + "l" + ")" * 5000}]},
            ["spectrum"],
        ),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE]}, ["reduce", "--seq", [[["a"]]]]),
        ({"vertices": ["a", "b"], "edges": [GOOD_EDGE]}, ["reduce", "--seq", {"steps": [["a"]]}]),
        (
            {"vertices": ["a", "b"], "edges": [GOOD_EDGE]},
            ["bisect", "--edge", "a,b", "--w-in", "1+#", "--w-loop", "0", "--w-out", "1"],
        ),
        pytest.param(b"\xff\xfe not utf-8", ["spectrum"], id="graph-not-utf-8"),
        pytest.param(b"[" * 100000, ["spectrum"], id="json-nested-too-deeply"),
        pytest.param(
            {"vertices": ["a", "b"], "edges": [GOOD_EDGE]},
            ["spectrum", "--out", PurePath("missing_dir", "x.json")],
            id="out-dir-missing",
        ),
        pytest.param(
            {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "weight": "l"}]},
            ["reduce", "--to", "zz"],
            id="to-unknown-vertex-positive-degree-gap",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "l^1000000000"}]},
            ["spectrum"],
            id="power-degree-past-ceiling",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "2^1000000000"}]},
            ["spectrum"],
            id="power-bits-past-ceiling",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "(l+1)^2000"}]},
            ["spectrum"],
            id="power-work-past-ceiling",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "(l^2+1/3)^1000"}]},
            ["spectrum"],
            id="power-work-past-ceiling-rational",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "l²"}]},
            ["spectrum"],
            id="superscript-digit",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "9" * 5000}]},
            ["spectrum"],
            id="numeral-past-digit-limit",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "(l+1)^512*(l+1)^512"}]},
            ["spectrum"],
            id="product-of-admitted-powers",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "*".join(["(l+1)^512"] * 4)}]},
            ["spectrum"],
            id="fourfold-product-of-admitted-powers",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "+".join(["(l+1)^512"] * 4)}]},
            ["spectrum"],
            id="fourfold-sum-of-admitted-powers",
        ),
        pytest.param(
            {"vertices": ["a"], "edges": [{"from": "a", "to": "a", "weight": "*".join(["l^4096"] * 100)}]},
            ["spectrum"],
            id="hundredfold-product-of-admitted-powers",
        ),
    ],
)
def test_malformed_input_exits_1_with_one_error_line(tmp_path, capsys, graph, argv):
    code, captured = run_on_files(tmp_path, capsys, graph, argv)
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def run_on_files(tmp_path, capsys, graph, argv):
    """Run ``argv[0] g.json argv[1:]``; ``graph`` is written as JSON (or as
    raw bytes), and so is every argument that is neither a string nor a
    path, which is replaced by its file's path.  A path argument is taken
    relative to ``tmp_path``."""
    path = tmp_path / "g.json"
    if isinstance(graph, bytes):
        path.write_bytes(graph)
    else:
        path.write_text(json.dumps(graph))
    rest = []
    for k, arg in enumerate(argv[1:]):
        if isinstance(arg, PurePath):
            arg = str(tmp_path / arg)
        elif not isinstance(arg, str):
            arg_path = tmp_path / f"arg{k}.json"
            arg_path.write_text(json.dumps(arg))
            arg = str(arg_path)
        rest.append(arg)
    code = main([argv[0], str(path)] + rest)
    return code, capsys.readouterr()


def _edges(*triples):
    return [{"from": u, "to": v, "weight": w} for u, v, w in triples]


# the complement of {a} holds the cycle b -> c -> b
NON_STRUCTURAL = {"vertices": ["a", "b", "c"], "edges": _edges(("a", "b", "1"), ("b", "c", "1"), ("c", "b", "1"), ("c", "a", "1"))}
POLE = {"vertices": ["a", "b"], "edges": _edges(("a", "b", "1/l"))}
BISECT = ["bisect", "--edge", "a,b", "--w-in", "1", "--w-loop", "0", "--w-out", "1"]
# det(M - l*I) of a lone vertex with loop l is identically zero
LOOP_L = {"vertices": ["a"], "edges": _edges(("a", "a", "l"))}


@pytest.mark.parametrize(
    "graph,argv",
    [
        (NON_STRUCTURAL, ["reduce", "--set", "a"]),
        ({"vertices": ["a", "b"], "edges": _edges(("a", "b", "l"), ("b", "a", "1"))}, ["reduce", "--to", "a"]),
        (NON_STRUCTURAL, ["reduce", "--seq", [["a", "b", "c"], []]]),
        (NON_STRUCTURAL, ["verify", "--set", "a"]),
        (NON_STRUCTURAL, ["expand", "--set", "a"]),
        ({"vertices": ["a", "b"], "edges": _edges(("a", "b", "1"))}, ["bas"]),
        (POLE, ["bisect", "--edge", "a,b", "--w-in", "1", "--w-loop", "1", "--w-out", "1"]),
        (POLE, ["bisect", "--edge", "b,a", "--w-in", "1", "--w-loop", "0", "--w-out", "1"]),
        (POLE, BISECT + ["--vertex", "b"]),
        ({"vertices": ["a", "b"], "edges": _edges(("a", "b", "1"))}, ["laplacian", "--laplacian", "comb"]),
        ({"vertices": ["a", "b"], "edges": _edges(("a", "b", "1/2"), ("b", "a", "1"))}, ["weightset", "--subring", "int"]),
        (LOOP_L, ["spectrum"]),
        (LOOP_L, ["verify", "--set", "a"]),
        ({"vertices": ["a", "b"], "edges": _edges(("a", "b", "*".join(["2^4096"] * 4)))}, ["reduce", "--set", "a,b"]),
    ],
    ids=[
        "reduce-set-non-structural",
        "reduce-to-positive-degree-gap",
        "reduce-seq-empty-step",
        "verify-non-structural",
        "expand-non-structural",
        "bas-no-basic-set",
        "bisect-bad-factorization",
        "bisect-missing-edge",
        "bisect-existing-vertex",
        "laplacian-not-simple",
        "weightset-outside-subring",
        "spectrum-zero-determinant",
        "verify-zero-determinant",
        "weight-past-digit-limit",
    ],
)
def test_violated_precondition_exits_2_with_one_error_line(tmp_path, capsys, graph, argv):
    code, captured = run_on_files(tmp_path, capsys, graph, argv)
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "g.json"],
        ["proptest", "--cases", "x"],
        ["proptest", "--cases", "-3"],
        ["proptest", "--cases", "0"],
        ["no-such-command"],
    ],
    ids=[
        "verify-without-set",
        "proptest-cases-not-int",
        "proptest-cases-negative",
        "proptest-cases-zero",
        "unknown-command",
    ],
)
def test_usage_error_exits_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("isored")
    assert "error: " in captured.err.splitlines()[-1]


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# help and usage errors: top level, then each command's -h, each command
# with no arguments (proptest needs none, and would run), and an unknown
# option after each command, which the top-level parser reports
PARSER_ROWS = [[], ["-h"], ["no-such-command"]] + [
    row
    for name in cli.COMMANDS
    for row in ([name, "-h"], [name], [name, "g.json", "--no-such-option"])
    if row != ["proptest"]
]


@pytest.mark.parametrize("argv", PARSER_ROWS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    got = _outcome(capsys, argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_parser(()))
    assert got == _outcome(capsys, argv)
    assert got[0] in (0, 1) and got[1:] != ("", "")
    if not argv or argv[0] not in cli.COMMANDS:
        assert all(name in got[1] + got[2] for name in cli.COMMANDS)
    if not argv:
        assert got[2].endswith("isored: error: the following arguments are required: command\n")


def test_a_named_command_builds_only_its_subparser():
    def built(argv):
        (sub,) = [a for a in cli.build_parser(argv)._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    for name in cli.COMMANDS:
        assert built([name, "g.json"]) == [name]
    for argv in ([], ["-h"], ["no-such-command"], ["--out", "x", "reduce"]):
        assert built(argv) == list(cli.COMMANDS)


@pytest.mark.parametrize(
    "vertices,argv",
    [(["v"], ["spectrum"]), (["v"], ["verify", "--set", "v"]), (["s", "v"], ["reduce", "--set", "s"])],
)
@pytest.mark.parametrize(
    "loop",
    [
        "l^2+10^700",  # the roots, of modulus 10^350, overflow a double
        "(l+1)^250",  # the inclusion discs are not certified within the sweep ceiling
        "l^3000",  # the degree passes the root-location ceiling
    ],
)
def test_roots_outside_double_range_exit_2_with_one_error_line(tmp_path, capsys, loop, vertices, argv):
    graph = {"vertices": vertices, "edges": [{"from": "v", "to": "v", "weight": loop}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code = main([argv[0], str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot locate the roots")


def loop_roots_agree(tmp_path, capsys, loop, vertices, argv, reference):
    """The command on the graph with ``loop`` on v exits 0, and each root it
    prints (``verify`` prints none to check) is within 1e-12, relative to
    the root, of one of the three values of ``reference``."""
    graph = {"vertices": vertices, "edges": [{"from": "v", "to": "v", "weight": loop}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code = main([argv[0], str(path)] + argv[1:])
    out = capsys.readouterr().out
    assert code == 0
    if argv[0] == "verify":
        return
    data = json.loads(out)
    points = data["roots"] if argv[0] == "spectrum" else data["forbidden_set"]["points"]
    found = [complex(r["re"], r["im"]) for r in points]
    assert len(found) == 3
    for z in found:
        assert min(abs(z - r) / abs(r) for r in reference) <= 1e-12


@pytest.mark.parametrize(
    "vertices,argv",
    [(["v"], ["spectrum"]), (["v"], ["verify", "--set", "v"]), (["s", "v"], ["reduce", "--set", "s"])],
)
def test_tiny_roots_are_located_and_agree_with_the_reference(tmp_path, capsys, vertices, argv):
    # l = 10^300 l^3 + l + 1 is solved by l = 10^-100 u with u^3 = -1
    reference = [complex(u) * 1e-100 for u in polyroots_reference(parse_weight("l^3+1").num)]
    loop_roots_agree(tmp_path, capsys, "10^300*l^3+l+1", vertices, argv, reference)


@pytest.mark.parametrize(
    "vertices,argv",
    [(["v"], ["spectrum"]), (["v"], ["verify", "--set", "v"]), (["s", "v"], ["reduce", "--set", "s"])],
)
def test_huge_roots_are_located_and_agree_with_the_reference(tmp_path, capsys, vertices, argv):
    # a coefficient 10^400 overflows a double, but the roots of
    # l^3 - l + 10^400, of modulus about 10^133, do not: with l = 10^133 u,
    # the reference solves 10^399 u^3 - 10^133 u + 10^400
    p = parse_weight("l^3-l+10^400").num
    scaled = Poly([c * GaussianRational(10 ** (133 * k)) for k, c in enumerate(p.coeffs)])
    reference = [complex(u) * 1e133 for u in polyroots_reference(scaled)]
    loop_roots_agree(tmp_path, capsys, "l^3+10^400", vertices, argv, reference)


def test_fmt_complex_clears_noise_in_either_part():
    assert _fmt_complex(1e-17 + 1.7320508075688772j) == "0+1.73205080757i"
    assert _fmt_complex(1.0000000001 - 0j) == "1.0000000001"
    assert _fmt_complex(-0.0 - 1e-30j) == "0"


def test_bas_command(tmp_path, capsys):
    path = write_graph(tmp_path, "k23.json", complete_bipartite_graph(2, 3))
    code, out = run_cli(capsys, "bas", path)
    assert code == 0
    assert set(json.loads(out)["basic_structural_set"]) == {
        "m1",
        "m2",
        "n1",
        "n2",
        "n3",
    }


def test_bas_empty_exits_2(tmp_path, capsys):
    path = write_graph(
        tmp_path, "chain.json", WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    )
    assert main(["bas", str(path)]) == 2


def test_scc_partition_and_filter(tmp_path, capsys):
    g = WeightedDigraph(
        ["a", "b", "c"],
        [("a", "b", ONE), ("b", "a", ONE), ("b", "c", ONE)],
    )
    path = write_graph(tmp_path, "g.json", g)
    code, out = run_cli(capsys, "scc", path)
    assert code == 0
    comps = json.loads(out)["components"]
    assert sorted(map(sorted, comps)) == [["a", "b"], ["c"]]
    code, out = run_cli(capsys, "scc", path, "--filter")
    filtered = WeightedDigraph.from_json_dict(json.loads(out))
    assert filtered.edge_count() == 2
    assert not filtered.has_edge("b", "c")


def test_expand_command(tmp_path, capsys):
    path = write_graph(tmp_path, "h.json", branch_pair_compact())
    code, out = run_cli(capsys, "expand", path, "--set", "v1,v4")
    assert code == 0
    expanded = WeightedDigraph.from_json_dict(json.loads(out))
    assert expanded.n == 6


@pytest.mark.parametrize(
    "vertices,argv,fresh",
    [
        # a -> c -> b, and an isolated vertex that holds the interior copy's name
        (["a", "b", "c", "a~b~0~1"], ["expand", "--set", "a,b,a~b~0~1"], "a~b~0~11"),
        (["a", "b", "a~b~bis"], ["bisect", "--edge", "a,b", "--w-in", "1", "--w-loop", "0", "--w-out", "1"], "a~b~bis1"),
    ],
)
def test_new_vertices_get_names_no_vertex_holds(tmp_path, capsys, vertices, argv, fresh):
    weight = RatFun.one() / RatFun.var() if argv[0] == "bisect" else RatFun.one()
    edges = [("a", "b", weight)] if argv[0] == "bisect" else [("a", "c", weight), ("c", "b", weight)]
    path = write_graph(tmp_path, "g.json", WeightedDigraph(vertices, edges))
    code, out = run_cli(capsys, argv[0], path, *argv[1:])
    assert code == 0
    made = WeightedDigraph.from_json_dict(json.loads(out))
    assert fresh in made.vertices and len(set(made.vertices)) == made.n


def test_bisect_command_roundtrip(tmp_path, capsys):
    g = WeightedDigraph(["a", "b"], [("a", "b", RatFun.one() / RatFun.var())])
    path = write_graph(tmp_path, "g.json", g)
    code, out = run_cli(
        capsys,
        "bisect",
        path,
        "--edge",
        "a,b",
        "--w-in",
        "1",
        "--w-loop",
        "0",
        "--w-out",
        "1",
        "--vertex",
        "mid",
    )
    assert code == 0
    h = WeightedDigraph.from_json_dict(json.loads(out))
    assert h.n == 3 and h.has_edge("a", "mid") and h.has_edge("mid", "b")


def test_bisect_bad_factorization_exits_2(tmp_path, capsys):
    g = WeightedDigraph(["a", "b"], [("a", "b", RatFun.one() / RatFun.var())])
    path = write_graph(tmp_path, "g.json", g)
    code = main(
        ["bisect", path, "--edge", "a,b", "--w-in", "1", "--w-loop", "1", "--w-out", "1"]
    )
    assert code == 2


def test_laplacian_command_forms(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.json", complete_graph(3))
    code, out = run_cli(capsys, "laplacian", path, "--laplacian", "comb")
    assert code == 0
    lg = WeightedDigraph.from_json_dict(json.loads(out))
    assert lg.loop("v1") == RatFun.from_int(2)
    code, out = run_cli(capsys, "laplacian", path, "--laplacian", "norm-exact")
    assert code == 0
    code, out = run_cli(capsys, "laplacian", path, "--laplacian", "norm")
    assert code == 0
    code, out = run_cli(capsys, "laplacian", path, "--laplacian", "gen")
    assert code == 0


def test_laplacian_rejects_directed_input(tmp_path, capsys):
    g = WeightedDigraph(["a", "b"], [("a", "b", ONE)])
    path = write_graph(tmp_path, "g.json", g)
    assert main(["laplacian", path, "--laplacian", "comb"]) == 2


def test_weightset_command(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", diamond_with_pendant_cycles())
    code, out = run_cli(capsys, "weightset", path, "--subring", "int")
    assert code == 0
    data = json.loads(out)
    assert len(data["graph"]["vertices"]) == 4
    assert data["verify"]["ok"] is True


def test_isocheck_command(tmp_path, capsys):
    r1 = write_graph(tmp_path, "r1.json", branch_pair_expanded())
    r2 = write_graph(tmp_path, "r2.json", branch_pair_compact())
    code, out = run_cli(capsys, "isocheck", r1, r2)
    assert code == 0
    assert json.loads(out)["isomorphic"] is False
    code, out = run_cli(capsys, "isocheck", r1, r1)
    data = json.loads(out)
    assert data["isomorphic"] is True and data["witness"] is not None


def test_isocheck_and_weightset_on_a_long_cycle(tmp_path, capsys):
    # the isomorphism search keeps its own stack, one level per vertex, so
    # a long graph does not exhaust the interpreter's recursion limit
    n = 1200
    cycle = WeightedDigraph(
        [f"v{k}" for k in range(n)], [(f"v{k}", f"v{(k + 1) % n}", ONE) for k in range(n)]
    )
    relabelled = WeightedDigraph(
        [f"u{k}" for k in range(n)], [(f"u{k}", f"u{(k + 1) % n}", ONE) for k in reversed(range(n))]
    )
    path = write_graph(tmp_path, "c.json", cycle)
    code, out = run_cli(capsys, "isocheck", path, write_graph(tmp_path, "r.json", relabelled))
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert all(relabelled.has_edge(data["witness"][u], data["witness"][v]) for u, v, _ in cycle.edges())
    code, _ = run_cli(capsys, "weightset", path)
    assert code == 0


def test_proptest_command_smoke(capsys):
    code, out = run_cli(capsys, "proptest", "--cases", "3", "--seed", "5")
    assert code == 0
    assert "all ok" in out


def test_output_is_deterministic(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", branch_pair_expanded())
    _, first = run_cli(capsys, "reduce", path, "--set", "w2,w5")
    _, second = run_cli(capsys, "reduce", path, "--set", "w2,w5")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_graph(tmp_path, "g.json", branch_pair_expanded())
    target = tmp_path / "result.json"
    code, out = run_cli(capsys, "spectrum", path, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["roots"]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "isored.cli", "proptest", "--cases", "2", "--seed", "1"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert "all ok" in proc.stdout


SRC = str(Path(isored.__file__).resolve().parent.parent)
WARMUP = {
    "vertices": ["a", "b"],
    "edges": [
        {"from": "a", "to": "b", "weight": "2"},
        {"from": "b", "to": "a", "weight": "1/(l-1)"},
        {"from": "a", "to": "a", "weight": "1"},
    ],
}
UNDIRECTED_EDGE = {"vertices": ["a", "b"], "edges": [GOOD_EDGE], "undirected": True}
# what no command but proptest has a use for
NOT_AT_START = {"numpy", "scipy", "mpmath", "isored.proptest", "isored.oracles", "isored.laplacian"}


def src_env():
    """The environment with this isored's ``src`` first on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_fresh(script, *argv):
    """Run ``script`` in a fresh interpreter that imports this isored."""
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=src_env()
    )


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")


@pytest.mark.parametrize(
    "redirect",
    [
        pytest.param(">/dev/full", id="stdout-full", marks=NO_DEV_FULL),
        pytest.param(">&-", id="stdout-closed"),
    ],
)
def test_unwritable_stdout_exits_1_with_one_error_line(tmp_path, redirect):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(WARMUP))
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" -m isored.cli spectrum "$1" {redirect}', sys.executable, str(path)],
        stderr=subprocess.PIPE,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write to stdout"), proc.stderr


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,expected", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "2"}, "1 2 1")])
def test_cli_runs_one_blas_thread_unless_set(tmp_path, preset, expected):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(WARMUP))
    script = (
        "import os, sys, isored.cli\n"
        "code = isored.cli.main(['spectrum', sys.argv[1], '--out', sys.argv[2]])\n"
        f"print(*(os.environ.get(v) for v in {THREAD_VARS!r}))\n"
        "sys.exit(code)\n"
    )
    env = {k: v for k, v in src_env().items() if k not in THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**env, **preset},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


STARTUP_ROWS = [
    (["reduce", "--set", "a"], WARMUP, set()),
    (["bas"], WARMUP, set()),
    (["scc"], WARMUP, set()),
    (["expand", "--set", "a"], WARMUP, set()),
    (["bisect", "--edge", "a,b", "--w-in", "2*l", "--w-loop", "0", "--w-out", "1"], WARMUP, set()),
    (["laplacian"], UNDIRECTED_EDGE, {"isored.laplacian"}),
    (["spectrum"], WARMUP, set()),
    (["verify", "--set", "a"], WARMUP, set()),
]


@pytest.mark.parametrize("argv,graph,needed", STARTUP_ROWS, ids=[row[0][0] for row in STARTUP_ROWS])
def test_command_loads_only_what_it_runs(tmp_path, argv, graph, needed):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    script = (
        "import sys, isored.cli\n"
        "code = isored.cli.main(sys.argv[1:])\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = run_fresh(script, argv[0], str(path), *argv[1:], "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert needed <= loaded
    assert not (NOT_AT_START - needed) & loaded


def graph_rows():
    """(graph JSON, structural set) for the warm-up graph and the sample graphs."""
    yield WARMUP, "a"
    yield json.loads(branch_pair_expanded().to_json()), ",".join(EXPANDED_SET)
    yield json.loads(branch_pair_compact().to_json()), ",".join(COMPACT_SET)
    yield json.loads(diamond_with_pendant_cycles().to_json()), "w2,w5"
    yield json.loads(laplacian_triangle().to_json()), "v1,v2,v3"


def test_commands_run_the_same_with_numpy_blocked(tmp_path, capsys):
    # a None entry in sys.modules makes every import of numpy fail
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import isored.cli\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        code = isored.cli.main(argv)\n"
        "    out.append([code, buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    runs = []
    for k, (graph, structural) in enumerate(graph_rows()):
        path = tmp_path / f"g{k}.json"
        path.write_text(json.dumps(graph))
        g = str(path)
        runs += [
            ["spectrum", g],
            ["verify", g, "--set", structural],
            ["reduce", g, "--set", structural],
            ["isocheck", g, g],
        ]
    proc = run_fresh(script, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    for argv, blocked in zip(runs, json.loads(proc.stdout)):
        assert blocked == [0, run_cli(capsys, *argv)[1]], argv


def test_float_spectrum_matching_runs_without_scipy():
    script = (
        "import sys\n"
        "from isored import ForbiddenSet, spectra_equal_up_to\n"
        "from isored.spectrum import SpectralList, SpectralPoint\n"
        "def sl(vs): return SpectralList([SpectralPoint(z, 1, None) for z in vs])\n"
        "assert spectra_equal_up_to(sl([0, 1]), sl([0.45, -0.6]), ForbiddenSet.empty(), 0.7).ok\n"
        "assert not spectra_equal_up_to(sl([0, 3, 5]), sl([0, 7]), ForbiddenSet.empty(), 1e-9).ok\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


# every name ``isored`` bound when all its modules loaded with the package
PACKAGE_NAMES = """
Branch DuplicateEdgeError EmptyBasicSetError FactorizationError ForbiddenPoint ForbiddenSet
GaussianRational GraphError NotSimpleError ParseError Poly RatFun SUBRING_TESTS SccPartition
SpectralList SpectralPoint StructuralSetError UnknownVertexError WeightOutsideSubringError
WeightedDigraph all_branches all_paths bas_equivalent basic_structural_set branch_decomposition
branch_product char_det char_matrix charpoly_numerators_equal check_structural_set
combinatorial_laplacian_graph common_decomposition common_reduction compare_outside
complete_bipartite_graph complete_graph det_leibniz det_ratfun_matrix eig_dense
enumerate_branches expand expected_vertex_count forbidden_set format_weight
generalized_laplacian_graph is_g_pi is_structural_set isoequiv isomorphic laplacian loop_bisect
merge_parallel normalized_laplacian_graph oracles parse_weight poly_divmod poly_gcd poly_gcd_euclid
prune_off_branch ratfun
reduce reduce_by_paths reduced_scc_check reduction remove_vertex roots scc scc_filter
scc_partition sequential_reduce spectra_agree_outside spectra_equal_up_to spectrum
spectrum_minus squarefree_decompose structural tau_equivalent tau_min_outdegree_reduce
tau_reduce unique_reduce_to verify_weightset weight_sequence weightset weightset_reduce wgraph
""".split()


def test_package_names_resolve_in_a_fresh_interpreter():
    script = (
        "import sys, types, isored, isored.spectrum\n"
        "from isored import spectrum\n"
        "assert isinstance(spectrum, types.FunctionType), spectrum\n"
        "missing = [n for n in sys.argv[1:] if not hasattr(isored, n)]\n"
        "assert not missing, missing\n"
        "assert isored.isomorphic is isored.isoequiv.isomorphic\n"
    )
    proc = run_fresh(script, *PACKAGE_NAMES)
    assert proc.returncode == 0, proc.stderr
