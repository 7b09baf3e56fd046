"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import checker
import run
import tracer
from workloads import CYCLE, WORKLOADS, count_branches, make_op, size_tag

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _run(cli, op, tmp_path):
    run.write_files([op], tmp_path)
    return run.run_op(cli, op, str(tmp_path))


# op indices of the cheapest classes, plus one verify op that must FAIL
TINY = {"verify-mix": [0, 1, 9], "branch-reduce": [0, 1], "charpoly-spectrum": [0, 1]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean_at_tiny_size(cli, tmp_path, workload):
    for k in TINY[workload]:
        op = make_op(workload, 5, k)
        rec = _run(cli, op, tmp_path)
        assert checker.check(op, rec.code, rec.stdout, checker.Peaks()) is None, rec.stderr


def test_ops_rebuild_identically_from_seed():
    a, b = make_op("branch-reduce", 7, 3), make_op("branch-reduce", 7, 3)
    assert a.files == b.files and a.argv == b.argv
    assert make_op("branch-reduce", 8, 3).files != a.files


def test_op_stream_runs_past_the_pool_without_repeating(tmp_path):
    pool = [make_op("branch-reduce", 2, k) for k in range(3)]
    stream = run.op_stream(pool, "branch-reduce", 2, tmp_path)
    ops = [next(stream) for _ in range(3 + CYCLE["branch-reduce"] + 2)]
    indices = [op.index for op in ops]
    assert len(set(indices)) == len(indices)
    assert sorted(indices[:3]) == [0, 1, 2]
    assert sorted(indices[3:3 + CYCLE["branch-reduce"]]) == list(range(3, 3 + CYCLE["branch-reduce"]))
    for op in ops[3:]:
        assert all((tmp_path / name).is_file() for name in op.files)


@pytest.mark.parametrize("workload", ["branch-reduce", "charpoly-spectrum"])
def test_traced_ops_give_every_curve_point_enough_samples(workload):
    ks = run.traced_indices(workload)
    assert ks[: run.TRACED_OPS[workload]] == list(range(run.TRACED_OPS[workload]))
    assert len(set(ks)) == len(ks)
    tags = {size_tag(workload, k) for k in range(CYCLE[workload])}
    for tag in tags:
        assert sum(size_tag(workload, k) == tag for k in ks) >= run.MIN_CURVE_SAMPLES


def test_branch_count_matches_path_enumeration():
    edges = [("s", "a", "1"), ("s", "b", "1"), ("a", "c", "1"), ("b", "c", "1"),
             ("c", "s", "1"), ("c", "t", "1"), ("a", "a", "2"), ("s", "t", "1")]
    # s->a->c->s, s->b->c->s, s->a->c->t, s->b->c->t, s->t
    assert count_branches(["s", "t", "a", "b", "c"], edges, ["s", "t"]) == 5


def test_checker_flags_corrupted_reduced_weight(cli, tmp_path):
    op = make_op("branch-reduce", 5, 0)
    out = json.loads(_run(cli, op, tmp_path).stdout)
    edge = out["graph"]["edges"][0]
    edge["weight"] = f"({edge['weight']})+1/(l-3)"
    assert "wrong" in checker.check(op, 0, json.dumps(out))


def test_checker_flags_corrupted_charpoly_coefficient(cli, tmp_path):
    op = make_op("charpoly-spectrum", 5, 0)
    out = json.loads(_run(cli, op, tmp_path).stdout)
    out["charpoly_num"] = f"({out['charpoly_num']})+1"
    assert "det" in checker.check(op, 0, json.dumps(out))


def test_checker_flags_flipped_verdict(cli, tmp_path):
    op = make_op("verify-mix", 5, 0)
    rec = _run(cli, op, tmp_path)
    assert rec.code == 0 and checker.check(op, rec.code, rec.stdout) is None
    flipped = rec.stdout.replace("PASS:", "FAIL:")
    assert checker.check(op, 3, flipped) is not None
    assert checker.check(op, 0, flipped) is not None


def test_gaussian_int_det_matches_sympy():
    from sympy.polys.domains import ZZ_I
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(1)
    for n in (1, 2, 3, 5, 8):
        for _ in range(30):
            # sparse entries, so zero pivots and row swaps occur
            rows = [[(rng.randint(-3, 3) * (rng.random() < 0.5), rng.randint(-3, 3) * (rng.random() < 0.3))
                     for _ in range(n)] for _ in range(n)]
            want = DomainMatrix([[ZZ_I(a, b) for a, b in row] for row in rows], (n, n), ZZ_I).det()
            assert checker.gaussian_int_det(rows) == (int(want.x), int(want.y))


def test_checker_rejects_unparsable_output():
    op = make_op("charpoly-spectrum", 5, 0)
    assert checker.check(op, 0, "not json") is not None
    assert checker.check(op, 0, "{}") is not None


def test_tracer_reports_missing_names_as_absent(cli):
    ratfun = sys.modules["isored.ratfun"]
    original = ratfun.poly_gcd
    t = tracer.Tracer(tracer.TARGETS + [
        ("isored.spectrum", "no_such_name", "spectrum.gone"),
        ("isored.no_such_module", "f", "gone.module"),
        ("isored.wgraph", "NoSuchClass.f", "gone.method"),
    ])
    t.install()
    try:
        assert t.absent == ["spectrum.gone", "gone.module", "gone.method"]
        assert ratfun.poly_gcd is not original
    finally:
        t.uninstall()
    assert ratfun.poly_gcd is original


def test_tracer_wraps_every_binding_and_restores_them(cli, tmp_path):
    ratfun, spectrum, structural = (sys.modules[f"isored.{m}"] for m in ("ratfun", "spectrum", "structural"))
    originals = (ratfun.poly_gcd, structural.poly_gcd, spectrum.poly_gcd)
    t = tracer.Tracer()
    t.install()
    try:
        assert ratfun.poly_gcd is structural.poly_gcd is spectrum.poly_gcd
        assert ratfun.poly_gcd.__wrapped__ is originals[0]
        op = make_op("charpoly-spectrum", 5, 0)
        _run(cli, op, tmp_path)
    finally:
        t.uninstall()
    assert (ratfun.poly_gcd, structural.poly_gcd, spectrum.poly_gcd) == originals
    assert t.stats["cli.main"].calls == 1 and t.stats["spectrum.char_det"].calls == 1
    assert t.stats["ratfun.poly_gcd"].calls > 0
    main = t.stats["cli.main"]
    assert 0 < main.self_s < main.total_s


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_untraced_run_reports_end_to_end_metrics_without_tracer(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the untraced run must not install wrappers")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    monkeypatch.setitem(run.POOL_SIZE, "branch-reduce", 4)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    assert run.main(["--workload", "branch-reduce", "--seed", "2", "--seconds", "0.3"]) == 0
    meta, result = (json.loads(line) for line in capsys.readouterr().out.strip().splitlines()[-2:])
    assert len(meta["meta"]["setup_s_samples"]) == len(meta["meta"]["setup_raw_s_samples"]) == 2
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    monkeypatch.setitem(run.TRACED_OPS, "verify-mix", 10)
    assert run.main(["--workload", "verify-mix", "--seed", "2", "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    for layer in ("structural.forbidden_set", "reduction.reduce", "spectrum.char_det", "roots.poly_roots"):
        assert calls[f"{layer}.calls"] > 0


def test_replay_reruns_one_op(capsys):
    assert run.main(["--workload", "verify-mix", "--seed", "3", "--replay", "9"]) == 0
    out = capsys.readouterr().out
    assert "--expect" in out and "exit code: 3 (expected 3)" in out and "check: ok" in out


def test_failed_op_prints_a_replay_line(cli, tmp_path):
    op = make_op("verify-mix", 5, 0)
    rec = _run(cli, op, tmp_path)
    rec.code = 3
    failed, lines, _ = run.check_records([rec, rec], str(tmp_path))
    assert failed == 2 and len(lines) == 1
    assert "--replay 0" in lines[0] and "seed=5" in lines[0] and "verify-0.json" in lines[0]


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".bench_work").exists()
