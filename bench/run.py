#!/usr/bin/env python3
"""Benchmark of the isored command line: one workload, one seed, one run.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload branch-reduce --seed 1 --replay 17

A closed loop with one client calls ``isored.cli.main`` in-process, one
operation after another, on JSON graph files the bench generates from the
seed.  Every output is checked exactly (``checker``) after the timed
region.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's metadata.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of ``tracer``.  ``--replay K``
reruns op K of the workload and seed once and shows its output and check.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

import workloads
from workloads import Op, make_op, size_tag

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Ops generated before a run: whole cycles of the class table, about 30 s
# of work at the first benchmarked commit.  A faster program runs past the
# pool onto fresh ops, so no input repeats in a run.  A traced run
# measures a fixed op set instead (the first ops by index, topped up to
# MIN_CURVE_SAMPLES per scaling point), so its counts repeat exactly.
POOL_SIZE = {"verify-mix": 1050, "branch-reduce": 280, "charpoly-spectrum": 320}
TRACED_OPS = {"verify-mix": 100, "branch-reduce": 40, "charpoly-spectrum": 40}
MIN_CURVE_SAMPLES = 5
SETUP_REPEATS = 9
REF_WINDOW = 10
WARMUP_GRAPH = workloads.graph_json(["a", "b"], [("a", "b", "2"), ("b", "a", "1/(l-1)"), ("a", "a", "1")])
WARMUP_ARGS = {"verify": ["--set", "a"], "reduce": ["--set", "a"], "spectrum": []}
DEPTHS = (3, 4, 5)
SIZES = tuple(range(8, 15))


class ProgramMissing(RuntimeError):
    """The checkout holds no isored source that imports and runs."""


def load_program():
    """Import ``isored.cli`` from this checkout's ``src`` into this
    process, dropping any copy of isored imported before."""
    src = ROOT / "src"
    if not (src / "isored" / "cli.py").is_file():
        raise ProgramMissing(f"no isored source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "isored" or n.startswith("isored.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("isored.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import isored: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"isored imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Record:
    op: Op
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float


def run_op(cli, op: Op, workdir: str) -> Record:
    """One CLI call, timed, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv_in(workdir)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments by exiting
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed op; the run goes on
        code = None
        err.write(traceback.format_exc())
    return Record(op, code, out.getvalue(), err.getvalue(), perf_counter() - t0)


def write_files(ops: List[Op], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        for name, text in op.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def warmup_argv(command: str, workdir: Path) -> List[str]:
    """A tiny call of ``command`` that finishes the program's lazy set-up."""
    warmup = workdir / "warmup.json"
    warmup.write_text(WARMUP_GRAPH, encoding="utf-8")
    return [command, str(warmup)] + WARMUP_ARGS[command]


def prepare(cli, ops: List[Op], workdir: Path) -> None:
    """Write the ops' files and warm the in-process program up, untimed."""
    write_files(ops, workdir)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(warmup_argv(ops[0].command, workdir))


# Set-up as a user's first `isored` command pays it: a fresh interpreter
# imports isored (numpy and all) and makes one call.
CHILD_SETUP = "import sys; sys.path.insert(0, sys.argv[1]); import isored.cli; sys.exit(isored.cli.main(sys.argv[2:]))"
# The reference for set-up: a fresh interpreter importing a fixed set of
# standard-library modules, the same kind of work (start-up, unmarshalling
# bytecode, loading extension modules), and its time on a quiet 2-CPU
# Intel Xeon with CPython 3.11.
CHILD_REFERENCE = ("import argparse, asyncio, csv, ctypes, decimal, email.parser, fractions, http.client, "
                   "json, logging, sqlite3, ssl, tarfile, unittest, xml.dom.minidom, zipfile")
CHILD_REFERENCE_NOMINAL_S = 0.12


def child_s(code: str, *args: str) -> float:
    """Wall time of ``python -c code args`` in a fresh interpreter."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise ProgramMissing(f"set-up call exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return seconds


def measure_setup(command: str, workdir: Path) -> Tuple[List[float], List[float]]:
    """(scaled, raw) seconds of SETUP_REPEATS set-ups, with the reference
    interpreter timed before the first and after each.  A raw time divided
    by the mean of the references on either side, times
    CHILD_REFERENCE_NOMINAL_S, is the set-up time at the quiet machine's
    speed, so a busy machine does not read as a slower set-up.  The
    input files are written before, untimed: writing them is the bench's
    work, not the program's."""
    argv = [str(ROOT / "src")] + warmup_argv(command, workdir)
    scaled, raw = [], []
    before = child_s(CHILD_REFERENCE)
    for _ in range(SETUP_REPEATS):
        seconds = child_s(CHILD_SETUP, *argv)
        after = child_s(CHILD_REFERENCE)
        raw.append(seconds)
        scaled.append(seconds / ((before + after) / 2) * CHILD_REFERENCE_NOMINAL_S)
        before = after
    return scaled, raw


def reference_s() -> float:
    """Time of a fixed loop of exact rational arithmetic on the standard
    library's ``Fraction``, the same kind of work the program does."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc = acc * Fraction(i, i + 1) + Fraction(1, i)
    return perf_counter() - t0


def timed_loop(cli, ops: Iterator[Op], workdir: str, seconds: float) -> Tuple[List[Record], List[float]]:
    """Closed loop, one client: the next op starts when the last one ends,
    until ``seconds`` have passed.  The reference loop is timed before
    each op, outside the op's own time."""
    records: List[Record] = []
    refs: List[float] = []
    t0 = perf_counter()
    for op in ops:
        if perf_counter() - t0 >= seconds:
            break
        refs.append(reference_s())
        records.append(run_op(cli, op, workdir))
    return records, refs


def op_stream(pool: List[Op], workload: str, seed: int, workdir: Path) -> Iterator[Op]:
    """The pool in a seeded order, then fresh ops past its end, one class
    cycle at a time in a seeded order, each written to disk before it is
    handed out.  No input repeats, however fast the program is."""
    order = list(pool)
    random.Random(f"{workload}/{seed}/order").shuffle(order)
    yield from order
    cycle = workloads.CYCLE[workload]
    start = len(pool)
    while True:
        block = list(range(start, start + cycle))
        random.Random(f"{workload}/{seed}/order/{start}").shuffle(block)
        for k in block:
            op = make_op(workload, seed, k)
            write_files([op], workdir)
            yield op
        start += cycle


def traced_indices(workload: str) -> List[int]:
    """The first TRACED_OPS op indices, then the next ops of each scaling
    point that has fewer than MIN_CURVE_SAMPLES among them."""
    ks = list(range(TRACED_OPS[workload]))
    counts = Counter(size_tag(workload, k) for k in ks)
    tags = {size_tag(workload, k) for k in range(workloads.CYCLE[workload])} - {None}
    k = len(ks)
    while any(counts[tag] < MIN_CURVE_SAMPLES for tag in tags):
        tag = size_tag(workload, k)
        if tag in tags and counts[tag] < MIN_CURVE_SAMPLES:
            ks.append(k)
            counts[tag] += 1
        k += 1
    return ks


# ----------------------------------------------------------------------
# Checking and reporting
# ----------------------------------------------------------------------


def check_records(records: List[Record], workdir: str, with_peaks: bool = False):
    """(failed count, failure lines, peaks or None); each distinct output
    is checked once."""
    import checker

    peaks = checker.Peaks() if with_peaks else None
    verdicts: Dict[tuple, Optional[str]] = {}
    failed = 0
    lines: List[str] = []
    for rec in records:
        key = (rec.op.index, rec.code, rec.stdout)
        if key not in verdicts:
            reason = checker.check(rec.op, rec.code, rec.stdout, peaks)
            if reason is not None and rec.code is None:
                reason += "; crashed: " + rec.stderr.strip().splitlines()[-1]
            verdicts[key] = reason
            if reason is not None:
                files = ", ".join(f"{workdir}/{name}" for name in rec.op.files)
                lines.append(
                    f"FAILED workload={rec.op.workload} seed={rec.op.seed} op={rec.op.index} "
                    f"argv={json.dumps(rec.op.argv_in(workdir))} input={files} reason={reason} "
                    f"replay: python3 bench/run.py --workload {rec.op.workload} --seed {rec.op.seed} --replay {rec.op.index}"
                )
        if verdicts[key] is not None:
            failed += 1
    return failed, lines, peaks


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    """HEAD of the checkout.  Git may not look above the checkout, so a
    checkout that is no repository does not report the commit of one it
    happens to sit in."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_metadata(workload: str, seed: int) -> dict:
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "client": "closed loop, 1 client, in-process isored.cli.main",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def ref_costs(records: List[Record], refs: List[float]) -> List[float]:
    """Each op's latency in units of the reference loop, taken as the
    median of the reference times measured around the op (21 of them)."""
    return [
        r.seconds / statistics.median(refs[max(0, k - REF_WINDOW): k + REF_WINDOW + 1])
        for k, r in enumerate(records)
    ]


def wall_clock(records: List[Record]) -> dict:
    lat_ms = [r.seconds * 1000.0 for r in records]
    return {
        "ops_per_s": metric(len(records) / sum(lat_ms) * 1000.0, "ops/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": metric(percentile(lat_ms, 90), "ms"),
    }


def end_to_end(cost: List[float], setups: List[float], rss_mb: float) -> dict:
    return {
        "latency_mean_ref": metric(statistics.fmean(cost), "ref"),
        "latency_p50_ref": metric(statistics.median(cost), "ref"),
        "latency_p90_ref": metric(percentile(cost, 90), "ref"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
    }


def per_layer(tracer, traced: List[Record], untraced: List[Record], peaks) -> dict:
    ops = len(traced)
    st = tracer.stats
    out = {}
    for name in (
        "cli.main", "wgraph.from_json_dict", "ratfun.parse_weight", "ratfun.format_weight",
        "ratfun.poly_gcd", "ratfun.squarefree_decompose", "structural.forbidden_set",
        "structural.require_structural_set", "reduction.reduce", "spectrum.char_det",
        "spectrum.spectrum", "spectrum.spectra_equal_up_to", "spectrum.spectrum_minus",
        "roots.poly_roots",
    ):
        out[f"{name}.self_ms"] = metric(st[name].self_s * 1000.0 / ops, "ms")
    for name in (
        "ratfun.parse_weight", "ratfun.poly_gcd", "structural.forbidden_set", "reduction.reduce",
        "spectrum.char_det", "spectrum.det_ratfun_matrix", "roots.poly_roots",
    ):
        out[f"{name}.calls"] = metric(st[name].calls, "count")
    branches = sum(r.op.branches for r in traced)
    out["reduction.branches"] = metric(branches, "count")
    for name in ("reduction.reduce", "spectrum.char_det"):
        out[f"{name}.total_ms"] = metric(st[name].total_s * 1000.0 / ops, "ms")
    reduce_s = st["reduction.reduce"].self_s
    out["reduction.reduce.us_per_branch"] = metric(reduce_s * 1e6 / branches if branches else 0.0, "us")
    roots = st["roots.poly_roots"]
    out["roots.mp_fallbacks"] = metric(st["roots.mp_fallback"].calls, "count")
    fast = 1.0 - roots.with_fallback / roots.calls if roots.calls else 0.0
    out["roots.fast_path_frac"] = metric(fast, "ratio")
    out["ratfun.peak_degree"] = metric(peaks.degree, "count")
    out["ratfun.peak_coeff_bits"] = metric(peaks.coeff_bits, "bits")
    for name, tags in (("reduction.reduce", [f"depth{d}" for d in DEPTHS]),
                       ("spectrum.char_det", [f"n{n}" for n in SIZES])):
        for tag in tags:
            samples = tracer.samples.get((name, tag), [])
            p50 = statistics.median(samples) * 1000.0 if samples else 0.0
            out[f"{name}.p50_ms.{tag}"] = metric(p50, "ms")
    base = sum(r.seconds for r in untraced)
    out["trace.overhead_frac"] = metric(sum(r.seconds for r in traced) / base - 1.0, "ratio")
    return out


def traced_and_untraced(cli, ops: List[Op], workdir: str):
    """Run each op once untraced and once traced, alternating which goes
    first, so drift during the run does not bias the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer()
    traced: List[Record] = []
    untraced: List[Record] = []
    for k, op in enumerate(ops):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(run_op(cli, op, workdir))
                continue
            tracer.install()
            try:
                tracer.tag = size_tag(op.workload, op.index)
                traced.append(run_op(cli, op, workdir))
            finally:
                tracer.uninstall()
    return tracer, traced, untraced


# ----------------------------------------------------------------------


def replay(workload: str, seed: int, index: int, workdir: Path) -> int:
    cli = load_program()
    op = make_op(workload, seed, index)
    write_files([op], workdir)
    rec = run_op(cli, op, str(workdir))
    failed, lines, _ = check_records([rec], str(workdir))
    print(f"argv: {json.dumps(op.argv_in(str(workdir)))}")
    print(f"exit code: {rec.code} (expected {op.expect_exit}), {rec.seconds * 1000.0:.1f} ms")
    print("stdout:\n" + rec.stdout)
    print("stderr:\n" + rec.stderr)
    print("\n".join(lines) if failed else "check: ok")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, metavar="K", help="rerun op K once and check it")
    args = p.parse_args(argv)

    # numpy reads these when it loads, which is when isored is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-s{args.seed}"
    wd = str(workdir)
    try:
        if args.replay is not None:
            return replay(args.workload, args.seed, args.replay, work_root / "replay")
        cli = load_program()
        if args.trace:
            ops = [make_op(args.workload, args.seed, k) for k in traced_indices(args.workload)]
        else:
            ops = [make_op(args.workload, args.seed, k) for k in range(POOL_SIZE[args.workload])]
        prepare(cli, ops, workdir)
        if not args.trace:
            setups, raw_setups = measure_setup(ops[0].command, workdir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = run_metadata(args.workload, args.seed)
    if args.trace:
        tracer, traced, untraced = traced_and_untraced(cli, ops, wd)
        records = untraced + traced
        failed, lines, peaks = check_records(records, wd, with_peaks=True)
        metrics = per_layer(tracer, traced, untraced, peaks)
        meta["traced_ops"] = len(traced)
        meta["trace_absent"] = tracer.absent
        meta["trace_op_ms"] = 1000.0 * sum(r.seconds for r in traced) / len(traced)
        meta["p50_samples"] = {f"{name}.p50_ms.{tag}": len(v) for (name, tag), v in tracer.samples.items()}
    else:
        records, refs = timed_loop(cli, op_stream(ops, args.workload, args.seed, workdir), wd, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, lines, _ = check_records(records, wd)
        cost = ref_costs(records, refs)
        metrics = end_to_end(cost, setups, rss_mb)
        meta["setup_s_samples"] = setups
        meta["setup_raw_s_samples"] = raw_setups
        meta["wall_clock"] = wall_clock(records)
        meta["ref_ms"] = statistics.median(refs) * 1000.0
        meta["pool_ops"] = len(ops)
        meta["fresh_ops"] = max(0, len(records) - len(ops))
        meta["latency_samples"] = len(records)
        meta["p90_samples_beyond"] = sum(c > metrics["latency_p90_ref"]["value"] for c in cost)
    meta["failed_frac"] = metric(failed / len(records), "ratio")
    for line in lines[:20]:
        print(line)
    if len(lines) > 20:
        print(f"... {len(lines) - 20} more failed ops")
    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds other runs' files
            work_root.rmdir()
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
