"""Benchmark for the antipodal library: scale-verify, table-sweep, exact-solve.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh single-threaded
interpreter (bench/child.py), one at a time, so per-process caches start
cold as they do for a CLI user.  Passes repeat until --seconds is used up,
and at least workloads.MIN_PASSES times.  Every output is checked by
bench/oracle.py.  Human-readable lines come first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 traced and untraced
passes alternate and the metrics are the per-layer ones from the traced
passes, plus the tracing overhead.  The exit code is 0 only if every output
passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5  # extra set-up-only children, so set-up has enough samples
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
             "op_tail_s": "s", "error_rate": "ratio", "peak_rss_mb": "MB",
             "solved_ratio": "ratio", "vertex_pairs_per_s": "1/s"}
# Printed but kept out of the JSON metrics.  error_rate is 0 on a correct
# build, and failures already reach the JSON as ``failed``.  The latency
# percentiles of scale-verify and exact-solve rest on three samples of one
# or two sub-second operations, too few to be steady on a shared machine
# (see NOTES.md).
E2E_REPORTED = [name for name in E2E_UNITS
                if name not in ("error_rate", "op_p50_s", "op_tail_s")]

LAYER_UNITS = {
    "cli.calls": "count", "cli.self_s": "s",
    "serialize.calls": "count", "serialize.busy_s": "s", "serialize.bytes_out": "B",
    "graphs.build.calls": "count", "graphs.build.busy_s": "s",
    "graphs.apsp.calls": "count", "graphs.apsp.busy_s": "s", "graphs.apsp.cells": "count",
    "graphs.apsp.cells_per_s": "1/s", "graphs.apsp.repeat_share": "ratio",
    "radio.verify.calls": "count", "radio.verify.busy_s": "s", "radio.verify.pairs": "count",
    "radio.verify.pairs_per_s": "1/s", "radio.ordering.busy_s": "s",
    "radio.certificate.busy_s": "s",
    "gp.construct.calls": "count", "gp.construct.busy_s": "s", "gp.validate.busy_s": "s",
    "torus.construct.calls": "count", "torus.construct.busy_s": "s",
    "torus.construct.repeat_share": "ratio", "torus.ordering.busy_s": "s",
    "torus.validate.busy_s": "s",
    "solver.calls": "count", "solver.busy_s": "s", "solver.nodes": "count",
    "solver.nodes_per_s": "1/s", "solver.solved": "count", "solver.bound_gap": "colors",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def spawn(tmp: Path, spec: dict) -> tuple[dict, float]:
    """Run one child to completion; return its report and its set-up time."""
    work = Path(tempfile.mkdtemp(dir=tmp))
    outdir = work / "out"
    outdir.mkdir()
    spec = dict(spec, src=str(ROOT / "src"), outdir=str(outdir))
    spec_path, report_path, err_path = work / "spec.json", work / "report.json", work / "stderr"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **CHILD_ENV)
    with open(err_path, "w") as err:
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path),
                                   str(report_path)], env=env, cwd=ROOT,
                                  stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass ran longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not report_path.exists():
        tail = err_path.read_text()[-2000:]
        raise BenchError(f"child exited with code {proc.returncode}:\n{tail}")
    report = json.loads(report_path.read_text())
    if not report["module"].startswith(spec["src"] + os.sep):
        raise BenchError(f"imported antipodal from {report['module']}, not {spec['src']}")
    report["workdir"] = str(work)
    return report, report["ready"] - start


def _digest(path: str) -> str:
    """Output bytes, minus the solver's wall-clock field, which varies per run."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if b'"elapsed_seconds"' in raw:
        data = json.loads(raw)
        data.pop("elapsed_seconds", None)
        raw = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


def check_pass(ops: list[dict], report: dict) -> list[list[str]]:
    """Oracle problems for every operation of a pass, in operation order."""
    checker = oracle.PassChecker()
    problems = [checker.check(i, op, rec) for i, (op, rec) in enumerate(zip(ops, report["ops"]))]
    for index, problem in checker.finish():
        problems[index].append(problem)
    return problems


class Checker:
    """Checks passes; a pass whose outputs are byte-identical to one already
    checked shares that pass's verdict."""

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.verdicts: dict[tuple, list[list[str]]] = {}

    def __call__(self, report: dict) -> list[list[str]]:
        signature = tuple(
            (rec["key"], rec["rc"], rec["error"],
             _digest(rec["out"]) if os.path.exists(rec["out"]) else None)
            for rec in report["ops"])
        if signature not in self.verdicts:
            self.verdicts[signature] = check_pass(self.ops, report)
        return self.verdicts[signature]


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / min_samples)))


def pass_figures(ops: list[dict], report: dict, problems: list[list[str]]) -> dict:
    wall = sum(rec["seconds"] for rec in report["ops"])
    unsettled = 0
    for op, rec in zip(ops, report["ops"]):
        if op["kind"] == "exact" and rec["rc"] == 3:
            unsettled += 1
        elif op["kind"] == "custom" and rec["rc"] == 0:
            with open(rec["out"]) as fh:
                unsettled += json.load(fh)["status"] != "Solved"
    pairs = sum(oracle.vertex_count(op["params"]) * (oracle.vertex_count(op["params"]) - 1) // 2
                for op in ops if op["kind"] in ("gen", "exact", "custom"))
    return {"wall_s": wall, "ops": len(ops), "failed": sum(1 for p in problems if p),
            "settled": len(ops) - unsettled, "pairs": pairs,
            "peak_rss_mb": report["maxrss_kb"] / 1024,
            "cli_latencies": [rec["seconds"] for op, rec in zip(ops, report["ops"])
                              if op["kind"] != "custom"]}


def end_to_end(figures: list[dict], setups: list[float], tail_pct: int) -> dict:
    latencies = sorted(x for f in figures for x in f["cli_latencies"])
    attempted = sum(f["ops"] for f in figures)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(f["wall_s"] for f in figures),
        "ops_per_s": statistics.median(f["ops"] / f["wall_s"] for f in figures),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": statistics.quantiles(latencies, n=100, method="inclusive")[tail_pct - 1],
        "error_rate": sum(f["failed"] for f in figures) / attempted,
        "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in figures),
        "solved_ratio": sum(f["settled"] for f in figures) / attempted,
        "vertex_pairs_per_s": statistics.median(f["pairs"] / f["wall_s"] for f in figures),
    }


def per_layer(layers: list[dict], overhead_s: float) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    per_pass = []
    for lay in layers:
        row = {name: lay[name] for name in LAYER_UNITS if name in lay}
        row["graphs.apsp.cells_per_s"] = ratio(lay["graphs.apsp.cells"], lay["graphs.apsp.busy_s"])
        row["graphs.apsp.repeat_share"] = ratio(lay["graphs.apsp.repeats"], lay["graphs.apsp.calls"])
        row["radio.verify.pairs_per_s"] = ratio(lay["radio.verify.pairs"], lay["radio.verify.busy_s"])
        row["torus.construct.repeat_share"] = ratio(lay["torus.construct.repeats"],
                                                    lay["torus.construct.calls"])
        row["solver.nodes_per_s"] = ratio(lay["solver.nodes"], lay["solver.busy_s"])
        per_pass.append(row)
    out = {name: statistics.median(row[name] for row in per_pass)
           for name in LAYER_UNITS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = overhead_s
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "antipodal" / "__init__.py").is_file():
        raise BenchError(f"no antipodal sources under {ROOT / 'src'}")
    ops = workloads.build(workload, seed)
    cli_ops = sum(1 for op in ops if op["kind"] != "custom")
    min_passes = workloads.MIN_PASSES[workload]
    tail_pct = tail_percentile(min_passes * cli_ops)
    check = Checker(ops)
    setups: list[float] = []
    figures = {False: [], True: []}
    layers: list[dict] = []
    failures: set[tuple[str, str]] = set()
    tmp = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench-tmp-"))
    try:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(tmp, {"setup_only": True, "trace": False, "ops": []})[1])
        modes = (False, True) if trace else (False,)
        start = time.monotonic()
        rounds = 0
        while True:
            elapsed = time.monotonic() - start
            if rounds >= (1 if trace else min_passes) and \
                    elapsed + elapsed / rounds > seconds:
                break
            for traced in modes:
                report, setup = spawn(tmp, {"setup_only": False, "trace": traced, "ops": ops})
                setups.append(setup)
                problems = check(report)
                failures.update((op["key"], p) for op, ps in zip(ops, problems) for p in ps)
                figures[traced].append(pass_figures(ops, report, problems))
                if traced:
                    layers.append(report["layers"])
                shutil.rmtree(report["workdir"])
            rounds += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for key, problem in sorted(failures):
        print(f"# FAILED {key}: {problem}")
    every = figures[False] + figures[True]
    attempted = sum(f["ops"] for f in every)
    failed = sum(f["failed"] for f in every)
    e2e = end_to_end(figures[True] or figures[False], setups, tail_pct)
    print(f"# workload={workload} seed={seed} trace={int(trace)} seconds={seconds} "
          f"passes={len(figures[False])}+{len(figures[True])} traced "
          f"ops_per_pass={len(ops)} (cli {cli_ops}) setup_samples={len(setups)}")
    for traced in (False, True):
        if figures[traced]:
            walls = " ".join(f"{f['wall_s']:.3f}" for f in figures[traced])
            print(f"# {'traced' if traced else 'untraced'} pass walls (s): {walls}")
    samples = len(figures[True] or figures[False]) * cli_ops
    for name, value in e2e.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{tail_pct} over {samples} cli operation latencies)"
        elif name == "op_p50_s":
            note = f"  (over {samples} cli operation latencies)"
        elif name == "error_rate":
            note = f"  ({failed}/{attempted} operations failed)"
        print(f"{name} {value:.6g} {E2E_UNITS[name]}{note}")
    if trace:
        overhead = statistics.median(f["wall_s"] for f in figures[True]) - \
            statistics.median(f["wall_s"] for f in figures[False])
        metrics = per_layer(layers, overhead)
        for name, value in metrics.items():
            shown = f"{value:.0f}" if LAYER_UNITS[name] == "count" else f"{value:.6g}"
            print(f"{name} {shown} {LAYER_UNITS[name]}")
        units = LAYER_UNITS
    else:
        metrics = {name: e2e[name] for name in E2E_REPORTED}
        units = E2E_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
