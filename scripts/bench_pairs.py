#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A..B \\
        [--trace-seed S] [--tag pr16] [--change "what changed"]

For each seed from A to B, ``bench/run.py --workload W --seed S --seconds
RUN_SECONDS --trace 0`` runs once in each checkout, one run at a time, with
the same seed on both sides; RUN_SECONDS is ``run_seconds`` from the
change's ``BENCHMARK.json``.  The parent runs first in the first, third, ...
pair and the change runs first in the others.  With ``--trace-seed`` one
traced run (``--trace 1``) per side follows.  Only the last line that
``bench/run.py`` prints, its JSON result, is read; nothing under ``bench/``
is changed.

The result is written to ``BENCH_<tag>.json`` beside this script's parent
directory.  An existing file keeps its other workloads, so one file gathers
one call per workload.  For each end-to-end metric it holds both sides'
runs, medians and quartiles (inclusive method), the pairs the change won
(ties count for neither side), the median change in percent, whether the
median gap exceeds the parent's interquartile range, whether the change's
median is within the bound ``BENCHMARK.json`` fixes, and whether the gain
rule holds: the change wins at least nine tenths of the pairs and the
median gap exceeds the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_RULE = ("change wins at least nine tenths of the pairs and the median gap "
             "exceeds the parent's interquartile range")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its final JSON line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"no result from {checkout.name} seed {seed} "
                         f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def hardware() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return f"{os.cpu_count()} vCPU, {model}; one benchmark process at a time"


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(spec: dict, parent_runs: list[float], change_runs: list[float]) -> dict:
    """Pair statistics of one end-to-end metric, as in the BENCH_*.json points."""
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent_runs, change_runs))
    ties = sum(c == p for p, c in zip(parent_runs, change_runs))
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    base, new = parent["median"], change["median"]
    gap_exceeds = abs(new - base) > parent["q3"] - parent["q1"]
    improved = new < base if lower else new > base
    within = new <= base * (1 + spec["bound"]) if lower else new >= base * (1 - spec["bound"])
    return {"better": spec["better"], "bound": spec["bound"], "unit": spec["unit"],
            "pairs": len(parent_runs), "parent": parent, "change": change,
            "parent_runs": parent_runs, "change_runs": change_runs,
            "change_wins": wins, "ties": ties,
            "median_change_pct": round(100 * (new - base) / base, 2) if base else None,
            "median_gap_exceeds_parent_iqr": gap_exceeds, "within_bound": within,
            "gain_rule_met": improved and gap_exceeds and 10 * wins >= 9 * len(parent_runs)}


def operations(results: list[dict]) -> dict:
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct_runs": sum(bool(r["correct"]) for r in results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A..B")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--tag", default="pairs")
    parser.add_argument("--change", dest="summary", default="",
                        help="one line saying what the change does")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("..")
    seeds = range(int(first), int(last or first) + 1)
    if len(seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    results = {"parent": [], "change": []}
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_bench(sides[side], args.workload, seed, seconds, 0))
        print(f"seed {seed}: " + ", ".join(
            f"{side} wall_s {results[side][-1]['metrics']['wall_s']['value']:.3f}"
            for side in order), flush=True)

    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    entry = {"end_to_end": {}, "operations": {side: operations(results[side])
                                              for side in sides}}
    for name in results["parent"][0]["metrics"]:
        entry["end_to_end"][name] = compare(
            specs[name], [r["metrics"][name]["value"] for r in results["parent"]],
            [r["metrics"][name]["value"] for r in results["change"]])
    if args.trace_seed is not None:
        entry[f"trace_seed_{args.trace_seed}"] = {
            side: {name: metric["value"] for name, metric in
                   run_bench(path, args.workload, args.trace_seed, seconds,
                             1)["metrics"].items()}
            for side, path in sides.items()}

    out = ROOT / f"BENCH_{args.tag}.json"
    point = json.loads(out.read_text()) if out.exists() else {}
    point.update({
        "point": f"BENCH_{args.tag}",
        "change": args.summary or point.get("change", ""),
        "parent_commit": commit_of(sides["parent"]) or point.get("parent_commit"),
        "gain_rule": GAIN_RULE,
        "hardware": hardware(),
        "end_to_end_command": "python3 bench/run.py --workload W --seed S "
                              f"--seconds {seconds:g} --trace 0",
        "end_to_end_protocol": "one pair per seed, the same seed on both sides; the "
                               "parent ran first in the 1st, 3rd, ... pair and the "
                               "change first in the others; medians and quartiles "
                               "(inclusive method) over each side's runs",
    })
    point.setdefault("workloads", {})[args.workload] = {
        "seeds": f"{seeds.start}..{seeds.stop - 1}", **entry}
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}: {args.workload}, {len(seeds)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
