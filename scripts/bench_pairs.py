"""Paired benchmark runs of two trees, judged against BENCHMARK.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pairs 10 \\
        --seconds 20 --seed-base 30001 --out BENCH_<n>.json [--workload W ...]

Each tree is a checkout holding bench/ and BENCHMARK.json.  For every
workload (all of BENCHMARK.json's by default) and every pair, the
benchmark command runs in both trees with the same seed and
`--trace 0`; the parent goes first in even pairs, the change in odd
ones.  Each workload takes its own block of seeds from --seed-base, so
no seed serves two workloads.  A run that exits nonzero, fails an
operation or reads `correct` false ends the script with exit code 1.
A --seconds that is not positive, an --out whose directory does not
exist, or a --workload that the change's BENCHMARK.json does not list
is refused with exit code 2 before the first run.

The summary goes to --out as JSON: every run's metrics and, per
workload and end-to-end metric, both medians, the change's wins, the
parent's quartiles and a verdict against the metric's `better` and
`bound`.  The markdown table of medians, with the change's wins in
brackets, is printed.  Nothing under bench/ and nothing in
BENCHMARK.json is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: share of pairs the change must win for a gain, as in the claim rule
WIN_SHARE = 0.9


def seed_plan(workloads, pairs: int, seed_base: int) -> dict:
    """workload -> its seeds, one per pair, no seed shared between workloads."""
    if len(set(workloads)) != len(workloads):
        raise ValueError("a workload named twice would run on the same seeds twice")
    return {w: [seed_base + j * pairs + i for i in range(pairs)]
            for j, w in enumerate(workloads)}


def run_once(command, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run: correct, attempted,
    failed and metrics.  Refuses a run that did not finish cleanly."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    where = f"{workload} seed {seed} in {tree}"
    if proc.returncode != 0:
        raise RuntimeError(f"{where} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"] or not result["correct"]:
        raise RuntimeError(f"{where}: {result['failed']} of {result['attempted']} "
                           "operations failed")
    return result


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent, change, better: str, bound: float) -> dict:
    """Medians, wins and verdict for one metric over paired runs.

    A pair is a win when the change reads strictly better.  The verdict
    is "worse" when the change's median is worse than the parent's by
    more than bound (a fraction of the parent's median); "gain" when
    the change wins at least WIN_SHARE of the pairs and the medians
    differ by more than the parent's interquartile spread; "unresolved"
    when that spread is wider than the bound and not every change run
    reads better than every parent run; else "within bound".
    """
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cm - pm)
    if -gap > bound * abs(pm):
        verdict = "worse"
    elif wins >= WIN_SHARE * len(parent) and gap > q3 - q1:
        verdict = "gain"
    elif q3 - q1 > bound * abs(pm) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": parent, "change": change, "parent_median": pm,
            "change_median": cm, "relative_change": (cm - pm) / pm if pm else None,
            "change_wins": wins, "pairs": len(parent), "parent_quartiles": [q1, q3],
            "verdict": verdict}


def summarize(runs, end_to_end) -> dict:
    """Per workload, the judgement of each end-to-end metric both sides report.

    runs holds {"workload", "seed", "first", "parent", "change"} records,
    the last two each a run's result."""
    out = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        metrics = {}
        for m in end_to_end:
            key = m["name"]
            if all(key in r[side]["metrics"] for r in mine for side in ("parent", "change")):
                metrics[key] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                **judge([r["parent"]["metrics"][key]["value"] for r in mine],
                                        [r["change"]["metrics"][key]["value"] for r in mine],
                                        m["better"], m["bound"])}
        out[name] = metrics
    return out


def _fmt(v: float) -> str:
    return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"


def table(summary, end_to_end) -> str:
    """Parent -> change medians, with the change's wins out of the pairs run."""
    names = [m["name"] for m in end_to_end]
    lines = ["| workload | " + " | ".join(names) + " |",
             "|---" * (len(names) + 1) + "|"]
    for workload, metrics in summary.items():
        cells = [f"{_fmt(s['parent_median'])} → {_fmt(s['change_median'])} ({s['change_wins']})"
                 if (s := metrics.get(n)) else "–" for n in names]
        lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not args.out.parent.is_dir():
        parser.error(f"--out: no directory {args.out.parent}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or listed
    for name in workloads:
        if name not in listed:
            parser.error(f"--workload {name} is not in BENCHMARK.json")
    try:
        seeds = seed_plan(workloads, args.pairs, args.seed_base)
    except ValueError as exc:
        parser.error(str(exc))
    trees = {"parent": args.parent, "change": args.change}
    runs = []
    try:
        for workload, block in seeds.items():
            for i, seed in enumerate(block):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                record = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    record[side] = run_once(spec["command"], trees[side], workload,
                                            seed, args.seconds)
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side} done",
                          file=sys.stderr, flush=True)
                runs.append(record)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, spec["end_to_end"])
    args.out.write_text(json.dumps({
        "command": spec["command"], "pairs": args.pairs, "seconds": args.seconds,
        "seed_base": args.seed_base, "seeds": seeds,
        "summary": summary, "runs": runs,
    }, indent=1) + "\n")
    print(table(summary, spec["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
