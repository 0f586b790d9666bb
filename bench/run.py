#!/usr/bin/env python3
"""Benchmark for surfgroup: one named workload per process.

Run from the repository root:

    python3 bench/run.py --workload long-conjugacy --seed 1 --seconds 20 --trace 0

Workloads: cli-batch, long-conjugacy, powers-special, word-problem (see
workloads.py and BENCHMARK.json for why each exists).  Each is a closed
loop with a single caller: the next operation starts when the previous
one returned, in this one thread.  The package is imported from src/ of
the checkout the script sits in, and is exercised only through its
public calls.

A run has two parts.  Set-up imports the package, builds the workload's
contexts and runs one operation; it is repeated and its median is
setup_s.  The measured loop then runs whole cycles of the workload's
operations for --seconds, interleaved with Dehn-oracle decisions on
equal pairs built from the workload's inputs (on word-problem: the input
pairs the engine decides).  Every metric counts each operation or oracle
item once, at its median time over its cycles.  Afterwards every
distinct answer is checked outside the timed loop (reference.py); wrong
answers and exceptions are counted in `failed`.

Times are reported at a reference host speed.  A shared machine runs the
same code at speeds that differ by up to 1.7x for tens of seconds at a
time, and every kind of work moves together.  So a fixed calibration
kernel, which does not use the package, is timed between executions every
CAL_EVERY_S, and each time is scaled by CAL_REF_S over the median of the
calibration samples around it.  A change to the package moves the scaled times as
it moves the wall times; the unscaled figures are kept in the record.

With --trace 1 the loop runs half untraced and half with spans around
the package's calls (tracing.py), followed by a doubling sweep
(sweep.py); the per-layer metrics come from those spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, with the run
context and sample counts, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from spec import LAYER_MAP  # noqa: E402
from sweep import REPEATS as SWEEP_REPEATS, run_sweep  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("group_core", "rewrite", "powers", "conjugacy", "oracle", "presentations", "cli")
SETUP_REPEATS = 9
MIN_CYCLES = 3  # whole cycles of operations and of oracle items timed in a run
TAIL_PERCENTILE = 90  # latency_tail_ms: this percentile of the per-operation medians
MAX_FAILURE_NOTES = 20

# the calibration kernel; one sample takes CAL_REF_S at the reference speed
_CAL_WORD = tuple((i * 37) % 64 - 32 for i in range(400))
_CAL_TABLE = {x: (x * 7 + 3) % 13 for x in range(-32, 32)}
CAL_ROUNDS = 8
CAL_REF_S = 250e-6
CAL_EVERY_S = 0.02  # interval between calibration samples in the measured loop
CAL_WINDOW = 5  # samples whose median sets the speed an execution ran at


@functools.cache
def units_of_metrics():
    """Metric name -> unit, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def import_surfgroup():
    """A fresh import of the package from this checkout's src/."""
    for key in [k for k in sys.modules if k == "surfgroup" or k.startswith("surfgroup.")]:
        del sys.modules[key]
    pkg = importlib.import_module("surfgroup")
    if Path(pkg.__file__).resolve().parent != SRC / "surfgroup":
        raise RuntimeError(f"surfgroup was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"surfgroup.{m}") for m in MODULES})


def calibration_sample():
    """Seconds taken by a fixed piece of pure-Python work that does not
    touch the package: dict lookups and small-int arithmetic over a tuple,
    the kind of work the package does on words."""
    table, word, acc = _CAL_TABLE, _CAL_WORD, 0
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        for x in word:
            acc = (acc + table[x]) & 1023
    return time.perf_counter() - t0


def host_speed(samples):
    """Factor that scales a time measured beside these calibration samples
    to the reference speed, at which one sample takes CAL_REF_S."""
    return CAL_REF_S / statistics.median(samples)


def measure_setup(wl):
    """Median set-up time at the reference speed, and the raw median."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        cal = [calibration_sample() for _ in range(3)]
        t0 = time.perf_counter()
        sg = import_surfgroup()
        wl.setup(sg)
        wl.run(wl.ops[0])
        dt = time.perf_counter() - t0
        cal += [calibration_sample() for _ in range(3)]
        raw.append(dt)
        times.append(dt * host_speed(cal))
    return statistics.median(times), statistics.median(raw)


class Results:
    """Distinct results per operation, and which one each execution returned."""

    def __init__(self):
        self.distinct: dict = {}
        self.execs: list = []  # (op index, slot); slot -1 marks an exception
        self.errors: dict = {}

    def add(self, j, res):
        if isinstance(res, Exception):
            self.execs.append((j, -1))
            self.errors.setdefault(j, repr(res))
            return
        seen = self.distinct.setdefault(j, [])
        for slot, prev in enumerate(seen):
            if prev is res or prev == res:
                break
        else:
            slot = len(seen)
            seen.append(res)
        self.execs.append((j, slot))


class Timings:
    """Every execution of the measured loop, in order: whether it was an
    operation or an oracle decision, which one, its seconds, and how many
    calibration samples preceded it.

    Kept in arrays, so that the memory they take, which grows with the
    number of executions, barely moves peak_rss_mb."""

    OP, ORACLE = 0, 1

    def __init__(self):
        self.kind, self.key, self.ncal = array("b"), array("l"), array("l")
        self.seconds, self.cal = array("d"), array("d")
        self.decisions = self.oracle_wrong = 0
        self.cycles = self.oracle_cycles = 0

    def add(self, kind, key, dt):
        self.kind.append(kind)
        self.key.append(key)
        self.ncal.append(len(self.cal))
        self.seconds.append(dt)

    def per_item(self, kind, scaled=True):
        """key -> seconds of its executions in whole cycles, each scaled by
        the host speed of the CAL_WINDOW calibration samples around it."""
        cycles = self.cycles if kind == self.OP else self.oracle_cycles
        cal = self.cal
        out = defaultdict(list)
        for k, key, n, dt in zip(self.kind, self.key, self.ncal, self.seconds):
            if k == kind and len(out[key]) < cycles:
                lo = max(0, min(n - (CAL_WINDOW + 1) // 2, len(cal) - CAL_WINDOW))
                out[key].append(dt * host_speed(cal[lo:lo + CAL_WINDOW]) if scaled else dt)
        return out


def measure(wl, seconds, results, items, tracer=None):
    """Closed loop of whole cycles for about `seconds`.

    A cycle runs every operation of the workload once; an oracle cycle
    decides every item once.  Oracle decisions are interleaved one at a
    time so that they take the workload's oracle_share of the time, and
    both are sampled over the whole run.  The loop ends at the deadline
    once both have MIN_CYCLES whole cycles; the executions of an
    unfinished cycle are checked but not timed.  A calibration sample is
    taken between executions every CAL_EVERY_S."""
    ops, t = wl.ops, Timings()
    share = wl.oracle_share if items else 0
    engine = oracle = 0.0
    i = k = 0
    gc.collect()
    t.cal.append(calibration_sample())
    last_cal = time.perf_counter()
    deadline = last_cal + seconds
    while True:
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            t.cal.append(calibration_sample())
            last_cal = time.perf_counter()
        if oracle * (1 - share) < engine * share:
            arg, expect = items[k % len(items)]
            t0 = time.perf_counter()
            try:
                ok = (tracer.call("op.oracle", wl.decide, arg) if tracer
                      else wl.decide(arg)) == expect
            except Exception:  # a failed decision is counted and the loop goes on
                ok = False
            dt = time.perf_counter() - t0
            oracle += dt
            t.add(t.ORACLE, k % len(items), dt)
            t.decisions += 1
            t.oracle_wrong += not ok
            k += 1
        else:
            j = i % len(ops)
            t0 = time.perf_counter()
            try:
                res = (tracer.call(f"op.{ops[j].kind}", wl.run, ops[j]) if tracer
                       else wl.run(ops[j]))
            except Exception as exc:  # a failed operation is counted and the loop goes on
                res = exc
            dt = time.perf_counter() - t0
            engine += dt
            results.add(j, res)
            t.add(t.OP, j, dt)
            i += 1
        if (time.perf_counter() >= deadline and i >= MIN_CYCLES * len(ops)
                and k >= MIN_CYCLES * len(items)):
            break
    t.cal.append(calibration_sample())
    t.cycles = i // len(ops)
    t.oracle_cycles = k // len(items) if items else 0
    return t


def check_results(wl, results, notes):
    """Check every distinct answer; returns {(op, slot): wrong lines}.

    The group equalities that certify an answer are decided here by the
    Dehn oracle, outside the timed loop."""
    bad = {}
    for j, seen in results.distinct.items():
        op = wl.ops[j]
        ctx = wl.ctx[op.genus]
        for slot, res in enumerate(seen):
            try:
                lines, pairs = wl.check(op, res)
                for line, u, v in pairs:
                    if not wl.sg.oracle.dehn_equal(ctx, u, v):
                        lines.add(line)
                        notes.append(f"op {j} ({op.kind}, g={op.genus}): certificate refuted")
            except Exception as exc:  # an answer of the wrong shape is a wrong answer
                lines = set(range(op.units))
                notes.append(f"op {j} ({op.kind}, g={op.genus}): check raised {exc!r}")
            if lines:
                notes.append(f"op {j} ({op.kind}, g={op.genus}): wrong lines {sorted(lines)}")
            bad[(j, slot)] = lines
    return bad


def verify(wl, results, timings, notes):
    """Check every distinct answer; returns (attempted, failed), oracle
    decisions included."""
    bad = check_results(wl, results, notes)
    for j, err in results.errors.items():
        notes.append(f"op {j} ({wl.ops[j].kind}, g={wl.ops[j].genus}): raised {err}")
    if timings.oracle_wrong:
        notes.append(f"{timings.oracle_wrong} oracle decisions disagreed with the construction")
    attempted = sum(wl.ops[j].units for j, _ in results.execs) + timings.decisions
    failed = timings.oracle_wrong + sum(
        wl.ops[j].units if slot < 0 else min(wl.ops[j].units, len(bad[(j, slot)]))
        for j, slot in results.execs)
    return attempted, failed


def timing_metrics(t, units, scaled=True):
    """ops_per_s, latency_p50_ms, latency_tail_ms and oracle_ops_per_s over
    whole cycles, each operation or oracle item counted once at its median
    time, and the executions behind the tail."""
    ops = t.per_item(t.OP, scaled)
    per_op = {j: statistics.median(x) / units(j) for j, x in ops.items()}
    tail = statistics.quantiles(per_op.values(), n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    metrics = {
        "ops_per_s": sum(units(j) for j in ops) / sum(statistics.median(x) for x in ops.values()),
        "latency_p50_ms": statistics.median(per_op.values()) * 1e3,
        "latency_tail_ms": tail * 1e3,
    }
    oracle = t.per_item(t.ORACLE, scaled)
    if oracle:
        metrics["oracle_ops_per_s"] = len(oracle) / sum(map(statistics.median, oracle.values()))
    beyond = sum(len(ops[j]) for j, v in per_op.items() if v > tail)
    return metrics, beyond


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _share(span, self_time=False):
    return lambda totals, root_ns, units: totals[span][2 if self_time else 1] / root_ns


def _per_op(span):
    return lambda totals, root_ns, units: totals[span][0] / units


def _per_letter(span, ns_per_unit):
    return lambda totals, root_ns, units: totals[span][1] / (totals[span][3] * ns_per_unit)


def _icf_per_decompose(totals, root_ns, units):
    return totals["rewrite.is_cyclically_irreducible"][0] / totals["powers.power_decompose"][0]


# per-layer metric -> (spans it reads, the first being the layer it needs
# reached, and how it is computed from the layer totals of the spans)
LAYER_METRICS = {
    "cli.self_share": (("cli.main",), _share("cli.main", True)),
    "group_core.GroupContext.calls_per_op": (
        ("group_core.GroupContext",), _per_op("group_core.GroupContext")),
    "group_core.GroupContext.share": (
        ("group_core.GroupContext",), _share("group_core.GroupContext")),
    "group_core.parse_word.us_per_token": (
        ("group_core.parse_word",), _per_letter("group_core.parse_word", 1000)),
    "group_core.parse_word.share": (("group_core.parse_word",), _share("group_core.parse_word")),
    "group_core.format_word.share": (
        ("group_core.format_word",), _share("group_core.format_word")),
    "rewrite.normalize.ns_per_letter": (
        ("rewrite.normalize",), _per_letter("rewrite.normalize", 1)),
    "rewrite.nf.calls_per_op": (("rewrite.nf",), _per_op("rewrite.nf")),
    "rewrite.nf.share": (("rewrite.nf",), _share("rewrite.nf")),
    "rewrite.is_cyclically_irreducible.calls_per_decompose": (
        ("powers.power_decompose", "rewrite.is_cyclically_irreducible"), _icf_per_decompose),
    "powers.power_decompose.self_share": (
        ("powers.power_decompose",), _share("powers.power_decompose", True)),
    "conjugacy.class_nf.self_share": (
        ("conjugacy.class_nf",), _share("conjugacy.class_nf", True)),
    "conjugacy.verify.calls_per_op": (("conjugacy.verify",), _per_op("conjugacy.verify")),
    "conjugacy.verify.share": (("conjugacy.verify",), _share("conjugacy.verify")),
    "oracle.dehn_reduce.ns_per_letter": (
        ("oracle.dehn_reduce",), _per_letter("oracle.dehn_reduce", 1)),
    "oracle.dehn_reduce.share": (("oracle.dehn_reduce",), _share("oracle.dehn_reduce")),
    "presentations.translate.ns_per_letter": (
        ("presentations.translate",), _per_letter("presentations.translate", 1)),
}
SLOPE_METRICS = {f"{span}.slope": span for span in (
    "rewrite.normalize", "powers.power_decompose", "conjugacy.class_nf", "oracle.dehn_reduce")}


# the workload that exercises each layer the per-layer metrics read
HOME = {
    "cli.main": "cli-batch",
    "group_core.GroupContext": "cli-batch",
    "group_core.parse_word": "cli-batch",
    "group_core.format_word": "cli-batch",
    "rewrite.normalize": "word-problem",
    "rewrite.nf": "long-conjugacy",
    "powers.power_decompose": "powers-special",
    "conjugacy.class_nf": "long-conjugacy",
    "conjugacy.verify": "long-conjugacy",
    "oracle.dehn_reduce": "word-problem",
    "presentations.translate": "word-problem",
}


def traced_cycle(name, sg, seed, workdir):
    """(layer totals, root ns, units) of one traced cycle of a workload,
    with its oracle decisions where the workload traces them."""
    wl = WORKLOADS[name](sg, seed, workdir)
    wl.setup(sg)
    tracer = Tracer()
    tracer.install()
    try:
        for op in wl.ops:
            tracer.call(f"op.{op.kind}", wl.run, op)
        for arg, _ in wl.oracle_items() if wl.trace_oracle else ():
            tracer.call("op.oracle", wl.decide, arg)
    finally:
        tracer.uninstall()
    return (*layer_totals(tracer.spans), sum(op.units for op in wl.ops))


def layer_metrics(work, elsewhere, slopes, overhead, absent):
    """The per-layer metrics; see LAYER_MAP for their intent.

    `work` is (layer totals, root ns, units) of the workload's traced loop.
    For a layer the loop never reaches, elsewhere(layer) gives the same for
    the workload that exercises it, and where they came from.  Returns the
    metrics, the names left out with the reason, and the source of each
    metric read elsewhere."""
    values, missing, sources = {}, {}, {}
    for name, (spans, value) in LAYER_METRICS.items():
        if any(s in absent for s in spans):
            missing[name] = "not in the package"
            continue
        src = work
        if not work[0][spans[0]][0]:
            *src, sources[name] = elsewhere(spans[0])
            if not src[0][spans[0]][0]:
                missing[name] = "not reached"
                continue
        values[name] = value(*src)
    for name, span in SLOPE_METRICS.items():
        if span in slopes:
            values[name] = slopes[span]
        else:
            missing[name] = "not swept"
    values["trace.overhead"] = overhead
    units = units_of_metrics()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, missing, sources


def predictions(totals, root_ns):
    """The shares the workload design predicts an order for."""
    def share(name, self_time=False):
        return totals[name][2 if self_time else 1] / root_ns

    layers = {k: v[2] / root_ns for k, v in totals.items() if not k.startswith("op.")}
    return {
        "largest_self_share": max(layers, key=layers.get) if layers else None,
        "front_end_share": (share("group_core.GroupContext") + share("group_core.parse_word")
                            + share("cli.main", True) + share("group_core.format_word")),
        "normalize_share": share("rewrite.normalize"),
        "power_decompose_with_icf_share": (
            share("powers.power_decompose", True)
            + share("rewrite.is_cyclically_irreducible")),
        "normalize_plus_dehn_reduce_share": (
            share("rewrite.normalize") + share("oracle.dehn_reduce")),
    }


def run_workload(name, seed, seconds, trace, workdir):
    wl = WORKLOADS[name](import_surfgroup(), seed, workdir)
    setup_s, setup_raw_s = measure_setup(wl)
    results = Results()
    notes: list = []
    units = lambda j: wl.ops[j].units  # noqa: E731
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "context": {"git_sha": git_sha(), "python": platform.python_version(),
                          "nproc": os.cpu_count(), "platform": platform.platform()}}
    items = wl.oracle_items()
    if not trace:
        t = measure(wl, seconds, results, items)
        rss = peak_rss_mb()
        attempted, failed = verify(wl, results, t, notes)
        values, beyond = timing_metrics(t, units)
        values.update(setup_s=setup_s, peak_rss_mb=rss)
        raw, _ = timing_metrics(t, units, scaled=False)
        raw["setup_s"] = setup_raw_s
        metrics = {k: {"value": v, "unit": units_of_metrics()[k]} for k, v in values.items()}
        record["unscaled"] = raw
        record["host_speed"] = host_speed(t.cal)
        record["samples"] = {
            "operations_per_cycle": len(wl.ops), "cycles": t.cycles,
            "executions": t.kind.count(t.OP), "oracle_items": len(items),
            "oracle_cycles": t.oracle_cycles, "oracle_decisions": t.decisions,
            "setup_repeats": SETUP_REPEATS, "calibration_samples": len(t.cal)}
        record["latency_tail"] = {
            "definition": f"percentile {TAIL_PERCENTILE} of the per-operation medians",
            "executions_beyond": beyond}
    else:
        # the oracle is traced only where it is part of what the workload measures
        items = items if wl.trace_oracle else []
        untraced = measure(wl, seconds / 2, results, items)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, seconds / 2, results, items, tracer)
        finally:
            tracer.uninstall()
        attempted, failed = verify(wl, results, traced, notes)
        slopes, points = run_sweep(wl.sg, seed)
        totals, root_ns = layer_totals(tracer.spans)
        traced_units = sum(units(j) for k, j in zip(traced.kind, traced.key) if k == traced.OP)
        overhead = (timing_metrics(untraced, units)[0]["ops_per_s"]
                    / timing_metrics(traced, units)[0]["ops_per_s"])
        cycles = {}

        def elsewhere(layer):
            home = HOME[layer]
            if home not in cycles:
                cycles[home] = traced_cycle(home, wl.sg, seed, workdir)
            return (*cycles[home], f"one traced cycle of {home}")

        metrics, missing, sources = layer_metrics(
            (totals, root_ns, traced_units), elsewhere, slopes, overhead, tracer.absent)
        record.update({
            "samples": {"traced_units": traced_units, "spans": len(tracer.spans),
                        "sweep_repeats": SWEEP_REPEATS},
            "absent": missing, "metric_source": sources, "sweep_points_ns": points,
            "self_share": {k: v[2] / root_ns for k, v in sorted(
                totals.items(), key=lambda kv: -kv[1][2])},
            "share": {k: v[1] / root_ns for k, v in sorted(
                totals.items(), key=lambda kv: -kv[1][1])},
            "predictions": predictions(totals, root_ns),
            "layer_map": LAYER_MAP,
        })
        spans_path = OUT / f"{name}-seed{seed}-spans.tsv"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record.update({"attempted": attempted, "failed": failed,
                   "fail_ratio": failed / attempted, "metrics": metrics,
                   "failures": notes[:MAX_FAILURE_NOTES]})
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surfgroup" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'surfgroup'}; "
              "run from a surfgroup checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    for key, m in record["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({record['failed']}/{record['attempted']})")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
