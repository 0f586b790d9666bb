"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest bench

The smoke runs take about two minutes: every workload once untraced and
once traced, at one second per run (each still times three whole cycles).
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from reference import is_least_rotation, least_rotation, power_certificate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


DOC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in DOC["workloads"]])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = DOC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    assert all(isinstance(m["value"], float | int) and m["value"] > 0
               for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _bench(tmp_path, "--workload", "word-problem", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout


def _wrong_answer(workload, answer):
    """One deliberately wrong answer of the kind `op` returns."""
    if workload == "cli-batch":
        code, text, err = answer
        lines = text.splitlines()
        lines[0] = "c1 c1; length 2"  # not a normal form
        return code, "\n".join(lines), err
    if workload == "long-conjugacy":
        return dataclasses.replace(answer, conjugator=answer.conjugator + (1,))
    if workload == "powers-special":
        return answer[:-1] + (-answer[-1],)
    return not answer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_negative_control_counts_a_wrong_answer(workload, tmp_path):
    wl = WORKLOADS[workload](run.import_surfgroup(), 3, str(tmp_path))
    wl.setup(run.import_surfgroup())
    right = wl.run(wl.ops[0])
    results = run.Results()
    results.add(0, right)
    attempted, failed = run.verify(wl, results, run.Timings(), [])
    assert attempted >= 1 and failed == 0
    results = run.Results()
    results.add(0, _wrong_answer(workload, right))
    notes = []
    attempted, failed = run.verify(wl, results, run.Timings(), notes)
    assert failed / attempted > 0, notes


def test_a_missing_traced_name_is_reported_absent(monkeypatch):
    sg = run.import_surfgroup()
    monkeypatch.delattr(sg.conjugacy, "_verify_conjugation")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["conjugacy.verify"]
    totals = defaultdict(lambda: [1, 1, 1, 1])
    metrics, missing, _ = run.layer_metrics((totals, 1, 1), None, {}, 1.0, tracer.absent)
    assert missing == {"conjugacy.verify.calls_per_op": "not in the package",
                       "conjugacy.verify.share": "not in the package",
                       **{name: "not swept" for name in run.SLOPE_METRICS}}
    assert "rewrite.nf.share" in metrics


def test_a_layer_the_workload_misses_is_read_from_its_home_workload():
    work = defaultdict(lambda: [0, 0, 0, 0])
    work["rewrite.nf"] = [2, 50, 50, 0]
    home = defaultdict(lambda: [1, 10, 10, 1])
    home["cli.main"] = [4, 80, 60, 0]
    asked = []

    def elsewhere(layer):
        asked.append(layer)
        return home, 100, 4, run.HOME[layer]

    metrics, missing, sources = run.layer_metrics((work, 100, 2), elsewhere, {}, 1.0, [])
    assert metrics["rewrite.nf.share"]["value"] == 0.5
    assert metrics["cli.self_share"]["value"] == 0.6
    assert metrics["group_core.GroupContext.calls_per_op"]["value"] == 0.25
    assert sources["cli.self_share"] == "cli-batch" and "rewrite.nf.share" not in sources
    assert "rewrite.nf" not in asked and set(missing) == set(run.SLOPE_METRICS)


def test_booth_least_rotation_matches_brute_force():
    rng = random.Random(5)
    for _ in range(3000):
        s = [rng.randrange(3) for _ in range(rng.randrange(1, 12))]
        k = least_rotation(s)
        assert s[k:] + s[:k] == min(s[i:] + s[:i] for i in range(len(s)))
    assert is_least_rotation(4, (4, 3, -1), False)
    assert not is_least_rotation(4, (3, 4, -1), False)


def test_power_certificate_accepts_the_power_and_rejects_a_changed_letter():
    sg = run.import_surfgroup()
    ctx = sg.group_core.GroupContext(2)
    rng = random.Random(2)
    x = inputs.special(rng, ctx, sg.rewrite.nf, "A", 60)
    r = sg.powers.nf_power(ctx, x, 9)
    assert all(sg.oracle.dehn_equal(ctx, u, v) for u, v in power_certificate(r, x, 9))
    wrong = r[:-1] + (r[-1] % 4 + 1,)
    pairs = power_certificate(wrong, x, 9)
    assert pairs is None or not all(sg.oracle.dehn_equal(ctx, u, v) for u, v in pairs)


@pytest.mark.parametrize("genus", (2, 3, 8))
def test_canonical_relators_translate_to_the_identity(genus):
    sg = run.import_surfgroup()
    ctx = sg.group_core.GroupContext(genus)
    desc = sg.presentations.canonical_descriptor(genus)
    for rel in inputs.canonical_relators(genus):
        assert sg.oracle.dehn_reduce(ctx, sg.presentations.translate(desc, rel)).word == ()


@pytest.mark.parametrize("shape", sorted(inputs.SHAPES))
def test_special_shapes_are_irreducible_with_the_expected_class_flag(shape):
    sg = run.import_surfgroup()
    rng = random.Random(4)
    for genus in (2, 3):
        ctx = sg.group_core.GroupContext(genus)
        x = inputs.special(rng, ctx, sg.rewrite.nf, shape, 100)
        assert sg.rewrite.d_basis_normalize(ctx, x) == x
        assert sg.conjugacy.class_nf(ctx, x).exceptional == (shape == "exceptional")
