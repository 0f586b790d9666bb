"""The experiment scripts in scripts/ run end to end on tiny inputs."""

import hashlib
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import surfgroup
from surfgroup import VerificationError

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["ball_growth.py", "class_census.py", "power_growth.py", "splice_census.py"]


def _run_script(script, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("script, args, header", [
    ("ball_growth.py", ["--radius", "2"], "  r       ball     sphere     series    ratio"),
    ("class_census.py", ["--radius", "2"], " |rep|  classes"),
    ("power_growth.py", ["--samples", "20"], "  tau    count"),
    ("splice_census.py", ["--max-length", "3"], "length     words"),
])
def test_script_runs_and_prints_its_table(script, args, header):
    proc = _run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()


def test_splice_census_names_a_word_that_fails_its_check(monkeypatch, capsys):
    """A VerificationError from power_decompose ends the census with
    exit code 1 and a message that names the word."""
    real = surfgroup.power_decompose

    def fails_on_c1c2(ctx, x):
        if x == (1, 2):
            raise VerificationError("the core does not splice nf(x^2) into nf(x^3)")
        return real(ctx, x)

    monkeypatch.setattr(surfgroup, "power_decompose", fails_on_c1c2)
    monkeypatch.setattr(sys, "argv", ["splice_census.py", "--max-length", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "splice_census.py"), run_name="__main__")
    assert exc.value.code == ("the greedy splice failed on c1 c2: "
                              "the core does not splice nf(x^2) into nf(x^3)")
    assert capsys.readouterr().out.splitlines()[-1] == "     1         8"


def test_power_growth_checks_the_formula_against_full_normalization(monkeypatch):
    """With every core doubled, |x| + (k-1) tau no longer matches the
    normal form of the k-fold word, and the run ends with exit code 1."""
    real = surfgroup.power_decompose

    def doubled_core(ctx, x):
        pd = real(ctx, x)
        return pd._replace(core=pd.core * 2)

    monkeypatch.setattr(surfgroup, "power_decompose", doubled_core)
    monkeypatch.setattr(sys, "argv", ["power_growth.py", "--samples", "20"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "power_growth.py"), run_name="__main__")
    assert str(exc.value.code).startswith("length formula broke at x = ")


def test_ball_growth_refuses_an_oversized_ball_without_a_traceback():
    proc = _run_script("ball_growth.py", "--radius", "8")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("a ball of radius 8 has at least 7579441 elements, "
                           "more than the cap of 2000000\n")


@pytest.mark.parametrize("script, args, code, message", [
    *[(script, ["--genus", "1"], 1, "genus must be between 2 and 64, got 1")
      for script in SCRIPTS],
    ("class_census.py", ["--radius", "7"], 1,
     "a ball of radius 7 has at least 1085905 elements, more than the cap of 1000000"),
    ("class_census.py", ["--radius", "-1"], 1, "ball radius must be nonnegative"),
    ("power_growth.py", ["--samples", "0"], 2,
     "power_growth.py: error: --samples must be at least 1"),
    ("power_growth.py", ["--max-length", "0"], 2,
     "power_growth.py: error: --max-length must be at least 1"),
    ("class_census.py", ["--radius", "2", "--top", "-1"], 2,
     "class_census.py: error: --top must be at least 0"),
    ("power_growth.py", ["--k-max", "0"], 2,
     "power_growth.py: error: --k-max must be at least 1"),
    ("splice_census.py", ["--max-length", "0"], 2,
     "splice_census.py: error: --max-length must be at least 1"),
    ("ball_growth.py", ["--cap", "-1"], 2,
     "ball_growth.py: error: --cap must be at least 1"),
])
def test_script_refuses_a_bad_argument_without_a_traceback(script, args, code, message):
    """A refused argument exits 1 with the refusal alone on stderr, or 2
    with argparse's usage and error, and prints nothing on stdout."""
    proc = _run_script(script, *args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    if code == 1:
        assert proc.stderr == message + "\n"
    else:
        assert proc.stderr.splitlines()[-1] == message


def _bench_pairs():
    return runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))


def _result(**values):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}


def test_bench_pairs_judges_each_metric():
    """Medians, wins, the parent's quartiles and the verdict of each
    metric, on synthetic paired records; no benchmark runs."""
    bp = _bench_pairs()
    end_to_end = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                  {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
                  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}]
    parent_ops = [100, 104, 96, 102, 98, 101, 99, 103, 97, 100]
    runs = [{"workload": "w", "seed": 5 + i, "first": "parent" if i % 2 == 0 else "change",
             "parent": _result(ops_per_s=p, latency_p50_ms=1.0, setup_s=[1, 3][i % 2],
                               peak_rss_mb=20.0),
             "change": _result(ops_per_s=p + 20 - (30 if i == 0 else 0), latency_p50_ms=1.0,
                               setup_s=[1, 3][i % 2], peak_rss_mb=24.0)}
            for i, p in enumerate(parent_ops)]
    summary = bp["summarize"](runs, end_to_end)["w"]
    ops = summary["ops_per_s"]
    assert ops["parent_median"] == 100
    assert ops["change_median"] == 119.5
    assert ops["change_wins"] == 9
    assert ops["parent_quartiles"] == [97.75, 102.25]
    assert ops["verdict"] == "gain"
    assert summary["latency_p50_ms"]["change_wins"] == 0
    assert summary["latency_p50_ms"]["verdict"] == "within bound"
    # a spread of 1 to 3 around a median of 2 is wider than the 25% bound
    assert summary["setup_s"]["verdict"] == "unresolved"
    assert summary["peak_rss_mb"]["relative_change"] == pytest.approx(0.2)
    assert summary["peak_rss_mb"]["verdict"] == "worse"
    table = bp["table"]({"w": summary}, end_to_end).splitlines()
    assert table[0] == "| workload | ops_per_s | latency_p50_ms | setup_s | peak_rss_mb |"
    assert table[2] == "| w | 100 → 119.5 (9) | 1 → 1 (0) | 2 → 2 (0) | 20 → 24 (0) |"
    # eight wins of ten fall short of nine tenths, so no gain
    assert bp["judge"](parent_ops, [p + 10 for p in parent_ops[:8]] + parent_ops[8:],
                       "higher", 0.25)["verdict"] == "within bound"


def test_bench_pairs_refuses_reused_seeds_and_failed_runs(monkeypatch, tmp_path):
    bp = _bench_pairs()
    assert bp["seed_plan"](["a", "b"], 3, 100) == {"a": [100, 101, 102], "b": [103, 104, 105]}
    with pytest.raises(ValueError, match="same seeds"):
        bp["seed_plan"](["a", "b", "a"], 3, 100)
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'correct': False, 'attempted': 4, 'failed': 1, 'metrics': {}}))\n")
    with pytest.raises(RuntimeError, match="1 of 4 operations failed"):
        bp["run_once"]([sys.executable, "bench/run.py"], tmp_path, "w", 1, 1)


@pytest.mark.parametrize("args, message", [
    (["--seconds", "-5"], "--seconds must be positive"),
    (["--out", "missing/BENCH.json"], "--out: no directory missing"),
    (["--workload", "w", "--workload", "word-problme"],
     "--workload word-problme is not in BENCHMARK.json"),
])
def test_bench_pairs_refuses_a_bad_argument_before_any_run(monkeypatch, tmp_path, capsys,
                                                           args, message):
    """Exit 2 with argparse's error, and the stub benchmark never starts."""
    monkeypatch.chdir(tmp_path)
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, pathlib\n"
        "pathlib.Path('ran').touch()\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {}}))\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"], "workloads": [{"name": "w"}],
        "end_to_end": []}))
    with pytest.raises(SystemExit) as exc:
        _bench_pairs()["main"](["--parent", ".", "--change", ".", "--pairs", "1",
                                "--seconds", "1", "--seed-base", "1", "--out", "BENCH.json",
                                *args])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(" error: " + message)
    assert not (tmp_path / "ran").exists()


def test_bench_pairs_smoke(tmp_path):
    """One 1 s cli-batch pair on two copies of this tree."""
    trees = []
    for name in ("parent", "change"):
        tree = tmp_path / name
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "bench", tree / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        trees.append(tree)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(trees[0]),
         "--change", str(trees[1]), "--pairs", "1", "--seconds", "1", "--seed-base", "7",
         "--workload", "cli-batch", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text())["summary"]["cli-batch"]
    assert summary["ops_per_s"]["pairs"] == 1
    assert proc.stdout.splitlines()[2].startswith("| cli-batch | ")


def test_result_hashes_smoke():
    """The script prints a line per workload.  The powers-special cycle
    at seed 27001 hashes to be86fcda3d1bc88c, as it did before joins
    and the core check copied periodic runs unread."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "result_hashes.py"), "--seed", "27001",
         "--workload", "powers-special"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "powers-special be86fcda3d1bc88c\n"


def test_result_hashes_reports_an_operation_that_raises():
    """An operation that raises is hashed as its exception, named, and
    the other operations still run."""
    rh = runpy.run_path(str(ROOT / "scripts" / "result_hashes.py"))

    class Op:
        kind = "square"

    class Workload:
        def __init__(self, sg, seed, workdir):
            self.ops = [Op(), Op(), Op()]

        def setup(self, sg):
            self.calls = iter([4, ZeroDivisionError("division by zero"), 9])

        def run(self, op):
            out = next(self.calls)
            if isinstance(out, Exception):
                raise out
            return out

    digest, failures = rh["cycle_hash"]({"w": Workload}, lambda: None, "w", 1)
    expected = repr([4, ("error", "ZeroDivisionError", "division by zero"), 9])
    assert digest == hashlib.sha256(expected.encode()).hexdigest()[:16]
    assert failures == ["w operation 1 (square): ZeroDivisionError: division by zero"]
