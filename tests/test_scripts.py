"""The experiment scripts in scripts/ run end to end on tiny inputs."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import surfgroup
from surfgroup import VerificationError

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("ball_growth.py", ["--radius", "2"], "  r       ball     sphere    ratio"),
    ("class_census.py", ["--radius", "2"], " |rep|  classes"),
    ("power_growth.py", ["--samples", "20"], "  tau    count"),
    ("splice_census.py", ["--max-length", "3"], "length     words"),
])
def test_script_runs_and_prints_its_table(script, args, header):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
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
