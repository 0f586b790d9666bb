"""The experiment scripts in scripts/ run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("ball_growth.py", ["--radius", "2"], "  r       ball     sphere    ratio"),
    ("class_census.py", ["--radius", "2"], " |rep|  classes"),
    ("power_growth.py", ["--samples", "20"], "  tau    count"),
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
