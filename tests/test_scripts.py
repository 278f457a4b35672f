"""Smoke runs of the experiment scripts: each exits 0 and writes its files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("script, args, files", [
    ("certify_fhn.py", ["--pairs", "2"], ["certificate.rec", "certificate.txt"]),
    ("reproduce_figures.py", ["--horizon", "5"],
     ["figure1.csv", "figure2.csv", "figure3.csv"]),
])
def test_script_runs(script, args, files, tmp_path):
    proc = run_script(script, "--out", str(tmp_path), *args)
    assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (tmp_path / name).is_file()
