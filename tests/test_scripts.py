"""Smoke tests: each experiment script runs at its smallest size and leaves
its artefacts, so a change of library call shapes cannot break one silently."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_blowup_experiment(tmp_path):
    out = tmp_path / "blowup"
    stdout = run_script("blowup_experiment.py", ["--h", "0.0625", "--out", str(out)], tmp_path)
    assert "Weiss monotone within slack: True" in stdout
    assert (out / "weiss.csv").read_text().startswith("r,E,F,W\n")
    table = np.loadtxt(out / "blowup.csv", delimiter=",", skiprows=1)
    assert table.shape == (6, 2) and np.all(table[:, 1] > 0)


def test_convergence_study(tmp_path):
    stdout = run_script("convergence_study.py", ["--levels", "8", "16"], tmp_path)
    assert stdout.count("order") == 2


def test_game_vs_pde(tmp_path):
    stdout = run_script("game_vs_pde.py", ["--n", "2", "--size", "8", "--walks", "2000"], tmp_path)
    assert "max |game - pde|" in stdout
    assert sum(line.startswith("node ") for line in stdout.splitlines()) == 3 * 2
