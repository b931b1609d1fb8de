"""Smoke test: the experiment script runs at its smallest size, so a change
of library call shapes cannot break it silently."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_game_vs_pde(tmp_path):
    stdout = run_script("game_vs_pde.py", ["--n", "2", "--size", "8", "--walks", "2000"], tmp_path)
    assert "max |game - pde|" in stdout
    assert sum(line.startswith("node ") for line in stdout.splitlines()) == 3 * 2
