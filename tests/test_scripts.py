"""The example scripts run end to end on a small grid."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demo_synthesis_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_synthesis.py"), "--side", "32", "--J", "2",
         "--Q", "4", "--restarts", "1", "--max-iter", "3", "--ensemble", "2",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "errors.csv").exists()


def test_frame_constants_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "frame_constants.py"), "--side", "32", "--J", "2",
         "--Q", "4"],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "A_W = " in proc.stdout and "B_W = " in proc.stdout
