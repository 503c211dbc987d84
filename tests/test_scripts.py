"""The walkthrough scripts run end to end on the library in this checkout."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_equivalence_demo_filters_agree():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "equivalence_demo.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    match = re.search(r"max deviation (\S+)", proc.stdout)
    assert match is not None, proc.stdout
    assert float(match.group(1)) < 1e-9


def test_reproduce_figures_quick_writes_every_table(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"), "--quick", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    tables = [
        "equivalence.csv", "mse_sweep.csv", "theta_bound.csv",
        "phase_demod_trajectory.csv", "phase_demod_xi_snr.csv", "phase_demod_r_rho.csv",
    ]
    for name in tables:
        assert (tmp_path / name).stat().st_size > 0, name
