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
    # One BLAS thread keeps the process single-threaded, so phase-demod runs
    # its 2 blocks in two processes. The output is piped and buffered, and no
    # line may be written twice.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
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
    commands = [line for line in proc.stdout.splitlines() if line.startswith("+ wlckf ")]
    assert [line.split()[2] for line in commands] == ["equivalence", "mse-sweep", "theta-bound", "phase-demod"]
    for line in commands:
        assert proc.stdout.count(line + "\n") == 1, line
