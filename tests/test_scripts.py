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
