"""The walkthrough scripts run end to end on the library in this checkout."""
import json
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


def _bench_record():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_takes_the_next_free_k(tmp_path):
    record = _bench_record()
    assert record.next_path(tmp_path) == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")
    assert record.next_path(tmp_path) == tmp_path / "BENCH_2.json"


def test_every_committed_bench_record_holds_the_trajectory_fields():
    record = _bench_record()
    paths = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    assert [path.name for path in paths] == [f"BENCH_{k}.json" for k in range(1, max(len(paths), 2) + 1)]
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        assert re.fullmatch(r"[0-9a-f]{40}", data["git_sha"]) and data["git_dirty"] is False
        assert (data["bench_seconds"], data["bench_seed"], data["cli_runs"]) == (record.SECONDS, record.SEED, record.RUNS)
        assert set(data["environment"]) >= {"nproc", "affinity", "thread_env"}
        assert sorted(data["workloads"]) == sorted(record.WORKLOADS)
        for trace in data["workloads"].values():
            assert set(trace["metrics"]) == {"wall_s", "steps_per_s", "setup_s", "peak_rss_mb"}
        assert sorted(data["cli"]) == sorted(name for name, _, _ in record.COMMANDS)
        for timing in data["cli"].values():
            assert timing["exit_codes"] == [0]
            assert timing["config"]["seed"] == 0
            for setting in ("OPENBLAS_NUM_THREADS=unset", "OPENBLAS_NUM_THREADS=1"):
                assert len(timing[setting]["samples_s"]) >= 5
