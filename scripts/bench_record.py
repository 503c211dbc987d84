#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<k>.json``.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py [--root DIR]

For the checkout at ``--root`` (by default the one this script is in), it

* runs ``bench/run.py --seed 0 --seconds 25`` for each benchmark workload,
  one after the other, and gathers the trace files they write
  (``bench/out/<workload>-seed0-trace0.json``): each holds the
  environment, every end-to-end metric with its raw samples, and the
  pass times;
* times the four CLI commands at their default configs, and ``mse-sweep``
  on the one panel ``[-100, -20]``, 5 times each in a fresh
  interpreter, so interpreter start and imports are included; each round
  runs every command once with ``OPENBLAS_NUM_THREADS`` unset and once with
  it at 1, so slow drift of the machine falls on both settings alike. Beside
  each command's times it keeps the full config the checkout's CLI resolves
  for it (``wlckf.cli.load_config``), so a record says what ran.

It writes one JSON file with the git sha of the measured checkout, ``nproc``,
the CPU affinity and the thread variables of the environment it ran in,
as the first free ``BENCH_<k>.json`` at the root of the checkout this
script is in. Every record is made at the same settings (``SECONDS``,
``RUNS``, ``SEED``), so any two can be compared. It asserts no timing: the
numbers are for comparing one change with its parent, on one machine.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("phase-demod", "single-trajectory", "mse-analysis")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# Name, CLI arguments and config of each timed command; None is the default config.
COMMANDS = (
    ("phase-demod", ["phase-demod"], None),
    ("equivalence", ["equivalence"], None),
    ("mse-sweep", ["mse-sweep"], None),
    ("theta-bound", ["theta-bound"], None),
    ("mse-sweep-one-panel", ["mse-sweep"], {"panels": [[-100, -20]]}),
)
SECONDS = 25.0  # bench/run.py --seconds
SEED = 0  # bench/run.py --seed
RUNS = 5  # timed runs of each CLI command per thread setting


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    return parser.parse_args(argv)


def next_path(directory: Path) -> Path:
    """The first ``BENCH_<k>.json`` in ``directory``, k = 1, 2, ..., that does not exist yet."""
    k = 1
    while (directory / f"BENCH_{k}.json").exists():
        k += 1
    return directory / f"BENCH_{k}.json"


def git_state(root: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": None if status is None else bool(status)}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
    }


def run_workloads(root: Path) -> dict:
    traces = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)]
        print("+", " ".join(cmd[1:]), flush=True)
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
        print(proc.stdout.strip().splitlines()[-1], flush=True)
        trace = root / "bench" / "out" / f"{workload}-seed{SEED}-trace0.json"
        traces[workload] = json.loads(trace.read_text(encoding="utf-8"))
    return traces


def resolved_config(root: Path, argv: list[str]) -> dict:
    """The config the checkout at ``root`` runs ``wlckf <argv>`` with, less its output path."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from wlckf.cli import build_parser, load_config

    cfg = load_config(build_parser().parse_args(argv), argv[0])
    cfg.pop("out")
    return cfg


def time_commands(root: Path) -> dict:
    """Wall seconds of each command in a fresh interpreter, per thread setting, and the config it ran with."""
    base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(root / "src")
    settings = {"unset": base, "1": {**base, "OPENBLAS_NUM_THREADS": "1"}}
    samples = {name: {setting: [] for setting in settings} for name, _, _ in COMMANDS}
    codes = {name: set() for name, _, _ in COMMANDS}
    resolved = {}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        argvs = {}
        for name, args, config in COMMANDS:
            argvs[name] = list(args)
            if config is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                argvs[name] += ["--config", str(path)]
            resolved[name] = resolved_config(root, argvs[name])
        for _ in range(RUNS):
            for name, _, _ in COMMANDS:
                for setting, env in settings.items():
                    cmd = [sys.executable, "-m", "wlckf", *argvs[name], "--out", str(Path(tmp) / f"{name}.csv")]
                    start = time.perf_counter()
                    proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
                    samples[name][setting].append(time.perf_counter() - start)
                    codes[name].add(proc.returncode)
    table = {}
    for name, args, config in COMMANDS:
        table[name] = {
            "argv": ["wlckf", *args], "config_file": config, "config": resolved[name], "exit_codes": sorted(codes[name]),
            **{
                f"OPENBLAS_NUM_THREADS={setting}": {
                    "median_s": statistics.median(values), "min_s": min(values), "max_s": max(values), "samples_s": values,
                }
                for setting, values in samples[name].items()
            },
        }
        timing = ", ".join(f"{setting}: {statistics.median(values):.3f} s" for setting, values in samples[name].items())
        print(f"{name:<22} median {timing}", flush=True)
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    out = next_path(HERE)
    record = {
        **git_state(root),
        "environment": environment(),
        "bench_seconds": SECONDS,
        "bench_seed": SEED,
        "cli_runs": RUNS,
        "workloads": run_workloads(root),
        "cli": time_commands(root),
    }
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
