"""Benchmark of the wlckf experiments, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload phase-demod --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``phase-demod``, ``single-trajectory`` and
``mse-analysis``. Each runs in a fresh process as a closed loop: one client
issues one call at a time, each after the previous one returned, in passes
over the workload's operations. A run makes a fixed number of passes, enough
for ``--seconds`` of timed work at the reference speed (``pass_count``), so that
a seed always attempts the same operations and fails the same ones however
fast the machine runs. Every operation's output is checked after it returns
(outside the timed section). BLAS/OpenMP threads are capped at
``THREAD_CAP``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time),
``steps_per_s`` (median over passes of the work units of operations that
passed their checks per second of the pass), ``setup_s`` (median over fresh processes of importing wlckf
and building the inputs) and ``peak_rss_mb``. Times are seconds at a
reference machine speed (see ``speed.py``); raw times are printed beside
them. ``fail_frac``, the pass-time tail and the sample count are printed
too and, with the environment, written to ``bench/out/``. ``--trace 1``
runs the same loop with spans recorded around each module's public
functions and prints the per-layer metrics instead (see ``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
every operation that raised, exited nonzero or failed a check, including
the known stiff-family defect (ROADMAP open item 4); ``correct`` is false
when any other failure occurs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("phase-demod", "single-trajectory", "mse-analysis")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
THREAD_CAP = 1
SETUP_REPEATS = 7
SETUP_PROBES = 30
DEADLINE_S = 170.0
# Median pass time per workload at the reference speed, in seconds (ten
# seeds on a 2-vCPU x86-64 sandbox); it sizes a run, see ``pass_count``.
NOMINAL_PASS_S = {"phase-demod": 15.6, "single-trajectory": 5.9, "mse-analysis": 2.3}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's smoke test")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- child process: set up, run the closed loop, check -----------------------------

def import_workloads():
    """Import the checkout's wlckf (never an installed copy) and the workloads."""
    sys.path.insert(0, str(SRC))
    import wlckf

    if not Path(wlckf.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"wlckf imported from {wlckf.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_reference(scale: str, seed: int) -> dict:
    """Reference summaries for this seed plus the seed-independent ones."""
    data = json.loads((BENCH / "reference.json").read_text(encoding="utf-8")).get(scale, {})
    return {**data.get("common", {}), **data.get("seeds", {}).get(str(seed), {})}


def pass_count(workload: str, seconds: float) -> int:
    """Passes of a run: ``seconds`` of timed work at the reference speed, at least one."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_S[workload] - 1e-9))


def child_setup(args) -> dict:
    start = time.perf_counter()
    workloads = import_workloads()
    workloads.build(args.workload, args.seed, args.scale, args.workdir)
    raw = time.perf_counter() - start
    import speed

    samples = [speed.sample(args.workload) for _ in range(SETUP_PROBES)]
    return {"setup_raw_s": raw, "setup_s": raw * speed.factor(args.workload, samples)}


def run_op(op, tracer, probe):
    """Run one operation; returns (result, seconds without probe time, exception)."""
    if tracer:
        tracer.active = True
        span = tracer.open(f"bench.{op.name}")
    spent = probe.spent
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # counted as a failed operation
        result, error = None, exc
    elapsed = time.perf_counter() - start - (probe.spent - spent)
    if tracer:
        tracer.close(span)
        tracer.active = False
    return result, elapsed, error


def child_run(args) -> dict:
    start = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.build(args.workload, args.seed, args.scale, args.workdir)
    run_setup_raw_s = time.perf_counter() - start
    references = load_reference(args.scale, args.seed)

    # Warm-up pass at tiny sizes: imports and lazy initialization finish here.
    for op in workloads.build(args.workload, args.seed, "tiny", args.workdir / "warmup").ops:
        op.check(op.run(), None)

    import speed

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    probe = speed.Probe(args.workload)
    probe.start()

    pass_times: list[float] = []
    pass_units: list[int] = []
    factors: list[float] = []
    attempted = failed = unexpected = 0
    messages: list[str] = []
    for _ in range(pass_count(args.workload, args.seconds)):
        pass_time = 0.0
        passed_units = 0
        first_sample = len(probe.samples)
        for op in workload.ops:
            result, elapsed, error = run_op(op, tracer, probe)
            pass_time += elapsed
            if error is not None:
                problems = [workloads.Failure(f"{op.name} raised {error!r}")]
            else:
                try:
                    problems = op.check(result, references.get(op.name))
                except Exception as exc:  # an unreadable output is a failed check
                    problems = [workloads.Failure(f"{op.name}: check raised {exc!r}")]
            attempted += 1
            if problems:
                failed += 1
                unexpected += any(not p.known for p in problems)
                messages.extend(p.message for p in problems)
            else:
                passed_units += op.units
        pass_times.append(pass_time)
        pass_units.append(passed_units)
        # Speed during this pass; a pass shorter than the probe interval
        # takes a fresh sample.
        factors.append(speed.factor(args.workload, probe.samples[first_sample:] or [speed.sample(args.workload)]))
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    report = {
        "run_setup_raw_s": run_setup_raw_s,
        "pass_times": pass_times,
        "speed_factors": factors,
        "probe_samples": len(probe.samples),
        "timed_s": sum(pass_times),
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "pass_units": pass_units,
        "units_per_pass": sum(op.units for op in workload.ops),
        "peak_rss_mb": peak_rss_mb,
        "messages": sorted(set(messages))[:50],
        "references": sorted(op.name for op in workload.ops if op.name in references),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration") if key in blas},
        },
    }
    if tracer:
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer, len(pass_times), report["units_per_pass"], workload.observations)
        report["per_layer"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        report["spans"] = len(tracer.start)
        tracer.write(OUT / f"{args.workload}.spans.csv.gz")
    return report


# --- orchestrator -----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def spawn(args, mode: str, workdir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--workdir", str(workdir),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it (None below 20 samples)."""
    n = len(samples)
    if n < 20:
        return None
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


def orchestrate(args) -> int:
    if not (SRC / "wlckf" / "__init__.py").is_file():
        print(f"error: no wlckf package under {SRC}; run from the root of a wlckf checkout", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, "setup", workdir, deadline) for _ in range(SETUP_REPEATS)]
        report = spawn(args, "run", workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = report["pass_times"]
    passes = [t * f for t, f in zip(raw, report["speed_factors"])]
    wall = statistics.median(passes)
    fail_frac = report["failed"] / report["attempted"]
    env = {
        **report["env"],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_cap_applied": THREAD_CAP,
    }
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "env": env, "wall_s": wall, "wall_raw_s": statistics.median(raw),
        "wall_s_tail": tail(passes), "samples": len(passes), "fail_frac": fail_frac,
        "setups": setups, **report,
    }
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"references checked for: {', '.join(report['references']) or 'none stored for this seed'}")
    tail_text = "n/a (fewer than 20 samples)" if summary["wall_s_tail"] is None else "%s %.6f s" % tuple(summary["wall_s_tail"])
    print(f"wall_s      {wall:.6f} s median pass, tail {tail_text}, samples {len(passes)}")
    print(f"raw         wall {summary['wall_raw_s']:.6f} s median pass, "
          + ("" if args.trace else f"setup {statistics.median(s['setup_raw_s'] for s in setups):.6f} s, ")
          + f"speed factor {statistics.median(report['speed_factors']):.4f} ({report['probe_samples']} probe samples)")
    print(f"fail_frac   {fail_frac:.6f} ({report['failed']} of {report['attempted']} operations)")
    for message in report["messages"]:
        print(f"  failure: {message}")

    if args.trace:
        metrics = report["per_layer"]
        print(f"traced: {report['spans']} spans written to {OUT / (args.workload + '.spans.csv.gz')}")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "steps_per_s": {"value": statistics.median(u / t for u, t in zip(report["pass_units"], passes)), "unit": "1/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']!r} {metric['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({**summary, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": report["unexpected"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is None:
        return orchestrate(args)
    report = child_setup(args) if args.child == "setup" else child_run(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
