"""Tracing overhead and repeatability of the traced counts.

    python3 bench/check_trace.py --workload single-trajectory --seed 0 --seconds 25

Runs the workload once untraced and twice traced. Prints the traced median
pass time against the untraced one (both at reference speed, see speed.py),
and requires every count metric of the two traced runs (units ``count``,
``count/step`` and ``bytes``) to be identical. Exits 1 when a count differs.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, OUT, WORKLOADS

COUNT_UNITS = {"count", "count/step", "bytes"}


def run_once(args, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL,
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    plain = run_once(args, 0)
    first = run_once(args, 1)
    second = run_once(args, 1)
    overhead = first["wall_s"] / plain["wall_s"] - 1
    print(f"{args.workload} seed {args.seed}: untraced pass {plain['wall_s']:.4f} s, "
          f"traced pass {first['wall_s']:.4f} s, tracing overhead {100 * overhead:+.1f}%")
    differing = [
        name for name, metric in first["metrics"].items()
        if metric["unit"] in COUNT_UNITS and metric["value"] != second["metrics"][name]["value"]
    ]
    counted = sum(metric["unit"] in COUNT_UNITS for metric in first["metrics"].values())
    print(f"count metrics identical across two traced runs: {counted - len(differing)} of {counted}")
    for name in differing:
        print(f"  differs: {name} {first['metrics'][name]['value']!r} vs {second['metrics'][name]['value']!r}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
