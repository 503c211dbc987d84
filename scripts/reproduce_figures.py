#!/usr/bin/env python3
"""Run the four experiments at their default desk-scale settings.

Writes CSVs under results/ with a fixed seed. The phase experiment is the
slow one: BENCH_2.json records `wlckf phase-demod` on a 2-vCPU x86-64
machine at a median of 1.63 s with a multithreaded OpenBLAS and 0.84 s
with OPENBLAS_NUM_THREADS=1, which lets it run on both CPUs; each is the
median of 5 fresh processes and includes interpreter start. Pass --quick
to shrink run counts for a fast smoke pass.
"""
import argparse
import sys
from pathlib import Path

from wlckf.cli import main as wlckf_main


def run(argv):
    print("+ wlckf " + " ".join(argv))
    code = wlckf_main(argv)
    if code != 0:
        sys.exit(code)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true", help="smaller run counts")
    args = parser.parse_args()

    out = Path(args.out_dir)
    seed = str(args.seed)
    runs = "50" if args.quick else "200"
    horizon = "200" if args.quick else "500"

    run(["equivalence", "--trials", "20", "--horizon", "50", "--seed", seed,
         "--out", str(out / "equivalence.csv")])
    run(["mse-sweep", "--seed", seed, "--out", str(out / "mse_sweep.csv")])
    run(["theta-bound", "--seed", seed, "--out", str(out / "theta_bound.csv")])
    run(["phase-demod", "--runs", runs, "--horizon", horizon, "--seed", seed,
         "--out", str(out / "phase_demod.csv")])
    print(f"done; tables under {out}/")
