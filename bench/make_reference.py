"""Capture the reference tables that the benchmark checks outputs against.

Run at the commit whose outputs are the reference (the parent of a change),
from the root of the checkout:

    python3 bench/make_reference.py --seeds 0-47 --jobs 2

Each operation of every workload that has a summary is run once per seed at
full scale; its output must pass every check that needs no reference before
its summary is stored. ``mse-sweep`` does not depend on the seed and is
stored once. The result replaces ``bench/reference.json``.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

from run import BENCH, git_sha, import_workloads, source_digest

SEED_INDEPENDENT = {"mse-sweep"}


def capture_seed(seed: int, include_common: bool) -> dict:
    workloads = import_workloads()
    summaries = {}
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        for name in workloads.WORKLOADS:
            for op in workloads.build(name, seed, "full", Path(tmp) / name).ops:
                if op.summarize is None or (op.name in SEED_INDEPENDENT and not include_common):
                    continue
                result = op.run()
                problems = op.check(result, None)
                if problems:
                    raise RuntimeError(f"seed {seed} {op.name}: {[p.message for p in problems]}")
                summaries[op.name] = op.summarize(result)
    print(f"seed {seed}: {', '.join(sorted(summaries))}", file=sys.stderr, flush=True)
    return summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-47", help="inclusive range lo-hi")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    lo, hi = (int(part) for part in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    (BENCH / "out").mkdir(parents=True, exist_ok=True)
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        captured = pool.starmap(capture_seed, [(seed, i == 0) for i, seed in enumerate(seeds)], chunksize=1)
    workloads = import_workloads()
    common = {name: captured[0].pop(name) for name in SEED_INDEPENDENT if name in captured[0]}
    reference = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "full": {"common": common, "seeds": {str(seed): data for seed, data in zip(seeds, captured)}},
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
