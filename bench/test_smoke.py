"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
and a valid name, and that the output checks are live: a corrupted output
table is reported as a failure and counted in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_workloads()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert NAME.match(m["name"]) and UNIT.match(emitted["unit"])
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0


def _corrupt(path: Path, row: int, col: int, factor: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _op(workload: str, name: str, tmp_path: Path):
    ops = workloads.build(workload, 5, "tiny", tmp_path).ops
    return next(op for op in ops if op.name == name)


def test_reference_comparison_catches_a_changed_value(tmp_path):
    op = _op("phase-demod", "phase-demod", tmp_path)
    result = op.run()
    reference = op.summarize(result)
    assert op.check(result, reference) == []
    xi = result.out.with_name(result.out.stem + "_xi_snr.csv")
    _corrupt(xi, 0, 3, 1 + 1e-7)
    assert op.check(result, reference)


def test_scalar_cross_check_catches_a_changed_ratio(tmp_path):
    op = _op("mse-analysis", "theta-bound", tmp_path)
    result = op.run()
    assert op.check(result, None) == []
    _corrupt(result.out, 0, 7, 1 + 1e-7)
    assert op.check(result, None)


def test_equivalence_bound_catches_a_large_deviation(tmp_path):
    op = _op("single-trajectory", "equivalence-n2", tmp_path)
    result = op.run()
    assert op.check(result, None) == []
    _corrupt(result.out, 1, 5, 1e12)
    assert op.check(result, None)


def test_corrupted_table_is_counted_as_failed(tmp_path, monkeypatch):
    build = workloads.WORKLOADS["mse-analysis"]

    def corrupting(seed, scale, workdir):
        workload = build(seed, scale, workdir)
        for op in workload.ops:
            def run_and_corrupt(run=op.run):
                result = run()
                _corrupt(result.out, 0, 4, 0.5)
                return result
            op.run = run_and_corrupt
        return workload

    monkeypatch.setitem(workloads.WORKLOADS, "mse-analysis", corrupting)
    args = argparse.Namespace(workload="mse-analysis", seed=1, seconds=0.0, trace=0,
                              scale="tiny", workdir=tmp_path)
    report = run.child_run(args)
    assert report["attempted"] == 2 and report["failed"] == 2 and report["unexpected"] == 2
