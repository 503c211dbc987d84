"""Span tracer for the traced benchmark run.

Spans (name, start, end, parent) are recorded around calls into each
module's public functions by replacing the function name in every module
namespace that calls it; the package imports with ``from .x import y``, so
patching the defining module alone would miss its callers. Spans are kept
in memory and written out at the end. A span's self time is its duration
minus the time covered by its child spans. Per-layer times are raw seconds,
not speed-normalized. No file under ``src/`` changes.
"""
from __future__ import annotations

import functools
import gzip
import math
import time
from array import array
from pathlib import Path

import numpy as np

from wlckf import augmented, cli, linear, mse, phase, stats, unscented


def _matrices(args, kwargs, result) -> dict:
    shape = np.shape(args[0])
    return {"matrices": math.prod(shape[:-2])}


def _lstsq_flag(args, kwargs, result) -> dict:
    return {"lstsq": int(result[1])}


def _wlckf_run(args, kwargs, result) -> dict:
    return {"n": args[0].n, "steps": len(result), "singular": sum(rep.singular_innovation for rep in result)}


def _real_kf_run(args, kwargs, result) -> dict:
    return {"n": len(args[0]) // 2, "steps": len(result)}


def _steps(args, kwargs, result) -> dict:
    return {"steps": len(result)}


def _simulate_linear(args, kwargs, result) -> dict:
    return {"steps": int(args[1])}


def _track_batch(args, kwargs, result) -> dict:
    tracker = args[2] if len(args) > 2 else kwargs["tracker"]
    return {"tracker": tracker, "run_steps": int(result.estimates.size)}


def _simulate_phase_batch(args, kwargs, result) -> dict:
    return {"run_steps": int(result[1].size)}


def _run_tracker(args, kwargs, result) -> dict:
    return {"steps": int(result.estimates.size)}


def _gain(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _sweep(args, kwargs, result) -> dict:
    return {"draw_steps": int(result.size)}


def _write_rows(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


# (span name, defining object, [namespaces whose binding is replaced], attribute, attrs)
TARGETS = [
    ("augmented.matmul", augmented.AugmentedMatrix, [augmented.AugmentedMatrix], "__matmul__", None),
    ("augmented.full", augmented.AugmentedMatrix, [augmented.AugmentedMatrix], "full", None),
    ("augmented.solve_right", augmented, [linear, unscented], "solve_right", _lstsq_flag),
    ("augmented.psd_sqrt", augmented, [stats, unscented], "psd_sqrt", None),
    ("augmented.to_real_matrix", augmented, [cli, stats], "augmented_to_real_matrix", None),
    ("augmented.build_transform", augmented, [augmented, phase], "build_transform", None),
    ("stats.sample", stats, [linear, phase], "sample", None),
    ("stats.substream", stats, [cli, phase], "substream", None),
    ("linear.wlckf_run", linear, [cli, linear], "wlckf_run", _wlckf_run),
    ("linear.real_kf_run", linear, [cli, linear], "real_kf_run", _real_kf_run),
    ("linear.ckf_run", linear, [cli], "ckf_run", _steps),
    ("linear.simulate_linear", linear, [cli], "simulate_linear", _simulate_linear),
    ("unscented.uwlckf_run", unscented, [unscented], "uwlckf_run", _steps),
    ("unscented.complex_sigma_points", unscented, [unscented], "complex_sigma_points", None),
    ("phase.improvement_ratio", phase, [phase], "improvement_ratio", None),
    ("phase.track_batch", phase, [phase], "track_batch", _track_batch),
    ("phase.simulate_phase_batch", phase, [phase], "simulate_phase_batch", _simulate_phase_batch),
    ("phase.run_tracker", phase, [phase], "run_tracker", _run_tracker),
    ("mse.noise_impropriety_gain", mse, [mse], "noise_impropriety_gain", _gain),
    ("mse.min_mmse_ratio_sweep", mse, [mse], "min_mmse_ratio_sweep", _sweep),
    ("cli.write_rows", cli, [cli], "write_rows", _write_rows),
    ("cli.equivalence_trial", cli, [cli], "equivalence_trial", None),
    ("numpy.linalg.eigh", np.linalg, [np.linalg], "eigh", _matrices),
    ("numpy.linalg.svd", np.linalg, [np.linalg], "svd", _matrices),
    ("numpy.linalg.solve", np.linalg, [np.linalg], "solve", None),
    ("numpy.linalg.lstsq", np.linalg, [np.linalg], "lstsq", None),
    ("numpy.linalg.pinv", np.linalg, [np.linalg], "pinv", None),
    ("numpy.block", np, [np], "block", None),
]


class Tracer:
    """Records nested spans while ``active``; inert otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.active = False

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if attrs is not None:
                tracer.attrs[index] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, owner, namespaces, attr, attrs in TARGETS:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, attrs)
            for namespace in namespaces:
                self._restore.append((namespace, attr, getattr(namespace, attr)))
                setattr(namespace, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    # --- analysis ---------------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return names, parent, duration, duration - child

    def write(self, path: Path) -> None:
        """Write every span as gzip CSV: id, parent, name, start, end, self (ns)."""
        _, _, _, self_ns = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,name,start_ns,end_ns,self_ns\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},{self.start[i]},{self.end[i]},{self_ns[i]}\n"
                )


def layer_metrics(tracer: Tracer, passes: int, units_per_pass: int, observations) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans, normalized per pass or per unit."""
    names, _, duration, self_ns = tracer.arrays()
    by_name: dict[str, np.ndarray] = {}
    for i, name in enumerate(tracer.names):
        by_name[name] = np.nonzero(names == i)[0]

    def idx(name):
        return by_name.get(name, np.zeros(0, np.int64))

    def calls(name):
        return len(idx(name)) / passes

    def self_s(name):
        return float(self_ns[idx(name)].sum()) * 1e-9 / passes

    def attr_sum(name, key, where=None):
        total = 0
        for i in idx(name):
            a = tracer.attrs.get(int(i), {})
            if where is None or where(a):
                total += a.get(key, 0)
        return total

    def time_per(name, key, scale, where=None):
        spans = [int(i) for i in idx(name) if where is None or where(tracer.attrs.get(int(i), {}))]
        work = sum(tracer.attrs.get(i, {}).get(key, 0) for i in spans)
        return float(duration[spans].sum()) * scale / work if work else 0.0

    def tracker(kind):
        return lambda a: a.get("tracker") == kind

    def dim(n):
        return lambda a: a.get("n") == n

    m: dict[str, tuple[float, str]] = {}
    for kind in ("uwlckf", "ukf"):
        m[f"phase.track_batch.{kind}.ns_per_run_step"] = (time_per("phase.track_batch", "run_steps", 1.0, tracker(kind)), "ns")
    m["phase.simulate_phase_batch.ns_per_run_step"] = (time_per("phase.simulate_phase_batch", "run_steps", 1.0), "ns")
    m["phase.run_tracker.us_per_step"] = (time_per("phase.run_tracker", "steps", 1e-3), "us")
    m["phase.improvement_ratio.self_s"] = (self_s("phase.improvement_ratio"), "s")
    m["unscented.uwlckf_run.us_per_step"] = (time_per("unscented.uwlckf_run", "steps", 1e-3), "us")
    m["unscented.complex_sigma_points.calls"] = (calls("unscented.complex_sigma_points"), "count")
    m["unscented.complex_sigma_points.self_s"] = (self_s("unscented.complex_sigma_points"), "s")
    for run in ("wlckf_run", "real_kf_run"):
        for n in (1, 2, 4, 8):
            m[f"linear.{run}.us_per_step.n{n}"] = (time_per(f"linear.{run}", "steps", 1e-3, dim(n)), "us")
    m["linear.ckf_run.us_per_step"] = (time_per("linear.ckf_run", "steps", 1e-3), "us")
    m["linear.simulate_linear.us_per_step"] = (time_per("linear.simulate_linear", "steps", 1e-3), "us")
    m["linear.singular_innovation.count"] = (attr_sum("linear.wlckf_run", "singular") / passes, "count")
    m["linear.equivalence_fail.count"] = (observations.equivalence_fail / passes, "count")
    min_eig = observations.posterior_min_rel_eig
    m["linear.posterior_min_rel_eig"] = (min_eig if math.isfinite(min_eig) else 0.0, "ratio")
    for short, name in (("matmul", "augmented.matmul"), ("full", "augmented.full"),
                        ("solve_right", "augmented.solve_right"), ("psd_sqrt", "augmented.psd_sqrt")):
        m[f"augmented.{short}.calls"] = (calls(name), "count")
        m[f"augmented.{short}.self_s"] = (self_s(name), "s")
    solves = len(idx("augmented.solve_right"))
    m["augmented.solve_right.lstsq_frac"] = (attr_sum("augmented.solve_right", "lstsq") / solves if solves else 0.0, "ratio")
    m["augmented.to_real_matrix.self_s"] = (self_s("augmented.to_real_matrix"), "s")
    m["augmented.build_transform.calls"] = (calls("augmented.build_transform"), "count")
    m["stats.sample.calls"] = (calls("stats.sample"), "count")
    m["stats.sample.self_s"] = (self_s("stats.sample"), "s")
    m["stats.substream.calls"] = (calls("stats.substream"), "count")
    gains = len(idx("mse.noise_impropriety_gain"))
    m["mse.noise_impropriety_gain.us_per_call"] = (
        float(duration[idx("mse.noise_impropriety_gain")].sum()) * 1e-3 / gains if gains else 0.0, "us")
    m["mse.noise_impropriety_gain.iterations"] = (attr_sum("mse.noise_impropriety_gain", "iterations") / passes, "count")
    m["mse.min_mmse_ratio_sweep.ns_per_draw_step"] = (time_per("mse.min_mmse_ratio_sweep", "draw_steps", 1.0), "ns")
    m["cli.write_rows.self_s"] = (self_s("cli.write_rows"), "s")
    m["cli.write_rows.bytes"] = (attr_sum("cli.write_rows", "bytes") / passes, "bytes")
    m["cli.equivalence_trial.self_s"] = (self_s("cli.equivalence_trial"), "s")
    for name, key in (("numpy.linalg.eigh", "matrices"), ("numpy.linalg.svd", "matrices")):
        m[f"{name}.matrices"] = (attr_sum(name, key) / passes / units_per_pass, "count/step")
    for name in ("numpy.linalg.solve", "numpy.linalg.lstsq", "numpy.linalg.pinv", "numpy.block"):
        m[f"{name}.calls"] = (calls(name) / units_per_pass, "count/step")
    return m

