"""Both linear filters against an extended-precision referee on the stiff family.

The benchmark's stiff models (``bench/workloads.py::stiff_model``) are near
unstable, start from a diffuse prior and measure three channels with noise
1e-8 and three without noise. A covariance update in the subtractive form
P - K C P loses positive semidefiniteness there and lets the widely linear
filter and the real oracle drift apart by more than the 1e-9 equivalence
gate; both filters use the Joseph form (I - K C) P (I - K C)^H + K R K^H.
The referee is a composite-model Kalman filter in ``np.longdouble``, in
Joseph form, with its own Gaussian elimination, so it runs wherever numpy
does.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wlckf.augmented import augmented_to_real, augmented_to_real_matrix
from wlckf.linear import model_from_real, real_kf_run, simulate_linear, wlckf_run
from wlckf.stats import substream

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
HORIZON = 200
BOUND = 1e-9  # the gate of `wlckf equivalence`


def _stiff_model():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Registered before running: dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.stiff_model


def _solve(a, b):
    """Solve a @ x == b by Gaussian elimination with partial pivoting, in a's precision."""
    a, b = a.copy(), b.copy()
    k = a.shape[0]
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, pivot]] = a[[pivot, col]]
        b[[col, pivot]] = b[[pivot, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :] -= np.outer(factors, a[col])
        b[col + 1 :] -= np.outer(factors, b[col])
    x = np.empty_like(b)
    for row in reversed(range(k)):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def referee(e, f, g, q, r, pi, measurements_real):
    """Composite-model Kalman filter in extended precision and Joseph form; (mean, cov) per step."""
    e, f, g, q, r, p = (np.asarray(m, dtype=np.longdouble) for m in (e, f, g, q, r, pi))
    fqf = f @ q @ f.T
    eye = np.eye(e.shape[0], dtype=np.longdouble)
    x = np.zeros(e.shape[0], dtype=np.longdouble)
    out = []
    for psi in measurements_real:
        x = e @ x
        p = e @ p @ e.T + fqf
        s = g @ p @ g.T + r
        gain = _solve(s, g @ p).T  # s and p are symmetric
        x = x + gain @ (np.asarray(psi, dtype=np.longdouble) - g @ x)
        i_kg = eye - gain @ g
        p = i_kg @ p @ i_kg.T + gain @ r @ gain.T
        p = (p + p.T) / 2
        out.append((x.astype(float), p.astype(float)))
    return out


def deviation(steps, reference) -> float:
    """Worst relative deviation in estimate and covariance, scaled as `wlckf equivalence` scales it."""
    worst = 0.0
    for (mean, cov), (ref_mean, ref_cov) in zip(steps, reference, strict=True):
        worst = max(
            worst,
            float(np.max(np.abs(mean - ref_mean))) / max(1.0, float(np.max(np.abs(ref_mean)))),
            float(np.max(np.abs(cov - ref_cov))) / max(1.0, float(np.max(np.abs(ref_cov)))),
        )
    return worst


def test_referee_solve_pivots_and_keeps_its_precision():
    a = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.longdouble)
    x = _solve(a, np.eye(3, dtype=np.longdouble))
    assert x.dtype == np.longdouble
    assert np.max(np.abs(a @ x - np.eye(3))) < 1e-15


@pytest.mark.parametrize("seed, index", [(1, 4), (5, 4), (5, 5)])
def test_stiff_family_filters_match_extended_precision_referee(seed, index):
    e, f, g, q, r, pi = _stiff_model()(seed, index)
    model = model_from_real(e, f, g, q, r, pi)
    _, measurements = simulate_linear(model, HORIZON, substream(seed, 50_000, index, 1))
    meas_real = [np.concatenate([y.real, y.imag]) for y in measurements]

    ref = referee(e, f, g, q, r, pi, meas_real)
    reports = wlckf_run(model, measurements)
    wl = [
        (augmented_to_real(rep.state.estimate), augmented_to_real_matrix(rep.state.cov, "covariance"))
        for rep in reports
    ]
    real = [(step.mean, step.cov) for step in real_kf_run(e, f, g, q, r, pi, meas_real)]

    assert deviation(wl, ref) <= BOUND
    assert deviation(real, ref) <= BOUND
    assert deviation(wl, real) <= BOUND
    # The Joseph form keeps every posterior positive semidefinite to rounding;
    # P - K C P went as low as -1.8e-4 relative on these models.
    for rep in reports:
        full = rep.state.cov.full()
        assert np.array_equal(full, full.conj().T)
        w = np.linalg.eigvalsh(full)
        assert w[0] >= -1e-12 * w[-1]
