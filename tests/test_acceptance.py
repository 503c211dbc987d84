"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from wlckf.augmented import (
    AugmentedMatrix,
    AugmentedVector,
    augmented_to_real,
    augmented_to_real_matrix,
    real_matrix_to_augmented,
)
from wlckf.cli import main
from wlckf.linear import (
    FilterState,
    WidelyLinearModel,
    ckf_run,
    model_from_real,
    real_kf_run,
    simulate_linear,
    wlckf_run,
)
from wlckf.mse import ScalarModelParams, min_mmse_ratio_sweep, wl_mmse
from wlckf.phase import PhaseModel, improvement_ratio, simulate_phase_batch, track_batch
from wlckf.stats import SecondOrderStats, substream
from wlckf.unscented import NonlinearModel, complex_sigma_points, reconstruct_stats, uwlckf_run

DATA = Path(__file__).parent / "data"


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    return ok


def random_composite(rng, n, m):
    e = rng.standard_normal((2 * n, 2 * n))
    e *= 0.9 / max(abs(np.linalg.eigvals(e)))
    f = rng.standard_normal((2 * n, 2 * n))
    g = rng.standard_normal((2 * m, 2 * n))

    def cov(k):
        a = rng.standard_normal((2 * k, 2 * k))
        return a @ a.T / (2 * k) + 0.1 * np.eye(2 * k)

    return e, f, g, cov(n), cov(m), cov(n)


def test_criterion_1_dual_channel_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for trial in range(50):
        rng = substream(1000, trial)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        e, f, g, q, r, pi = random_composite(rng, n, m)
        model = model_from_real(e, f, g, q, r, pi)
        _, meas = simulate_linear(model, 100, substream(1000, trial, 1))
        reports = wlckf_run(model, meas)
        meas_real = [np.concatenate([y.real, y.imag]) for y in meas]
        refs = real_kf_run(e, f, g, q, r, pi, meas_real)
        for rep, ref in zip(reports, refs):
            est = augmented_to_real(rep.state.estimate)
            cov = augmented_to_real_matrix(rep.state.cov, "covariance")
            worst = max(
                worst,
                np.max(np.abs(est - ref.mean)) / max(1.0, np.max(np.abs(ref.mean))),
                np.max(np.abs(cov - ref.cov)) / max(1.0, np.max(np.abs(ref.cov))),
            )
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 10.0
    assert report(
        1,
        "widely linear filter equals the dual-channel real filter",
        ok,
        f"50 models, worst rel dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_propriety_collapse():
    rng = substream(2000)
    n = m = 2

    def cmat(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    a1 = cmat(n, n)
    a1 *= 0.9 / max(abs(np.linalg.eigvals(a1)))

    def pcov(k):
        z = cmat(k, k)
        return z @ z.conj().T / k + 0.1 * np.eye(k)

    zero = np.zeros((n, n), complex)
    model = WidelyLinearModel(
        A=AugmentedMatrix(a1, zero),
        B=AugmentedMatrix(cmat(n, n), zero),
        C=AugmentedMatrix(cmat(m, n), zero),
        Q=AugmentedMatrix(pcov(n), zero),
        R=AugmentedMatrix(pcov(m), zero),
        Pi0=AugmentedMatrix(pcov(n), zero),
    )
    _, meas = simulate_linear(model, 100, substream(2000, 1))
    wl = wlckf_run(model, meas)
    sl = ckf_run(model, meas)
    worst_comp = 0.0
    worst_match = 0.0
    for a, b in zip(wl, sl):
        worst_comp = max(
            worst_comp,
            np.max(np.abs(a.state.cov.m2)),
            np.max(np.abs(a.innovation_cov.m2)),
            np.max(np.abs(a.gain.m2)),
        )
        worst_match = max(
            worst_match,
            np.max(np.abs(a.state.estimate.top - b.state.estimate.top)),
            np.max(np.abs(a.state.cov.m1 - b.state.cov.m1)),
        )
    ok = worst_comp < 1e-12 and worst_match < 1e-12
    assert report(
        2,
        "proper models keep complementary blocks at zero and match the strictly linear filter",
        ok,
        f"complementary {worst_comp:.2e}, match {worst_match:.2e}",
    )


def test_criterion_3_ratio_bounds():
    rng = substream(3000)
    draws = 10_000
    ratios = min_mmse_ratio_sweep(
        rng.uniform(0.2, 1.5, draws),
        rng.uniform(0.2, 1.5, draws),
        rng.uniform(0.2, 1.5, draws),
        10.0 ** rng.uniform(-6, 2, draws),
        10.0 ** rng.uniform(-6, 2, draws),
        10.0 ** rng.uniform(-2, 2, draws),
        50,
    )
    bounds_ok = bool(np.all(ratios >= 0.5 - 1e-12) and np.all(ratios <= 1 + 1e-12))
    narrow = min_mmse_ratio_sweep(1.0, 1.0, 1.0, 1e-6, 1e-3, 1.0, 20)
    near_half = float(np.min(narrow)) < 0.55
    ok = bounds_ok and near_half
    assert report(
        3,
        "best-case ratio stays in [1/2, 1] and approaches 1/2 when N1 << N2 << 1",
        ok,
        f"range [{ratios.min():.6f}, {ratios.max():.6f}], dip {float(np.min(narrow)):.4f}",
    )


def test_criterion_4_formula_equals_filter():
    params = ScalarModelParams(
        a=0.95 + 0.2j, b=0.8, c=1.1 - 0.3j, drive_var=0.7, meas_var=1.4,
        init_var=1.0, init_cvar=0.5 + 0.4j,
    )
    model = WidelyLinearModel(
        A=AugmentedMatrix([[params.a]], [[0.0]]),
        B=AugmentedMatrix([[params.b]], [[0.0]]),
        C=AugmentedMatrix([[params.c]], [[0.0]]),
        Q=AugmentedMatrix([[params.drive_var]], [[0.0]]),
        R=AugmentedMatrix([[params.meas_var]], [[0.0]]),
        Pi0=AugmentedMatrix([[params.init_var]], [[params.init_cvar]]),
    )
    _, meas = simulate_linear(model, 200, substream(4000))
    worst = 0.0
    for t, rep in enumerate(wlckf_run(model, meas), start=1):
        half_trace = rep.state.cov.m1[0, 0].real
        worst = max(worst, abs(half_trace - wl_mmse(params, t)))
    ok = worst < 1e-10
    assert report(4, "closed-form MSE equals the running filter for t <= 200", ok, f"worst gap {worst:.2e}")


def test_criterion_5_sigma_point_moments():
    worst = 0.0
    neg_ok = True
    checked_controls = 0
    for trial in range(100):
        rng = substream(5000, trial)
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((2 * n, 2 * n))
        mu = rng.standard_normal(2 * n)
        cov = real_matrix_to_augmented(a @ a.T / (2 * n), "covariance")
        stats = SecondOrderStats(mu[:n] + 1j * mu[n:], cov.m1, cov.m2)
        rec = reconstruct_stats(complex_sigma_points(stats))
        worst = max(
            worst,
            np.max(np.abs(rec.mean - stats.mean)),
            np.max(np.abs(rec.hermitian_cov - stats.hermitian_cov)),
            np.max(np.abs(rec.complementary_cov - stats.complementary_cov)),
        )
        norm = np.linalg.norm(stats.complementary_cov)
        if norm > 0.1:
            checked_controls += 1
            base = reconstruct_stats(complex_sigma_points(stats, preserve_complementary=False))
            miss = np.linalg.norm(base.complementary_cov - stats.complementary_cov)
            neg_ok = neg_ok and miss >= 0.9 * norm
    ok = worst < 1e-10 and neg_ok and checked_controls > 50
    assert report(
        5,
        "modified sigma points preserve all second moments; proper-assuming points do not",
        ok,
        f"worst round-trip {worst:.2e}, {checked_controls} negative controls",
    )


def test_criterion_6_unscented_linear_collapse():
    worst = 0.0
    for trial in range(20):
        rng = substream(6000, trial)
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        e, f, g, q, r, pi = random_composite(rng, n, m)
        model = model_from_real(e, f, g, q, r, pi)
        a1, a2 = model.A.m1, model.A.m2
        b1, b2 = model.B.m1, model.B.m2
        c1, c2 = model.C.m1, model.C.m2
        nl = NonlinearModel(
            f=lambda x, w: x @ a1.T + np.conj(x) @ a2.T + w @ b1.T + np.conj(w) @ b2.T,
            h=lambda x, nn: x @ c1.T + np.conj(x) @ c2.T + nn,
            drive_noise=SecondOrderStats(np.zeros(n), model.Q.m1, model.Q.m2),
            meas_noise=SecondOrderStats(np.zeros(m), model.R.m1, model.R.m2),
            init=SecondOrderStats(np.zeros(n), model.Pi0.m1, model.Pi0.m2),
        )
        _, meas = simulate_linear(model, 50, substream(6000, trial, 1))
        for a, b in zip(uwlckf_run(nl, meas), wlckf_run(model, meas)):
            worst = max(
                worst,
                np.max(np.abs(a.state.estimate.top - b.state.estimate.top)),
                np.max(np.abs(a.state.cov.full() - b.state.cov.full())),
            )
    ok = worst < 1e-8
    assert report(6, "unscented filter collapses to the linear filter on widely linear maps", ok, f"worst {worst:.2e}")


def test_criterion_7_phase_estimates_real():
    model = PhaseModel(snr_db=20.0, rho_abs=0.7)
    _, ys = simulate_phase_batch(model, 500, 200, 7000)
    res = track_batch(model, ys, "uwlckf")
    ok = res.max_imag < 1e-9
    assert report(7, "phase estimates stay real over 200 runs x 500 steps", ok, f"max |Im| {res.max_imag:.2e}")


def test_criterion_8_phase_improvement():
    start = time.monotonic()
    rhos = [0.0, 0.3, 0.5, 0.7, 0.9]
    results = [improvement_ratio(20.0, rho, 200, 500, 42) for rho in rhos]
    elapsed = time.monotonic() - start
    r_at_09 = results[-1].r_mean
    monotone = all(
        b.r_mean >= a.r_mean - 2 * np.hypot(a.r_stderr, b.r_stderr)
        for a, b in zip(results, results[1:])
    )
    ok = r_at_09 >= 1.5 and monotone and elapsed < 120.0
    detail = ", ".join(f"r({res.rho_abs})={res.r_mean:.2f}" for res in results)
    assert report(8, "error ratio at SNR 20 dB grows with impropriety", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_9_snr_advantage():
    ok = True
    gaps = []
    for snr in (5.0, 10.0, 15.0, 20.0):
        ours = improvement_ratio(snr, 0.7, 200, 500, 42)
        theirs = improvement_ratio(snr + 2.0, 0.7, 200, 500, 42)
        slack = 2 * np.hypot(ours.xi_uwlckf_se, theirs.xi_ukf_se)
        gaps.append(ours.xi_uwlckf - theirs.xi_ukf)
        ok = ok and (ours.xi_uwlckf <= theirs.xi_ukf + slack)
    assert report(
        9,
        "widely linear tracker at SNR matches the baseline given 2 dB more SNR",
        ok,
        "gaps " + ", ".join(f"{g:+.3f}" for g in gaps),
    )


def test_criterion_10_sweep_properties_and_golden_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["mse-sweep", "--config", str(DATA / "mse_sweep_config.json"), "--out", str(out)])
    surface_ok = code == 0  # the command itself asserts >= 1, unity at the origin, monotone
    golden_ok = out.read_bytes() == (DATA / "mse_sweep_golden.csv").read_bytes()
    ok = surface_ok and golden_ok
    assert report(
        10,
        "impropriety sweep satisfies the surface properties and matches the golden CSV byte for byte",
        ok,
        f"exit {code}, golden {'match' if golden_ok else 'MISMATCH'}",
    )
