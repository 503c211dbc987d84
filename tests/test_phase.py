from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlckf.errors import DegenerateError, DimensionError
from wlckf.linear import FilterState
from wlckf.augmented import AugmentedMatrix, AugmentedVector
from wlckf.phase import (
    TRACKERS,
    PhaseModel,
    _scalar_eigenpairs,
    _track,
    improvement_ratio,
    nonlinear_phase_model,
    normalized_error,
    run_tracker,
    simulate_phase,
    simulate_phase_batch,
    track_batch,
)
from wlckf.stats import SecondOrderStats, sample, substream
from wlckf.unscented import SigmaPointSet, UTParams, complex_sigma_points, reconstruct_stats, uwlckf_step


def test_model_noise_levels():
    model = PhaseModel(snr_db=20.0, rho_abs=0.7)
    assert model.noise_var == pytest.approx(0.01)
    assert model.noise_cvar == pytest.approx(0.007)


def test_model_rejects_bad_rho():
    with pytest.raises(DimensionError):
        PhaseModel(rho_abs=1.2)


def test_simulate_deterministic_decay_without_drive():
    model = PhaseModel(b=0.0, snr_db=30.0, rho_abs=0.0)
    theta, _ = simulate_phase(model, 50, substream(0, 0))
    assert theta[1:] == pytest.approx(theta[0] * 0.98 ** np.arange(1, 51))


def test_simulate_maximally_improper_noise_is_real():
    model = PhaseModel(rho_abs=1.0)
    theta, y = simulate_phase(model, 100, substream(1, 0))
    noise = y - np.exp(1j * theta[1:])
    assert np.max(np.abs(noise.imag)) == 0.0


def test_simulate_long_run_variance_matches_ar1():
    model = PhaseModel()
    theta, _ = simulate_phase(model, 200_000, substream(2, 0))
    expected = model.b**2 / (1 - model.a**2)
    assert np.var(theta[5000:]) == pytest.approx(expected, rel=0.1)


def test_normalized_error_examples():
    assert normalized_error([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert normalized_error([1.0, 1.0], [0.0, 0.0]) == 1.0
    assert normalized_error([1.0, 1.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_normalized_error_rejects_zero_phase():
    with pytest.raises(DegenerateError):
        normalized_error([0.0, 0.0], [1.0, 0.0])


def test_normalized_error_rejects_length_mismatch():
    with pytest.raises(DimensionError):
        normalized_error([1.0], [1.0, 2.0])


def test_tracker_estimates_stay_real_500_steps():
    model = PhaseModel(snr_db=30.0, rho_abs=0.5)
    _, y = simulate_phase(model, 500, substream(3, 0))
    res = run_tracker(model, y, "uwlckf")
    assert res.max_imag < 1e-9


def test_tracker_envelope_coverage_golden():
    model = PhaseModel(snr_db=30.0, rho_abs=0.5)
    theta, y = simulate_phase(model, 500, substream(0, 0))
    res = run_tracker(model, y, "uwlckf")
    cover = np.mean(np.abs(theta[1:] - res.estimates) <= np.sqrt(np.maximum(res.variances, 0)))
    assert cover >= 0.6
    assert cover == pytest.approx(0.704, abs=1e-9)


def test_tracker_high_snr_small_error():
    # The one-step acquisition from the unit-variance prior dominates the
    # full-window error; once locked the error is measurement-limited.
    model = PhaseModel(snr_db=80.0, rho_abs=0.5)
    theta, y = simulate_phase(model, 500, substream(4, 0))
    res = run_tracker(model, y, "uwlckf")
    assert normalized_error(theta[1:], res.estimates) < 5e-3
    assert normalized_error(theta[51:], res.estimates[50:]) < 1e-3


@pytest.mark.parametrize(
    "tracker, rho_abs, rho_phase",
    [("uwlckf", 0.7, 0.0), ("ukf", 0.7, 0.0), ("uwlckf", 1.0, 0.7), ("ukf", 1.0, 0.7)],
    ids=["uwlckf", "ukf", "uwlckf-maximally-improper-rotated", "ukf-maximally-improper-rotated"],
)
def test_batch_tracker_matches_reference_steps_uwlckf(tracker, rho_abs, rho_phase):
    # The proper-assuming baseline is the same filter on proper noise.
    model = PhaseModel(snr_db=20.0, rho_abs=rho_abs, rho_phase=rho_phase)
    _, y = simulate_phase(model, 80, substream(5, 0))
    res = run_tracker(model, y, tracker)
    nl = nonlinear_phase_model(model if tracker == "uwlckf" else replace(model, rho_abs=0.0))
    state = FilterState(
        AugmentedVector.from_complex([complex(model.init_mean)]),
        AugmentedMatrix([[model.init_var]], [[model.init_var]]),
        0,
    )
    for t in range(80):
        rep = uwlckf_step(state, np.array([y[t]]), nl)
        state = rep.state
        assert abs(state.estimate.top[0].real - res.estimates[t]) < 1e-10
        assert abs(state.cov.m1[0, 0].real - res.variances[t]) < 1e-10


# A scalar complex variable as (Hermitian variance p, |pt| / p, arg pt); the
# ratio's edges 0 and 1 are the proper and the maximally improper variable.
scalar_variable = st.tuples(
    st.floats(0.0, 100.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.floats(-np.pi, np.pi),
)


@given(st.lists(scalar_variable, min_size=3, max_size=3),
       st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
@example([(1.0, 0.0, 0.0)] * 3, 0j)
@example([(2.0, 1.0, 0.3), (1.0, 1.0, 0.0), (0.5, 1.0, -2.0)], 1 + 1j)
@settings(max_examples=100)
def test_closed_form_sigma_points_match_joint_statistics(variables, mean0):
    var = np.array([v[0] for v in variables])
    cvar = np.array([v[0] * v[1] * np.exp(1j * v[2]) for v in variables])
    mean = np.array([mean0, 0j, 0j])
    params = UTParams()
    w_mean, w_cov = params.weights(6)
    lam, rot = _scalar_eigenpairs(var, cvar)
    # Axis c of the (3, 2) factor moves variable c // 2.
    axes = np.sqrt(6 + params.lam(6)) * np.sqrt(np.clip(lam, 0.0, None)) * rot
    offsets = np.zeros((6, 3), complex)
    offsets[np.arange(6), np.arange(6) // 2] = axes.reshape(6)
    points = np.concatenate([mean[None], mean + offsets, mean - offsets])
    rec = reconstruct_stats(SigmaPointSet(points, w_mean, w_cov))
    tol = 1e-12 * max(1.0, float(var.max()))
    assert np.max(np.abs(rec.mean - mean)) <= tol
    assert np.max(np.abs(rec.hermitian_cov - np.diag(var))) <= tol
    assert np.max(np.abs(rec.complementary_cov - np.diag(cvar))) <= tol
    joint = SecondOrderStats(mean, np.diag(var), np.diag(cvar))
    ref = reconstruct_stats(complex_sigma_points(joint))
    assert np.max(np.abs(rec.mean - ref.mean)) <= tol
    assert np.max(np.abs(rec.hermitian_cov - ref.hermitian_cov)) <= tol
    assert np.max(np.abs(rec.complementary_cov - ref.complementary_cov)) <= tol


def test_track_batch_rejects_unknown_tracker():
    model = PhaseModel()
    with pytest.raises(ValueError):
        track_batch(model, np.zeros((1, 5), complex), "ekf")


def test_improvement_ratio_proper_case_is_unity():
    # On proper noise the two trackers are one computation.
    res = improvement_ratio(20.0, 0.0, 50, 200, 7)
    assert res.r_mean == 1.0
    assert res.r_stderr == 0.0
    assert res.max_imag < 1e-9


def test_improvement_ratio_reproducible():
    a = improvement_ratio(15.0, 0.5, 10, 100, 11)
    b = improvement_ratio(15.0, 0.5, 10, 100, 11)
    assert a.r_mean == b.r_mean
    assert a.xi_uwlckf == b.xi_uwlckf
    assert a.r_stderr == b.r_stderr


def test_improvement_ratio_grows_with_impropriety_smoke():
    lo = improvement_ratio(20.0, 0.0, 30, 300, 13)
    hi = improvement_ratio(20.0, 0.9, 30, 300, 13)
    assert hi.r_mean > lo.r_mean


def _simulate_one_run(model, horizon, rng):
    # Reference: the per-run loop, drawing the noise through stats.sample.
    theta = np.empty(horizon + 1)
    theta[0] = model.init_mean + np.sqrt(model.init_var) * rng.standard_normal()
    w = rng.standard_normal(horizon)
    for t in range(1, horizon + 1):
        theta[t] = model.a * theta[t - 1] + model.b * w[t - 1]
    noise = sample(model.noise_stats(), horizon, rng)[:, 0]
    return theta, np.exp(1j * theta[1:]) + noise


def test_simulate_batch_rows_are_independent_substreams():
    # rho_abs = 1 makes the noise factor singular.
    for model in (PhaseModel(), PhaseModel(rho_abs=1.0), PhaseModel(rho_abs=1.0, rho_phase=0.7),
                  PhaseModel(snr_db=0.0, rho_abs=0.4, rho_phase=-2.5, init_mean=0.3)):
        thetas, ys = simulate_phase_batch(model, 50, 4, 17)
        for r in range(4):
            t_ref, y_ref = _simulate_one_run(model, 50, substream(17, r))
            assert np.array_equal(thetas[r], t_ref)
            assert np.array_equal(ys[r], y_ref)
            t_one, y_one = simulate_phase(model, 50, substream(17, r))
            assert np.array_equal(t_one, t_ref)
            assert np.array_equal(y_one, y_ref)


@pytest.mark.parametrize("rho_abs, rho_phase", [(0.7, 0.0), (1.0, 0.7)])
def test_paired_engine_matches_separate_trackers(rho_abs, rho_phase):
    # improvement_ratio runs both trackers as one batch of 2 * runs rows.
    model = PhaseModel(snr_db=10.0, rho_abs=rho_abs, rho_phase=rho_phase)
    _, ys = simulate_phase_batch(model, 200, 6, 29)
    proper = replace(model, rho_abs=0.0)
    estimates, variances, max_imag = _track(model, ys, [model.noise_cvar, proper.noise_cvar])
    for block, tracker in enumerate(TRACKERS):
        alone = track_batch(model, ys, tracker)
        rows = slice(6 * block, 6 * (block + 1))
        for got, ref in ((estimates[rows], alone.estimates), (variances[rows], alone.variances)):
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13
        assert max_imag[rows].max() == pytest.approx(alone.max_imag, abs=1e-15)


def test_improvement_ratio_never_loses_within_noise():
    for snr, rho in [(10.0, 0.5), (20.0, 0.7)]:
        res = improvement_ratio(snr, rho, 60, 300, 23)
        assert res.r_mean >= 1 - 2 * res.r_stderr
