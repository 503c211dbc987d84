import numpy as np
import pytest

from wlckf.augmented import AugmentedMatrix, AugmentedVector
from wlckf.errors import DimensionError
from wlckf.linear import FilterState, default_init, model_from_real, simulate_linear, wlckf_run, wlckf_update
from wlckf.stats import SecondOrderStats, substream
from wlckf.unscented import (
    NonlinearModel,
    SigmaPointSet,
    UTParams,
    complex_sigma_points,
    real_sigma_points,
    reconstruct_stats,
    uwlckf_run,
    uwlckf_step,
)


def random_stats(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, 2 * n))
    return SecondOrderStats.from_composite(rng.standard_normal(2 * n), a @ a.T / (2 * n))


def linearized(model):
    """A widely linear model wrapped as callables for the unscented filter."""
    a1, a2 = model.A.m1, model.A.m2
    b1, b2 = model.B.m1, model.B.m2
    c1, c2 = model.C.m1, model.C.m2
    return NonlinearModel(
        f=lambda x, w: x @ a1.T + np.conj(x) @ a2.T + w @ b1.T + np.conj(w) @ b2.T,
        h=lambda x, n: x @ c1.T + np.conj(x) @ c2.T + n,
        drive_noise=SecondOrderStats(np.zeros(model.B.block_shape[1]), model.Q.m1, model.Q.m2),
        meas_noise=SecondOrderStats(np.zeros(model.m), model.R.m1, model.R.m2),
        init=SecondOrderStats(np.zeros(model.n), model.Pi0.m1, model.Pi0.m2),
    )


def random_model(seed, n=2, m=2):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((2 * n, 2 * n))
    e *= 0.9 / max(abs(np.linalg.eigvals(e)))
    f = rng.standard_normal((2 * n, 2 * n))
    g = rng.standard_normal((2 * m, 2 * n))

    def cov(k):
        a = rng.standard_normal((2 * k, 2 * k))
        return a @ a.T / (2 * k) + 0.1 * np.eye(2 * k)

    return model_from_real(e, f, g, cov(n), cov(m), cov(n))


# --- parameters and weights ----------------------------------------------------


def test_default_kappa_keeps_spread_at_sqrt3():
    params = UTParams()
    for dim in (2, 4, 6, 10):
        assert dim + params.lam(dim) == pytest.approx(3.0)


def test_weights_sum_to_one():
    params = UTParams()
    for dim in (2, 4, 6):
        w_mean, _ = params.weights(dim)
        assert w_mean.sum() == pytest.approx(1.0)
        assert len(w_mean) == 2 * dim + 1


def test_weights_reject_nonpositive_scale():
    with pytest.raises(DimensionError):
        UTParams(alpha=1.0, kappa=-5.0).weights(4)


# --- real sigma points ----------------------------------------------------------


def test_real_sigma_points_explicit_example():
    # lambda = 1 at dimension 2: points {0, +-sqrt(3) e1, +-sqrt(3) e2}
    sps = real_sigma_points(np.zeros(2), np.eye(2), UTParams(kappa=1.0))
    s = np.sqrt(3)
    expected = np.array([[0, 0], [s, 0], [0, s], [-s, 0], [0, -s]], dtype=float)
    assert np.allclose(sps.points, expected)
    assert sps.count == 5


def test_real_sigma_points_weighted_mean_is_input_mean():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    sps = real_sigma_points(mu, a @ a.T, UTParams())
    assert np.max(np.abs(sps.w_mean @ sps.points - mu)) < 1e-12


def test_real_sigma_points_weighted_covariance_matches_input():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    cov = a @ a.T
    mu = rng.standard_normal(4)
    sps = real_sigma_points(mu, cov, UTParams())
    d = sps.points - sps.w_mean @ sps.points
    rec = (sps.w_cov[:, None] * d).T @ d
    assert np.max(np.abs(rec - cov)) < 1e-12


# --- complex sigma points --------------------------------------------------------


def test_complex_points_count_is_4n_plus_1():
    for n in (1, 2, 4):
        sps = complex_sigma_points(random_stats(n, n))
        assert sps.count == 4 * n + 1


def test_complex_points_proper_scalar_reconstructs_zero_complementary():
    stats = SecondOrderStats(np.zeros(1), [[1.0]], [[0.0]])
    rec = reconstruct_stats(complex_sigma_points(stats))
    assert abs(rec.complementary_cov[0, 0]) < 1e-12


def test_complex_points_improper_scalar_reconstructs_complementary():
    stats = SecondOrderStats(np.zeros(1), [[1.0]], [[0.8]])
    rec = reconstruct_stats(complex_sigma_points(stats))
    assert rec.complementary_cov[0, 0] == pytest.approx(0.8, abs=1e-12)
    assert rec.hermitian_cov[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_complex_points_maximally_improper_are_real():
    stats = SecondOrderStats(np.zeros(1), [[1.0]], [[1.0]])
    sps = complex_sigma_points(stats)
    assert np.max(np.abs(sps.points.imag)) == 0.0


def test_augmented_stacks_are_exactly_conjugate_symmetric():
    sps = complex_sigma_points(random_stats(3, 3))
    for point in sps.points:
        vec = AugmentedVector.from_complex(point)
        assert vec.conjugate_defect() == 0.0


def test_round_trip_moment_preservation_various_dims():
    for seed, n in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        stats = random_stats(seed, n)
        rec = reconstruct_stats(complex_sigma_points(stats))
        assert np.max(np.abs(rec.mean - stats.mean)) < 1e-10
        assert np.max(np.abs(rec.hermitian_cov - stats.hermitian_cov)) < 1e-10
        assert np.max(np.abs(rec.complementary_cov - stats.complementary_cov)) < 1e-10


def test_single_point_reconstructs_zero_covariance():
    sps = SigmaPointSet(np.array([[1 + 2j]]), np.array([1.0]), np.array([1.0]))
    rec = reconstruct_stats(sps)
    assert rec.mean == pytest.approx([1 + 2j])
    assert np.max(np.abs(rec.hermitian_cov)) == 0.0


def test_proper_assuming_points_miss_complementary_covariance():
    stats = random_stats(7, 2)
    norm = np.linalg.norm(stats.complementary_cov)
    assert norm > 0.1
    rec = reconstruct_stats(complex_sigma_points(stats, preserve_complementary=False))
    miss = np.linalg.norm(rec.complementary_cov - stats.complementary_cov)
    assert miss >= 0.9 * norm
    # the Hermitian covariance is still carried
    assert np.max(np.abs(rec.hermitian_cov - stats.hermitian_cov)) < 1e-10


# --- unscented widely linear filter ----------------------------------------------


def test_linear_collapse_single_step():
    model = random_model(20)
    nl = linearized(model)
    _, meas = simulate_linear(model, 1, substream(20, 0))
    lin = wlckf_run(model, meas)[0]
    init = FilterState(
        AugmentedVector.from_complex(np.zeros(model.n, complex)), model.Pi0, 0
    )
    ut = uwlckf_step(init, meas[0], nl)
    assert np.max(np.abs(ut.state.estimate.top - lin.state.estimate.top)) < 1e-8
    assert np.max(np.abs(ut.state.cov.full() - lin.state.cov.full())) < 1e-8


def test_linear_collapse_trajectory():
    model = random_model(21)
    nl = linearized(model)
    _, meas = simulate_linear(model, 50, substream(21, 0))
    lin = wlckf_run(model, meas)
    ut = uwlckf_run(nl, meas)
    for a, b in zip(ut, lin):
        assert np.max(np.abs(a.state.estimate.top - b.state.estimate.top)) < 1e-8
        assert np.max(np.abs(a.state.cov.full() - b.state.cov.full())) < 1e-8


@pytest.mark.parametrize("filter_step", ["wlckf_update", "uwlckf_step"])
def test_wrong_measurement_length_raises(filter_step):
    # Both filters reach the shared update, which checks the shape.
    model = random_model(23)
    state = default_init(model)
    for y in (np.zeros(model.m + 1, complex), np.zeros(model.m - 1, complex), np.zeros((model.m, 1), complex)):
        with pytest.raises(DimensionError):
            if filter_step == "wlckf_update":
                wlckf_update(state, y, model)
            else:
                uwlckf_step(state, y, linearized(model))


def test_proper_linear_model_gives_vanishing_conjugate_gain():
    rng = np.random.default_rng(22)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a1 = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    zero = np.zeros((2, 2), complex)
    model_aug = {
        "A": AugmentedMatrix(a1, zero),
        "B": AugmentedMatrix(np.eye(2, dtype=complex), zero),
        "C": AugmentedMatrix(np.eye(2, dtype=complex), zero),
        "Q": AugmentedMatrix(c @ c.conj().T, zero),
        "R": AugmentedMatrix(np.eye(2, dtype=complex), zero),
        "Pi0": AugmentedMatrix(np.eye(2, dtype=complex), zero),
    }
    from wlckf.linear import WidelyLinearModel

    model = WidelyLinearModel(**model_aug)
    nl = linearized(model)
    _, meas = simulate_linear(model, 5, substream(22, 0))
    reports = uwlckf_run(nl, meas)
    for rep in reports:
        assert np.max(np.abs(rep.gain.m2)) < 1e-10


def test_phase_step_keeps_estimate_real():
    from wlckf.phase import PhaseModel, nonlinear_phase_model

    pm = PhaseModel(snr_db=20.0, rho_abs=0.7)
    nl = nonlinear_phase_model(pm)
    init = FilterState(
        AugmentedVector.from_complex([0j]), AugmentedMatrix([[1.0]], [[1.0]]), 0
    )
    rep = uwlckf_step(init, np.array([np.exp(0.3j) + 0.01]), nl)
    assert abs(rep.state.estimate.top[0].imag) < 1e-9
