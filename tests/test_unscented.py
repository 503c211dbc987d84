import numpy as np
import pytest

from wlckf import phase
from wlckf.augmented import AugmentedMatrix, AugmentedVector, real_matrix_to_augmented
from wlckf.errors import ConsistencyError, DimensionError, NotPSDError
from wlckf.linear import FilterState, default_init, model_from_real, simulate_linear, wlckf_run
from wlckf.stats import SecondOrderStats, composite_factor, sample, substream
from wlckf.unscented import (
    NonlinearModel,
    SPREAD,
    SigmaPointSet,
    complex_sigma_points,
    reconstruct_stats,
    uwlckf_run,
    uwlckf_step,
    weights,
)


def random_stats(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, 2 * n))
    mu = rng.standard_normal(2 * n)
    cov = real_matrix_to_augmented(a @ a.T / (2 * n), "covariance")
    return SecondOrderStats(mu[:n] + 1j * mu[n:], cov.m1, cov.m2)


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
    # Proper with variance 2 per entry: the composite covariance is the identity.
    for n in (1, 2, 3, 5):
        sps = complex_sigma_points(SecondOrderStats(np.zeros(n), 2 * np.eye(n)))
        assert np.allclose(np.linalg.norm(sps.points[1:], axis=1), np.sqrt(3.0))


def test_weights_sum_to_one():
    for dim in (2, 4, 6):
        w_mean, _ = weights(dim)
        assert w_mean.sum() == pytest.approx(1.0)
        assert len(w_mean) == 2 * dim + 1


def _general_ut_weights(dim, alpha=1.0, beta=2.0):
    """The general alpha/beta/kappa unscented weights, at kappa = 3 - dim."""
    lam = alpha**2 * (dim + (3.0 - dim)) - dim
    scale = dim + lam
    w_mean = np.full(2 * dim + 1, 1.0 / (2.0 * scale))
    w_cov = w_mean.copy()
    w_mean[0] = lam / scale
    w_cov[0] = lam / scale + (1.0 - alpha**2 + beta)
    return w_mean, w_cov, np.sqrt(scale)


def test_fixed_weights_are_the_general_rule_bit_for_bit():
    for dim in range(1, 9):
        w_mean, w_cov, spread = _general_ut_weights(dim)
        fixed_mean, fixed_cov = weights(dim)
        assert np.array_equal(fixed_mean, w_mean) and np.array_equal(fixed_cov, w_cov)
        assert SPREAD == spread
    assert SPREAD == np.sqrt(3.0)
    # The phase tracker's weights merged onto its 9 distinct joint points.
    for merged, w in zip((phase._W_MEAN, phase._W_COV), weights(6)):
        assert np.array_equal(merged, np.bincount(phase._DISTINCT_POINT, weights=w))


# --- complex sigma points --------------------------------------------------------


def test_sigma_points_explicit_example():
    # lambda = 1 at composite dimension 2: points {0, +-sqrt(3), +-sqrt(3) j}
    sps = complex_sigma_points(SecondOrderStats(np.zeros(1), [[2.0]]))
    s = np.sqrt(3)
    assert np.allclose(sps.points[:, 0], [0, s, 1j * s, -s, -1j * s])
    assert sps.count == 5


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


# --- the factor route: composite_factor, sample and the complex sigma points ------

FACTOR_ROUTES = {
    "composite_factor": composite_factor,
    "sample": lambda stats: sample(stats, 3, np.random.default_rng(0)),
    "sigma_points": complex_sigma_points,
    "proper_sigma_points": lambda stats: complex_sigma_points(stats, preserve_complementary=False),
}


@pytest.mark.parametrize("route", FACTOR_ROUTES.values(), ids=FACTOR_ROUTES.keys())
@pytest.mark.parametrize(
    "m1, m2, error, match",
    [
        ([[1.0, 0.5], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], ConsistencyError, "M1 is not Hermitian"),
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.3], [0.0, 0.0]], ConsistencyError, "M2 is not symmetric"),
        ([[1.0]], [[1.5]], NotPSDError, None),
    ],
    ids=["non-hermitian-m1", "asymmetric-m2", "excess-complementary"],
)
def test_factor_route_rejects_invalid_statistics(route, m1, m2, error, match):
    stats = SecondOrderStats(np.zeros(len(m1)), m1, m2)
    with pytest.raises(error, match=match):
        route(stats)


def test_factor_route_decomposes_once(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    stats = random_stats(4, 3)
    for call in (lambda: complex_sigma_points(stats), lambda: sample(stats, 5, np.random.default_rng(0))):
        counts.update(eigh=0, eigvalsh=0)
        call()
        assert counts == {"eigh": 1, "eigvalsh": 0}


# --- unscented widely linear filter ----------------------------------------------


def test_linear_collapse_single_step():
    model = random_model(20)
    nl = linearized(model)
    _, meas = simulate_linear(model, 1, substream(20, 0))
    lin = wlckf_run(model, meas)[0]
    init = FilterState(
        AugmentedVector(np.zeros(model.n, complex)), model.Pi0, 0
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


@pytest.mark.parametrize("filter_step", ["wlckf_run", "uwlckf_step"])
def test_wrong_measurement_length_raises(filter_step):
    # Both filters reach the shared update, which checks the shape.
    model = random_model(23)
    state = default_init(model)
    for y in (np.zeros(model.m + 1, complex), np.zeros(model.m - 1, complex), np.zeros((model.m, 1), complex)):
        with pytest.raises(DimensionError):
            if filter_step == "wlckf_run":
                wlckf_run(model, [y], init=state)
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
        AugmentedVector([0j]), AugmentedMatrix([[1.0]], [[1.0]]), 0
    )
    rep = uwlckf_step(init, np.array([np.exp(0.3j) + 0.01]), nl)
    assert abs(rep.state.estimate.top[0].imag) < 1e-9
