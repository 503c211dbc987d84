import warnings

import numpy as np
import pytest

from wlckf import phase, unscented
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
    "mean, m1, m2, error, match",
    [
        (None, [[1.0, 0.5], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], ConsistencyError, "M1 is not Hermitian"),
        (None, [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.3], [0.0, 0.0]], ConsistencyError, "M2 is not symmetric"),
        (None, [[1.0]], [[1.5]], NotPSDError, None),
        # A NaN eigenvalue passes both the PSD test and the flush, so it must be stopped before them.
        (None, [[np.nan, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], ConsistencyError, "non-finite"),
        (None, [[np.inf, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], ConsistencyError, "non-finite"),
        (None, [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, np.nan]], ConsistencyError, "non-finite"),
        ([0.0, np.nan], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], ConsistencyError, "mean has non-finite"),
        ([complex(0, np.inf)], [[1.0]], [[0.0]], ConsistencyError, "mean has non-finite"),
    ],
    ids=["non-hermitian-m1", "asymmetric-m2", "excess-complementary", "nan-m1", "inf-m1", "nan-m2", "nan-mean",
         "inf-mean"],
)
def test_factor_route_rejects_invalid_statistics(route, mean, m1, m2, error, match):
    stats = SecondOrderStats(np.zeros(len(m1)) if mean is None else mean, m1, m2)
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


@pytest.mark.parametrize("filter_step", ["wlckf_run", "uwlckf_step", "uwlckf_run"])
def test_wrong_measurement_length_raises(filter_step):
    # Both filters reach the shared update, which checks the shape; the
    # unscented run converts its sequence first, and a ragged one fails there.
    model = random_model(23)
    state = default_init(model)
    for y in (np.zeros(model.m + 1, complex), np.zeros(model.m - 1, complex), np.zeros((model.m, 1), complex)):
        with pytest.raises(DimensionError):
            if filter_step == "wlckf_run":
                wlckf_run(model, [y], init=state)
            elif filter_step == "uwlckf_step":
                uwlckf_step(state, y, linearized(model))
            else:
                uwlckf_run(linearized(model), [np.zeros(model.m, complex), y])
        if filter_step == "uwlckf_run":
            with pytest.raises(DimensionError):
                uwlckf_run(linearized(model), [y, y])


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


def _report_arrays(rep):
    return [
        rep.predicted.estimate.top, rep.predicted.cov.m1, rep.predicted.cov.m2,
        rep.innovation.top, rep.innovation_cov.m1, rep.innovation_cov.m2,
        rep.gain.m1, rep.gain.m2, rep.state.estimate.top, rep.state.cov.m1, rep.state.cov.m2,
    ]


def _phase_track(horizon):
    pm = phase.PhaseModel(snr_db=20.0, rho_abs=0.7)
    _, y = phase.simulate_phase(pm, horizon, substream(4, 60_000))
    return phase.nonlinear_phase_model(pm), y


def _linearized_track(horizon):
    model = random_model(21)
    _, meas = simulate_linear(model, horizon, substream(21, 0))
    return linearized(model), meas


@pytest.mark.parametrize(
    "track", [lambda: _phase_track(500), lambda: _linearized_track(50)], ids=["phase", "linearized"]
)
def test_run_equals_a_loop_of_steps_bit_for_bit(track):
    # The run forms the joint statistics once and overwrites the state blocks; each step builds its own.
    nl, meas = track()
    reports = uwlckf_run(nl, meas)
    state = FilterState(AugmentedVector(nl.init.mean), nl.init.augmented_cov(), t=0)
    for rep, y in zip(reports, meas):
        alone = uwlckf_step(state, np.atleast_1d(np.asarray(y, complex)), nl)
        assert alone.state.t == rep.state.t
        assert alone.singular_innovation == rep.singular_innovation
        for a, b in zip(_report_arrays(alone), _report_arrays(rep)):
            assert np.array_equal(a, b)
        state = alone.state
    assert len(reports) == len(meas)


def test_long_run_agrees_with_the_batched_tracker():
    # The benchmark's 2000-step track. The two filters build the same sigma
    # points and moments by different routes, so they agree to rounding,
    # within the benchmark's bound of 1e-9 relative to max(1, |x|).
    pm = phase.PhaseModel(snr_db=20.0, rho_abs=0.7)
    _, y = phase.simulate_phase(pm, 2000, substream(0, 60_000))
    reports = uwlckf_run(phase.nonlinear_phase_model(pm), y)
    track = phase.run_tracker(pm, y, "uwlckf")
    got = np.array([[rep.state.estimate.top[0].real, rep.state.cov.m1[0, 0].real] for rep in reports])
    want = np.stack([track.estimates, track.variances], axis=1)
    assert got.shape == want.shape == (2000, 2)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-9


# --- the filter's joint points, block by block -------------------------------------


def _joint_stats(*parts):
    """Statistics of the stacked independent vectors ``parts``."""
    return SecondOrderStats(
        np.concatenate([p.mean for p in parts]),
        unscented._block_diag(*(p.hermitian_cov for p in parts)),
        unscented._block_diag(*(p.complementary_cov for p in parts)),
    )


def _filter_state(stats):
    return FilterState(AugmentedVector(stats.mean), stats.augmented_cov(), t=0)


def _fill_args(state):
    """The estimate top half and full covariance that the filter's steps hand to ``_JointPoints.fill``."""
    return state.estimate.top, unscented._full_covariance(state.cov.m1, state.cov.m2)


def _block_points(state_stats, drive, meas):
    """The filter's sigma-point set for the joint of ``state_stats``, ``drive`` and ``meas``."""
    model = NonlinearModel(f=None, h=None, drive_noise=drive, meas_noise=meas, init=state_stats)
    state = _filter_state(state_stats)
    joint = unscented._JointPoints(model, state)
    return SigmaPointSet(joint.fill(*_fill_args(state)).copy(), joint.w_mean, joint.w_cov)


def _scalar_stats(mean, var, cvar):
    return SecondOrderStats([mean], [[var]], [[cvar]])


# (state, drive noise, measurement noise); each composite block has distinct eigenvalues.
DISTINCT_JOINTS = {
    "random": lambda: (random_stats(40, 2), random_stats(41, 1), random_stats(42, 3)),
    "scaled-blocks": lambda: (random_stats(43, 1), _scalar_stats(0.5j, 7.0, 2.0), _scalar_stats(-1.0, 0.03, 0.01j)),
    # The noise axes fall below 1e-13 of the state's largest eigenvalue: the joint flushes them.
    "noise-flushed-by-the-state": lambda: (
        _scalar_stats(1.0, 4e14, 1e14), _scalar_stats(0.0, 3.0, 1.0), _scalar_stats(2j, 2.0, -0.5j)
    ),
}


@pytest.mark.parametrize("parts", DISTINCT_JOINTS.values(), ids=DISTINCT_JOINTS.keys())
def test_block_points_are_the_joint_points(parts):
    state, drive, meas = parts()
    ours = _block_points(state, drive, meas)
    ref = complex_sigma_points(_joint_stats(state, drive, meas))
    assert ours.points.shape == ref.points.shape
    assert np.array_equal(ours.w_mean, ref.w_mean) and np.array_equal(ours.w_cov, ref.w_cov)
    tol = 1e-14 * np.abs(ref.points).max()
    assert np.max(np.abs(ours.points[0] - ref.points[0])) <= tol
    # Every other point weighs the same: match them as multisets, each to the nearest one left.
    left = list(ref.points[1:])
    for point in ours.points[1:]:
        dist = [np.abs(point - other).max() for other in left]
        assert min(dist) <= tol
        left.pop(int(np.argmin(dist)))


# (state, drive noise, measurement noise) whose joint needs the union rule or has a repeated eigenvalue.
MOMENT_JOINTS = {
    # Proper unit-variance state and drive: eigenvalue 1/2 four times, across two blocks.
    "shared-eigenvalue": lambda: (
        SecondOrderStats([0.3, -1j], np.eye(2), np.zeros((2, 2))), _scalar_stats(0.0, 1.0, 0.0),
        _scalar_stats(1.0, 0.5, 0.2),
    ),
    "maximally-improper-state": lambda: (
        _scalar_stats(0.2, 2.0, 2.0 * np.exp(0.7j)), random_stats(44, 1), random_stats(45, 2)
    ),
    # The measurement noise's second composite eigenvalue, 5e-16 of its first, is flushed.
    "flushed-noise-axis": lambda: (
        random_stats(46, 2), _scalar_stats(0.0, 1.0, 1.0j), _scalar_stats(0.5, 1.0, 1.0 - 1e-15)
    ),
    "noise-flushed-by-the-state": DISTINCT_JOINTS["noise-flushed-by-the-state"],
}


@pytest.mark.parametrize("parts", MOMENT_JOINTS.values(), ids=MOMENT_JOINTS.keys())
def test_block_points_carry_the_joint_moments(parts):
    state, drive, meas = parts()
    joint = _joint_stats(state, drive, meas)
    ours = _block_points(state, drive, meas)
    rec = reconstruct_stats(ours)
    ref = reconstruct_stats(complex_sigma_points(joint))
    scale = np.abs(joint.hermitian_cov).max()
    # The weighted mean cancels points as far out as the largest.
    mean_scale = max(1.0, np.abs(ours.points).max())
    for got in (joint, ref):
        assert np.max(np.abs(rec.mean - got.mean)) <= 1e-14 * mean_scale
        assert np.max(np.abs(rec.hermitian_cov - got.hermitian_cov)) <= 1e-14 * scale
        assert np.max(np.abs(rec.complementary_cov - got.complementary_cov)) <= 1e-14 * scale


def test_block_points_refill_the_noise_rows_when_the_flush_changes():
    big, drive, meas = DISTINCT_JOINTS["noise-flushed-by-the-state"]()
    small = _scalar_stats(-0.5, 1.0, 0.3)
    model = NonlinearModel(f=None, h=None, drive_noise=drive, meas_noise=meas, init=small)
    joint = unscented._JointPoints(model, _filter_state(small))
    fresh = joint.fill(*_fill_args(_filter_state(small))).copy()
    assert np.ptp(fresh[:, 1:].real) > 0
    flushed = joint.fill(*_fill_args(_filter_state(big))).copy()
    assert np.array_equal(flushed[:, 1:], np.broadcast_to(flushed[0, 1:], flushed[:, 1:].shape))
    assert np.array_equal(joint.fill(*_fill_args(_filter_state(small))), fresh)


def _shapes_model():
    """A two-state model with a scalar drive and three measurements, so the state and noise blocks differ in size."""
    c = np.array([[1.0, 0.5j], [0.2, -1.0], [0.3 + 0.1j, 0.4]])
    return NonlinearModel(
        f=lambda x, w: 0.9 * x + 0.1 * np.conj(x) + w,
        h=lambda x, n: np.sin(x) @ c.T + n,
        drive_noise=random_stats(47, 1),
        meas_noise=random_stats(48, 3),
        init=random_stats(49, 2),
    )


def test_run_decomposes_the_noises_once_and_the_state_once_per_step(monkeypatch):
    shapes = []

    def counted(a, *args, _original=np.linalg.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    model = _shapes_model()
    reports = uwlckf_run(model, np.zeros((50, 3)))
    assert len(reports) == 50
    assert shapes == [(8, 8)] + [(4, 4)] * 50


def test_indefinite_drive_noise_fails_before_the_first_step():
    calls = []
    model = _shapes_model()
    f = model.f
    model.f = lambda x, w: calls.append(1) or f(x, w)
    model.drive_noise = _scalar_stats(0.0, 1.0, 1.5)
    for measurements in (np.zeros((3, 3)), np.zeros((0, 3))):
        with pytest.raises(NotPSDError):
            uwlckf_run(model, measurements)
    assert calls == []


def test_indefinite_state_fails_the_step():
    model = _shapes_model()
    indefinite = FilterState(AugmentedVector(np.zeros(2)), AugmentedMatrix(np.eye(2), 1.5 * np.eye(2)))
    with pytest.raises(NotPSDError):
        uwlckf_step(indefinite, np.zeros(3), model)


def _phase_model():
    return phase.nonlinear_phase_model(phase.PhaseModel(snr_db=20.0, rho_abs=0.7))


@pytest.mark.parametrize(
    "field, value",
    [("init", _scalar_stats(0.0, np.nan, 0.0)), ("init", _scalar_stats(np.nan, 1.0, 0.0)),
     ("drive_noise", _scalar_stats(0.0, np.inf, 0.0)), ("meas_noise", _scalar_stats(0.0, 1.0, np.nan))],
    ids=["nan-initial-variance", "nan-initial-mean", "inf-drive-variance", "nan-measurement-complementary"],
)
def test_run_rejects_non_finite_statistics(field, value):
    model = _phase_model()
    setattr(model, field, value)
    with pytest.raises(ConsistencyError, match="non-finite"):
        uwlckf_run(model, np.ones(4, complex))


@pytest.mark.parametrize("field", ["init", "drive_noise", "meas_noise"])
@pytest.mark.parametrize(
    "bad", [(np.nan, 1.0, 0.0), (0.0, np.inf, 0.0), (0.0, 1.0, complex(0.0, np.nan))], ids=["mean", "variance", "cvar"]
)
def test_model_rejects_non_finite_statistics_when_built(field, bad):
    stats = {"init": _scalar_stats(0.0, 1.0, 0.5), "drive_noise": _scalar_stats(0.0, 1.0, 1.0),
             "meas_noise": _scalar_stats(0.0, 0.1, 0.05)}
    stats[field] = _scalar_stats(*bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match=f"^{field} has non-finite entries"):
            NonlinearModel(f=None, h=None, **stats)


def test_run_rejects_a_nan_last_measurement():
    # No step follows the last one to find the NaN estimate it would leave.
    y = np.ones(5, complex)
    y[-1] = np.nan
    with pytest.raises(ConsistencyError, match="non-finite"):
        uwlckf_run(_phase_model(), y)


def test_step_rejects_an_infinite_measurement():
    model = _phase_model()
    state = FilterState(AugmentedVector(model.init.mean), model.init.augmented_cov(), t=0)
    with pytest.raises(ConsistencyError, match="non-finite"):
        uwlckf_step(state, np.array([complex(np.inf, 0.0)]), model)


def test_run_rejects_the_state_a_nan_measurement_leaves():
    # The gain does not depend on the measurement: a NaN one leaves a finite
    # covariance and a NaN estimate, which the next step stops.
    y = np.ones(5, complex)
    y[1] = np.nan
    with pytest.raises(ConsistencyError, match="non-finite"):
        uwlckf_run(_phase_model(), y)
