import copy
import gc
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wlckf import augmented, linear, unscented
from wlckf.augmented import (
    AugmentedMatrix,
    AugmentedVector,
    augmented_to_real,
    augmented_to_real_matrix,
    block_conjugate,
    real_matrix_to_augmented,
)
from wlckf.errors import ConsistencyError, DimensionError, UnsupportedModelError
from wlckf.linear import (
    FilterState,
    WidelyLinearModel,
    ckf_batch,
    ckf_run,
    default_init,
    model_from_real,
    real_kf_batch,
    real_kf_run,
    simulate_linear,
    simulate_linear_batch,
    wlckf_batch,
    wlckf_run,
)
from wlckf.mse import ScalarModelParams, variance_after, wl_mmse
from wlckf.stats import SecondOrderStats, sample, substream


def random_composite(seed, n=2, m=2, radius=0.9):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((2 * n, 2 * n))
    e *= radius / max(abs(np.linalg.eigvals(e)))
    f = rng.standard_normal((2 * n, 2 * n))
    g = rng.standard_normal((2 * m, 2 * n))

    def cov(k):
        a = rng.standard_normal((2 * k, 2 * k))
        return a @ a.T / (2 * k) + 0.1 * np.eye(2 * k)

    return e, f, g, cov(n), cov(m), cov(n)


def scalar_model(a=1.0, b=1.0, c=1.0, q=1.0, r=1.0, p0=1.0, p0t=0.0):
    return WidelyLinearModel(
        A=AugmentedMatrix([[a]], [[0.0]]),
        B=AugmentedMatrix([[b]], [[0.0]]),
        C=AugmentedMatrix([[c]], [[0.0]]),
        Q=AugmentedMatrix([[q]], [[0.0]]),
        R=AugmentedMatrix([[r]], [[0.0]]),
        Pi0=AugmentedMatrix([[p0]], [[p0t]]),
    )


def proper_model(seed, n=2, m=2):
    """Strictly-linear-compatible model: zero conjugate blocks, proper noises."""
    rng = np.random.default_rng(seed)

    def cmat(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    a1 = cmat(n, n)
    a1 *= 0.9 / max(abs(np.linalg.eigvals(a1)))

    def pcov(k):
        z = cmat(k, k)
        return z @ z.conj().T / k + 0.1 * np.eye(k)

    zero = np.zeros((n, n), complex)
    return WidelyLinearModel(
        A=AugmentedMatrix(a1, zero),
        B=AugmentedMatrix(cmat(n, n), zero),
        C=AugmentedMatrix(cmat(m, n), np.zeros((m, n), complex)),
        Q=AugmentedMatrix(pcov(n), zero),
        R=AugmentedMatrix(pcov(m), np.zeros((m, m), complex)),
        Pi0=AugmentedMatrix(pcov(n), zero),
    )


def improper_strictly_linear_model(seed, n=2, m=2):
    """Zero conjugate blocks A2, B2, C2 with improper Q, R and Pi0."""
    rng = np.random.default_rng(seed + 1)

    def icov(k):
        z = rng.standard_normal((2 * k, 2 * k))
        return real_matrix_to_augmented(z @ z.T / (2 * k) + 0.1 * np.eye(2 * k), "covariance")

    return replace(proper_model(seed, n, m), Q=icov(n), R=icov(m), Pi0=icov(n))


def run_real_oracle(e, f, g, q, r, pi, measurements):
    meas_real = [np.concatenate([y.real, y.imag]) for y in measurements]
    return real_kf_run(e, f, g, q, r, pi, meas_real)


# --- model construction -------------------------------------------------------


def test_model_from_real_identity():
    model = model_from_real(np.eye(4), np.eye(4), np.eye(4), np.eye(4), np.eye(4), np.eye(4))
    assert np.allclose(model.A.m1, np.eye(2))
    assert np.max(np.abs(model.A.m2)) == 0.0


def test_model_from_real_block_symmetric_gives_zero_conjugate_blocks():
    rng = np.random.default_rng(0)
    e11 = rng.standard_normal((2, 2))
    e12 = rng.standard_normal((2, 2))
    e = np.block([[e11, e12], [-e12, e11]])
    model = model_from_real(e, np.eye(4), np.eye(4), np.eye(4), np.eye(4), np.eye(4))
    assert np.max(np.abs(model.A.m2)) < 1e-14
    assert model.is_strictly_linear(tol=1e-14)


def test_model_from_real_round_trip():
    e, f, g, q, r, pi = random_composite(1)
    model = model_from_real(e, f, g, q, r, pi)
    assert np.max(np.abs(augmented_to_real_matrix(model.A, "system") - e)) < 1e-13
    assert np.max(np.abs(augmented_to_real_matrix(model.Q, "covariance") - q)) < 1e-13


# --- predict ------------------------------------------------------------------


def test_predict_identity_no_noise():
    model = scalar_model(a=1.0, q=0.0)
    # A run reports its first step at the time after its initial state's.
    state = FilterState(AugmentedVector([1 + 1j]), AugmentedMatrix([[2.0]], [[0.5]]), 3)
    rep = wlckf_run(model, [[0j]], init=state)[0]
    pred = rep.predicted
    assert np.allclose(pred.estimate.top, [1 + 1j])
    assert np.allclose(pred.cov.m1, [[2.0]])
    assert (pred.t, rep.state.t) == (4, 4)


def test_predict_scalar_doubling():
    model = scalar_model()
    state = FilterState(AugmentedVector([0j]), AugmentedMatrix([[1.0]], [[0.0]]), 0)
    pred = wlckf_run(model, [[0j]], init=state)[0].predicted
    assert np.allclose(pred.cov.m1, [[2.0]])


def test_predict_matches_real_oracle():
    e, f, g, q, r, pi = random_composite(2)
    model = model_from_real(e, f, g, q, r, pi)
    pred = wlckf_run(model, [np.zeros(model.m, complex)], init=default_init(model))[0].predicted
    ref = e @ pi @ e.T + f @ q @ f.T
    assert np.max(np.abs(augmented_to_real_matrix(pred.cov, "covariance") - ref)) < 1e-12


# --- update -------------------------------------------------------------------


def test_update_uninformative_measurement():
    model = scalar_model(r=1e12)
    rep = wlckf_run(model, [np.array([3 + 1j])], init=default_init(model))[0]
    pred = rep.predicted
    assert np.max(np.abs(rep.gain.m1)) < 1e-10
    assert rep.state.cov.m1 == pytest.approx(pred.cov.m1, rel=1e-9)


def test_update_proper_gain_is_block_diagonal_usual_kf():
    model = proper_model(3)
    y = np.array([0.3 - 0.2j, 1.0 + 0.5j])
    rep = wlckf_run(model, [y], init=default_init(model))[0]
    pred = rep.predicted
    assert np.max(np.abs(rep.gain.m2)) < 1e-12
    p, c1, r1 = pred.cov.m1, model.C.m1, model.R.m1
    usual = p @ c1.conj().T @ np.linalg.inv(c1 @ p @ c1.conj().T + r1)
    assert np.max(np.abs(rep.gain.m1 - usual)) < 1e-10


def test_update_matches_real_oracle():
    e, f, g, q, r, pi = random_composite(4)
    model = model_from_real(e, f, g, q, r, pi)
    _, meas = simulate_linear(model, 1, substream(4, 0))
    rep = wlckf_run(model, meas)[0]
    ref = run_real_oracle(e, f, g, q, r, pi, meas)[0]
    assert np.max(np.abs(augmented_to_real(rep.state.estimate) - ref.mean)) < 1e-10
    assert np.max(np.abs(augmented_to_real_matrix(rep.state.cov, "covariance") - ref.cov)) < 1e-10


# --- runs ---------------------------------------------------------------------


def test_run_zero_measurement_map_follows_lyapunov():
    model = WidelyLinearModel(
        A=AugmentedMatrix([[0.8]], [[0.0]]),
        B=AugmentedMatrix([[1.0]], [[0.0]]),
        C=AugmentedMatrix([[0.0]], [[0.0]]),
        Q=AugmentedMatrix([[0.5]], [[0.0]]),
        R=AugmentedMatrix([[1.0]], [[0.0]]),
        Pi0=AugmentedMatrix([[1.0]], [[0.0]]),
    )
    reports = wlckf_run(model, np.zeros((10, 1), complex))
    p = 1.0
    for rep in reports:
        p = 0.64 * p + 0.5
        assert rep.state.cov.m1[0, 0].real == pytest.approx(p, rel=1e-12)
        assert np.max(np.abs(rep.state.estimate.top)) == 0.0
        assert rep.singular_innovation is False


def test_run_matches_closed_form_mse():
    params = ScalarModelParams(init_var=1.0, init_cvar=0.6)
    model = scalar_model(p0=1.0, p0t=0.6)
    _, meas = simulate_linear(model, 60, substream(5, 0))
    reports = wlckf_run(model, meas)
    for t, rep in enumerate(reports, start=1):
        assert rep.state.cov.m1[0, 0].real == pytest.approx(wl_mmse(params, t), abs=1e-12)


def test_run_long_horizon_matches_real_oracle():
    e, f, g, q, r, pi = random_composite(6)
    model = model_from_real(e, f, g, q, r, pi)
    _, meas = simulate_linear(model, 100, substream(6, 0))
    reports = wlckf_run(model, meas)
    refs = run_real_oracle(e, f, g, q, r, pi, meas)
    worst = 0.0
    for rep, ref in zip(reports, refs):
        est = augmented_to_real(rep.state.estimate)
        cov = augmented_to_real_matrix(rep.state.cov, "covariance")
        worst = max(worst, np.max(np.abs(est - ref.mean)), np.max(np.abs(cov - ref.cov)))
    assert worst < 1e-9


def test_gain_normal_equation_residual():
    e, f, g, q, r, pi = random_composite(8)
    model = model_from_real(e, f, g, q, r, pi)
    _, meas = simulate_linear(model, 20, substream(8, 0))
    # C^H in blocks: [[M1, M2], [M2*, M1*]]^H has blocks M1^H and M2^T.
    c_h = AugmentedMatrix(model.C.m1.conj().T, model.C.m2.T)
    for rep in wlckf_run(model, meas):
        lhs = (rep.gain @ rep.innovation_cov).full()
        rhs = (rep.predicted.cov @ c_h).full()
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_monotone_information_and_psd_ordering():
    e, f, g, q, r, pi = random_composite(9)
    model = model_from_real(e, f, g, q, r, pi)
    _, meas = simulate_linear(model, 30, substream(9, 0))
    for rep in wlckf_run(model, meas):
        assert np.trace(rep.state.cov.m1).real <= np.trace(rep.predicted.cov.m1).real + 1e-12
        gap = rep.predicted.cov.full() - rep.state.cov.full()
        assert np.linalg.eigvalsh(gap)[0] > -1e-10


# --- propriety collapse and orthogonality -------------------------------------


def test_propriety_collapse_wlckf_equals_ckf():
    model = proper_model(10)
    _, meas = simulate_linear(model, 100, substream(10, 0))
    wl = wlckf_run(model, meas)
    sl = ckf_run(model, meas)
    for a, b in zip(wl, sl):
        for block in (a.state.cov.m2, a.innovation_cov.m2, a.gain.m2):
            assert np.max(np.abs(block)) <= 1e-12
        assert np.max(np.abs(a.state.estimate.top - b.state.estimate.top)) <= 1e-12
        assert np.max(np.abs(a.state.cov.m1 - b.state.cov.m1)) <= 1e-12


def test_strictly_linear_residual_orthogonality_under_propriety():
    # The strictly linear gain leaves no residual conjugate correlation when
    # prediction error and innovation are proper: both closed-form terms vanish.
    model = proper_model(11)
    _, meas = simulate_linear(model, 20, substream(11, 0))
    for rep in wlckf_run(model, meas):
        pt = rep.predicted.cov.m2
        p = rep.predicted.cov.m1
        c1 = model.C.m1
        s = rep.innovation_cov.m1
        st_ = rep.innovation_cov.m2
        residual = pt @ c1.T - p @ c1.conj().T @ np.linalg.solve(s, st_)
        assert np.max(np.abs(residual)) <= 1e-12


def test_ckf_rejects_widely_linear_model():
    e, f, g, q, r, pi = random_composite(12)
    model = model_from_real(e, f, g, q, r, pi)
    assert not model.is_strictly_linear(tol=1e-12)
    with pytest.raises(UnsupportedModelError):
        ckf_run(model, np.zeros((3, 2), complex))


def test_ckf_is_real_kf_on_hermitian_blocks_with_improper_noise():
    # Oracle: the textbook real filter on the composite model whose Q, R,
    # Pi0 keep only their Hermitian blocks, built here without proper_part.
    model = improper_strictly_linear_model(20)
    for name in ("Q", "R", "Pi0"):
        assert np.max(np.abs(getattr(model, name).m2)) > 0.05

    def hermitian_part(cov):
        return augmented_to_real_matrix(AugmentedMatrix(cov.m1, np.zeros_like(cov.m1)), "covariance")

    e, f, g = (augmented_to_real_matrix(getattr(model, name), "system") for name in ("A", "B", "C"))
    q, r, pi = (hermitian_part(getattr(model, name)) for name in ("Q", "R", "Pi0"))
    _, meas = simulate_linear(model, 100, substream(20, 0))
    meas_real = [np.concatenate([y.real, y.imag]) for y in meas]
    x0 = np.array([0.5 - 1j, 2j])
    # The initial complementary covariance is ignored as well.
    init = FilterState(AugmentedVector(x0), AugmentedMatrix(model.Pi0.m1, model.Pi0.m2), 0)
    runs = [
        (ckf_run(model, meas), real_kf_run(e, f, g, q, r, pi, meas_real)),
        (
            ckf_run(model, meas, init=init),
            real_kf_run(e, f, g, q, r, pi, meas_real, init_mean=np.concatenate([x0.real, x0.imag])),
        ),
    ]
    for reports, refs in runs:
        assert len(reports) == len(refs) == 100
        for rep, ref in zip(reports, refs):
            est = augmented_to_real(rep.state.estimate)
            cov = augmented_to_real_matrix(rep.state.cov, "covariance")
            assert np.max(np.abs(est - ref.mean)) <= 1e-12 * max(1.0, np.max(np.abs(ref.mean)))
            assert np.max(np.abs(cov - ref.cov)) <= 1e-12 * max(1.0, np.max(np.abs(ref.cov)))


def test_ckf_mse_is_composed_variance_map_with_improper_init():
    # Improper initial state, proper noises: the strictly linear filter's
    # covariance follows the composed scalar map from the Hermitian variance.
    model = scalar_model(p0=1.0, p0t=0.8)
    params = ScalarModelParams(init_var=1.0, init_cvar=0.8)
    _, meas = simulate_linear(model, 40, substream(13, 0))
    for t, rep in enumerate(ckf_run(model, meas), start=1):
        assert rep.state.cov.m1[0, 0].real == pytest.approx(
            float(variance_after(1.0, t, params)), rel=1e-12
        )


# --- real KF ------------------------------------------------------------------


def test_real_kf_single_update_hand_computed():
    # Scalar two-channel identity model, one measurement, hand arithmetic:
    # predict P = Pi + Q = 2I, gain = 2/3, posterior var = 2/3.
    e = f = g = np.eye(2)
    q = np.eye(2)
    r = np.eye(2)
    pi = np.eye(2)
    steps = real_kf_run(e, f, g, q, r, pi, [np.array([1.0, -1.0])])
    assert steps[0].gain == pytest.approx(np.eye(2) * 2 / 3)
    assert steps[0].mean == pytest.approx([2 / 3, -2 / 3])
    assert steps[0].cov == pytest.approx(np.eye(2) * 2 / 3)


def test_real_kf_near_exact_measurements_recover_state():
    e, f, g, q, r, pi = random_composite(14)
    q = q * 1e-12
    r = r * 1e-12
    model = model_from_real(e, f, g, q, r, pi)
    states, meas = simulate_linear(model, 30, substream(14, 0))
    refs = run_real_oracle(e, f, g, q, r, pi, meas)
    true_last = np.concatenate([states[-1].real, states[-1].imag])
    assert np.max(np.abs(refs[-1].mean - true_last)) < 1e-4


# --- simulation ---------------------------------------------------------------


def test_simulate_deterministic_when_noiseless():
    model = WidelyLinearModel(
        A=AugmentedMatrix([[0.5]], [[0.0]]),
        B=AugmentedMatrix([[1.0]], [[0.0]]),
        C=AugmentedMatrix([[2.0]], [[0.0]]),
        Q=AugmentedMatrix([[0.0]], [[0.0]]),
        R=AugmentedMatrix([[0.0]], [[0.0]]),
        Pi0=AugmentedMatrix([[1.0]], [[0.0]]),
    )
    states, meas = simulate_linear(model, 5, substream(0, 0))
    assert states[0, 0] != 0
    for t in range(6):
        assert states[t] == pytest.approx((0.5**t) * states[0])
    assert meas[:, 0] == pytest.approx(2 * states[1:, 0])


def _step_by_step_simulation(model, horizon, rng):
    # Reference: one 2-d @ 1-d product per block and step, as the
    # recursion is written.
    def draw(cov, count):
        return sample(SecondOrderStats(np.zeros(cov.m1.shape[0]), cov.m1, cov.m2), count, rng)

    x0 = draw(model.Pi0, 1)[0]
    ws, ns = draw(model.Q, horizon), draw(model.R, horizon)
    states = [x0]
    measurements = []
    for w, n in zip(ws, ns):
        x = model.A.m1 @ states[-1] + model.A.m2 @ np.conj(states[-1]) + model.B.m1 @ w + model.B.m2 @ np.conj(w)
        states.append(x)
        measurements.append(model.C.m1 @ x + model.C.m2 @ np.conj(x) + n)
    return np.array(states), np.array(measurements)


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("proper", [False, True])
def test_simulate_batch_members_equal_single_runs_bit_for_bit(n, proper):
    make = proper_model if proper else lambda seed, n, m: model_from_real(*random_composite(seed, n, m))
    models = [make(seed, n=n, m=3) for seed in range(3)]
    states, meas = simulate_linear_batch(models, 15, [substream(60, i) for i in range(3)])
    assert states.shape == (3, 16, n) and meas.shape == (3, 15, 3)
    for i, model in enumerate(models):
        single = simulate_linear(model, 15, substream(60, i))
        assert np.array_equal(states[i], single[0]) and np.array_equal(meas[i], single[1])
        single = simulate_linear(model, 15, substream(61, i))
        reference = _step_by_step_simulation(model, 15, substream(61, i))
        assert np.array_equal(single[0], reference[0]) and np.array_equal(single[1], reference[1])


def test_simulate_batch_rejects_mixed_sizes_and_short_horizons():
    models = [proper_model(0), proper_model(1, n=1)]
    rngs = [substream(0, i) for i in range(2)]
    with pytest.raises(DimensionError):
        simulate_linear_batch(models, 5, rngs)
    with pytest.raises(DimensionError):
        simulate_linear_batch(models[:1], 0, rngs[:1])


def test_simulate_long_run_matches_lyapunov_fixed_point():
    model = scalar_model(a=0.7, b=1.0, q=0.5, p0=0.3, p0t=0.1)
    states, _ = simulate_linear(model, 20_000, substream(15, 0))
    # fixed point by iteration on full augmented arrays (the oracle)
    a, b = model.A.full(), model.B.full()
    bqb = b @ model.Q.full() @ b.conj().T
    pbar = model.Pi0.full()
    for _ in range(200):
        pbar = a @ pbar @ a.conj().T + bqb
    x = states[1000:, 0]
    assert np.mean(np.abs(x) ** 2) == pytest.approx(pbar[0, 0].real, rel=0.1)
    assert np.mean(x * x) == pytest.approx(pbar[0, 1], abs=0.1 * abs(pbar[0, 0]))


def test_simulate_maximally_improper_measurement_noise_is_real():
    model = WidelyLinearModel(
        A=AugmentedMatrix([[0.5]], [[0.0]]),
        B=AugmentedMatrix([[1.0]], [[0.0]]),
        C=AugmentedMatrix([[1.0]], [[0.0]]),
        Q=AugmentedMatrix([[0.2]], [[0.0]]),
        R=AugmentedMatrix([[1.0]], [[1.0]]),
        Pi0=AugmentedMatrix([[1.0]], [[0.0]]),
    )
    states, meas = simulate_linear(model, 50, substream(16, 0))
    noise = meas[:, 0] - states[1:, 0]
    assert np.max(np.abs(noise.imag)) < 1e-12


def _singular_model():
    """A scalar model whose augmented innovation covariance is rank deficient at every step.

    Maximally improper measurement noise with a maximally improper state
    makes it so.
    """
    return WidelyLinearModel(
        A=AugmentedMatrix([[0.9]], [[0.0]]),
        B=AugmentedMatrix([[1.0]], [[0.0]]),
        C=AugmentedMatrix([[1.0]], [[0.0]]),
        Q=AugmentedMatrix([[0.3]], [[0.3]]),
        R=AugmentedMatrix([[0.5]], [[0.5]]),
        Pi0=AugmentedMatrix([[1.0]], [[1.0]]),
    )


def test_singular_innovation_flagged_and_handled():
    model = _singular_model()
    meas = np.real(simulate_linear(model, 10, substream(18, 0))[1])
    reports = wlckf_run(model, meas.astype(complex))
    assert all(rep.singular_innovation for rep in reports)
    for rep in reports:
        assert np.all(np.isfinite(rep.state.cov.m1))
        # estimates of a real state stay real
        assert np.max(np.abs(rep.state.estimate.top.imag)) < 1e-10


def test_nonzero_initial_mean_is_supported():
    e, f, g, q, r, pi = random_composite(19)
    model = model_from_real(e, f, g, q, r, pi)
    x0 = np.array([1 + 2j, -0.5j])
    init = FilterState(AugmentedVector(x0), model.Pi0, 0)
    _, meas = simulate_linear(model, 20, substream(19, 0))
    reports = wlckf_run(model, meas, init=init)
    meas_real = [np.concatenate([y.real, y.imag]) for y in meas]
    refs = real_kf_run(e, f, g, q, r, pi, meas_real,
                       init_mean=np.concatenate([x0.real, x0.imag]))
    for rep, ref in zip(reports, refs):
        assert np.max(np.abs(augmented_to_real(rep.state.estimate) - ref.mean)) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)], ids=str)
@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_models_reject_a_non_finite_system_map_by_name_without_warnings(name, bad):
    # Before the check, such a model was built, and wlckf_run on it
    # returned NaN estimates with no error.
    model = model_from_real(*random_composite(4))
    block = getattr(model, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m1, m2 in ((block.m1, np.full_like(block.m2, bad)), (block.m1 + bad, block.m2)):
            with pytest.raises(ConsistencyError, match=f"{name} has non-finite"):
                replace(model, **{name: AugmentedMatrix(m1, m2)})


@pytest.mark.parametrize("index, bad", [(i, np.nan) for i in range(3)] + [(i, np.inf) for i in range(6)], ids=str)
def test_model_from_real_rejects_a_non_finite_entry_without_warnings(index, bad):
    # Before the check, a NaN in E, F or G built a model and an inf in any of
    # the six matrices warned in the lift's matmul; NaN covariances were
    # already rejected.
    real = list(random_composite(4))
    real[index][1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match="non-finite"):
            model_from_real(*real)


def test_covariance_check_rejects_indefinite_model_blocks():
    from wlckf.errors import NotPSDError

    with pytest.raises(NotPSDError):
        WidelyLinearModel(
            A=AugmentedMatrix([[1.0]], [[0.0]]),
            B=AugmentedMatrix([[1.0]], [[0.0]]),
            C=AugmentedMatrix([[1.0]], [[0.0]]),
            Q=AugmentedMatrix([[1.0]], [[1.5]]),  # |complementary| > Hermitian
            R=AugmentedMatrix([[1.0]], [[0.0]]),
            Pi0=AugmentedMatrix([[1.0]], [[0.0]]),
        )


def test_batches_equal_single_runs_member_by_member():
    # Member 1 measures one composite channel twice with R = 0, so its
    # innovation covariance is singular at every step and its gain comes
    # from least squares in both filters; the other members solve.
    reals = []
    for seed in range(4):
        e, f, g, q, r, pi = random_composite(seed)
        if seed == 1:
            g[1] = g[0]
            r = np.zeros_like(r)
        reals.append((e, f, g, q, r, pi))
    models = [model_from_real(*real) for real in reals]
    meas = np.stack([simulate_linear(model, 12, substream(7, i))[1] for i, model in enumerate(models)])
    meas_real = np.concatenate([meas.real, meas.imag], axis=-1)
    wl = list(wlckf_batch(models, meas))
    real = list(real_kf_batch(*(np.stack(arrays) for arrays in zip(*reals)), meas_real))
    for i, (model, real_i) in enumerate(zip(models, reals)):
        reports = wlckf_run(model, meas[i])
        steps = real_kf_run(*real_i, meas_real[i])
        assert [rep.singular_innovation for rep in reports] == [i == 1] * 12
        for rep, step, (x, p), (mean, cov) in zip(reports, steps, wl, real, strict=True):
            assert np.array_equal(rep.state.estimate.top, x[i])
            assert np.array_equal(rep.state.cov.full(), p[i])
            assert np.array_equal(step.mean, mean[i])
            assert np.array_equal(step.cov, cov[i])


def test_ckf_batch_equals_ckf_run_and_checks_every_model():
    models = [proper_model(seed) for seed in range(3)]
    meas = np.stack([simulate_linear(model, 10, substream(8, i))[1] for i, model in enumerate(models)])
    for step, (x, p) in enumerate(ckf_batch(models, meas)):
        for i, model in enumerate(models):
            rep = ckf_run(model, meas[i])[step]
            assert np.array_equal(rep.state.estimate.top, x[i])
            assert np.array_equal(rep.state.cov.full(), p[i])
    widely_linear = model_from_real(*random_composite(0))
    with pytest.raises(UnsupportedModelError):
        ckf_batch([models[0], widely_linear], meas[:2])
    with pytest.raises(DimensionError):
        next(wlckf_batch([models[0], model_from_real(*random_composite(0, n=1, m=2))], meas[:2]))


@pytest.mark.parametrize("run", [wlckf_run, ckf_run], ids=["wlckf_run", "ckf_run"])
def test_run_rejects_a_nan_measurement(run):
    # The gain does not depend on the measurement: a NaN one would leave a NaN
    # estimate beside a finite covariance, so the update stops it.
    model = proper_model(3)
    meas = simulate_linear(model, 6, substream(9, 0))[1]
    meas[-1, 1] = np.nan
    with pytest.raises(ConsistencyError, match="non-finite"):
        run(model, meas)


@pytest.mark.parametrize("batch", [wlckf_batch, ckf_batch], ids=["wlckf_batch", "ckf_batch"])
def test_batch_names_the_member_with_a_nan_measurement(batch):
    models = [proper_model(seed) for seed in range(3)]
    meas = np.stack([simulate_linear(model, 6, substream(10, i))[1] for i, model in enumerate(models)])
    meas[2, -1, 0] = np.nan
    steps = batch(models, meas)
    for _ in range(5):
        next(steps)
    with pytest.raises(ConsistencyError, match="non-finite") as info:
        next(steps)
    assert info.value.index == (2,)


def _shift_model(rows_equal):
    """A composite model whose innovation covariance is singular at known steps.

    The state x2 takes x1's value and the noise drives x1 alone, from a known
    initial state. With ``rows_equal``, both measurement channels read x1
    with noise of variance 1e-15, so S is singular by the 1e-12 rule at
    every step without being exactly singular. Otherwise channel 2 reads x2
    with no noise: at step 1, x2 is still known and S is exactly singular;
    from step 2 on, x2 carries x1's posterior variance and S is regular.
    """
    e = np.array([[0.0, 0.0], [1.0, 0.0]])
    g = np.array([[1.0, 0.0], [1.0, 0.0]]) if rows_equal else np.eye(2)
    r = 1e-15 * np.eye(2) if rows_equal else np.diag([0.5, 0.0])
    return e, np.eye(2), g, np.diag([1.0, 0.0]), r, np.zeros((2, 2))


def _computed_steps(covs):
    """How many steps ran the covariance half: those before the first that yields its predecessor's covariance array."""
    for k in range(1, len(covs)):
        if covs[k] is covs[k - 1]:
            return k
    return len(covs)


def test_real_kf_takes_lstsq_exactly_at_the_singular_steps(monkeypatch):
    horizon = 6
    models = [_shift_model(True), _shift_model(False), random_composite(3, n=1, m=1)]
    meas = np.random.default_rng(9).standard_normal((len(models), horizon, 2))
    expected = [[True] * horizon, [True] + [False] * (horizon - 1), [False] * horizon]
    lstsq = {"calls": 0}

    def counted(*args, _fn=np.linalg.lstsq, **kwargs):
        lstsq["calls"] += 1
        return _fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    singles = []
    for model, ys, flags in zip(models, meas, expected):
        lstsq["calls"] = 0
        steps = real_kf_run(*model, ys)
        sv = np.linalg.svd(np.stack([step.innovation_cov for step in steps]), compute_uv=False)
        assert ((sv[:, 0] == 0) | (sv[:, -1] <= 1e-12 * sv[:, 0])).tolist() == flags
        # Only the steps up to the fixed point solve for a gain.
        computed = _computed_steps([step.cov for step in steps])
        assert lstsq["calls"] == sum(flags[:computed])
        singles.append(steps)
    # The rows_equal model is fixed from step 3, the second from step 2, the third not within the horizon.
    assert [_computed_steps([step.cov for step in steps]) for steps in singles] == [3, 2, horizon]
    lstsq["calls"] = 0
    batch = list(real_kf_batch(*(np.stack(arrays) for arrays in zip(*models)), meas))
    # The stack is fixed only when every member is: not within the horizon.
    assert _computed_steps([cov for _, cov in batch]) == horizon
    assert lstsq["calls"] == sum(map(sum, expected))
    for i, steps in enumerate(singles):
        for step, (mean, cov) in zip(steps, batch, strict=True):
            assert np.array_equal(step.mean, mean[i])
            assert np.array_equal(step.cov, cov[i])


def _real_never_reusing(e, f, g, q, r, pi, measurements):
    """The real filter's textbook loop on one model, covariance half at every step; a reference for the reuse."""
    def mv(a, v):
        return (a @ v[:, None])[:, 0]

    x, p, steps = np.zeros(len(e)), np.asarray(pi, float), []
    for t, psi in enumerate(measurements, start=1):
        x = mv(e, x)
        p = e @ p @ e.T + f @ q @ f.T
        p = (p + p.T) / 2
        s = g @ p @ g.T + r
        s = (s + s.T) / 2
        sv = np.abs(np.linalg.eigvalsh(s))
        if sv.max() == 0 or sv.min() <= 1e-12 * sv.max():
            gain = np.linalg.lstsq(s.T, (p @ g.T).T, rcond=None)[0].T
        else:
            gain = np.linalg.solve(s.T, (p @ g.T).T).T
        nu = psi - mv(g, x)
        x = x + mv(gain, nu)
        i_kg = np.eye(len(e)) - gain @ g
        p = i_kg @ p @ i_kg.T + gain @ r @ gain.T
        p = (p + p.T) / 2
        steps.append(linear.RealKFStep(nu, s, gain, x, p, t))
    return steps


def _stiff_real(index):
    """Model ``index`` of the benchmark's stiff family (seed 0), as composite matrices."""
    from test_stiff_referee import _stiff_model

    return _stiff_model()(0, index)


def _real_measurements(real, horizon, stream):
    ys = simulate_linear(model_from_real(*real), horizon, substream(46, stream))[1]
    return np.concatenate([ys.real, ys.imag], axis=-1)


# Steps that run the covariance half: the stiff family 3 or 4, random_composite(2) 17, random_composite(1) all 120.
@pytest.mark.parametrize("reals, computed", [
    ([_stiff_real(0), _stiff_real(1), _stiff_real(3)], [4, 3, 4]),
    ([random_composite(2), random_composite(5), random_composite(1)], [17, 22, 120]),
], ids=["stiff", "random_composite"])
def test_real_kf_reuse_keeps_the_bits_of_a_loop_that_never_reuses(reals, computed):
    horizon = 120
    meas = np.stack([_real_measurements(real, horizon, i) for i, real in enumerate(reals)])
    fields = ("innovation", "innovation_cov", "gain", "mean", "cov")
    for real, ys, count in zip(reals, meas, computed):
        steps = real_kf_run(*real, ys)
        assert _computed_steps([step.cov for step in steps]) == count
        for got, want in zip(steps, _real_never_reusing(*real, ys), strict=True):
            assert got.t == want.t
            for name in fields:
                assert _same_bits(getattr(got, name), getattr(want, name))
        # The reused arrays are one array each, and read-only; the computed steps' arrays are not.
        for step in steps[count:]:
            for name in ("innovation_cov", "gain", "cov"):
                assert getattr(step, name) is getattr(steps[count - 1], name)
                assert not getattr(step, name).flags.writeable
        assert all(step.cov.flags.writeable for step in steps[: count - 1])
    batch = list(real_kf_batch(*(np.stack(arrays) for arrays in zip(*reals)), meas))
    assert _computed_steps([cov for _, cov in batch]) == max(computed)
    for i, (real, ys) in enumerate(zip(reals, meas)):
        for (mean, cov), want in zip(batch, _real_never_reusing(*real, ys), strict=True):
            assert _same_bits(mean[i], want.mean)
            assert _same_bits(cov[i], want.cov)


def test_real_kf_solves_for_the_gain_only_until_the_fixed_point(monkeypatch):
    calls = {"solve": 0}

    def counted(*args, _fn=np.linalg.solve):
        calls["solve"] += 1
        return _fn(*args)

    real = _stiff_real(0)
    ys = _real_measurements(real, 200, 0)
    monkeypatch.setattr(np.linalg, "solve", counted)
    steps = real_kf_run(*real, ys)
    assert len(steps) == 200
    assert calls["solve"] == 4


# --- the shared kernels: completion and symmetrization, step reports ---------------


def _top_rows(rng, batch, n):
    """Random top block rows [M1, M2]; member 0 is maximally improper (M2 = M1, real) and member 1 a rotated one."""
    top = rng.standard_normal((*batch, n, 2 * n)) + 1j * rng.standard_normal((*batch, n, 2 * n))
    z = rng.standard_normal((n, n))
    real = z @ z.T
    top.reshape(-1, n, 2 * n)[0] = np.concatenate([real, real], axis=1)
    top.reshape(-1, n, 2 * n)[1] = np.concatenate([real + 0j, np.exp(0.7j) * real], axis=1)
    return top


@pytest.mark.parametrize("n", [1, 2, 5])
def test_covariance_is_the_symmetrized_completion_bit_for_bit(n):
    rng = np.random.default_rng(30 + n)
    for batch in ((3,), (2, 4)):
        stack = _top_rows(rng, batch, n)
        # The stack, then each member alone.
        for top in (stack, *stack.reshape(-1, n, 2 * n)):
            full = block_conjugate(top[..., :n], top[..., n:])
            reference = (full + full.conj().swapaxes(-1, -2)) / 2
            assert np.array_equal(linear._covariance(top), reference)


def _report_arrays(rep):
    return [
        rep.predicted.estimate.top, rep.predicted.cov.m1, rep.predicted.cov.m2,
        rep.innovation.top, rep.innovation_cov.m1, rep.innovation_cov.m2,
        rep.gain.m1, rep.gain.m2, rep.state.estimate.top, rep.state.cov.m1, rep.state.cov.m2,
    ]


def _expected_report_arrays(update, n, m):
    """The top halves and blocks of the top block rows of an update's arrays."""
    def pair(top):
        return [top[:, : top.shape[1] // 2], top[:, top.shape[1] // 2 :]]

    return [
        update.x[:n], *pair(update.p[:n]), update.innovation, *pair(update.s[:m]), *pair(update.gain),
        update.x_post[:n], *pair(update.p_post[:n]),
    ]


def _linear_updates(model, steps):
    state = default_init(model)
    meas = simulate_linear(model, steps, substream(31, 0))[1]
    return list(linear._wl_filter(linear._Maps.of(model), state.estimate.top, state.cov.full(), meas))


def _unscented_updates(steps):
    from wlckf import phase

    nl = phase.nonlinear_phase_model(phase.PhaseModel(snr_db=20.0, rho_abs=0.7))
    _, y = phase.simulate_phase(phase.PhaseModel(snr_db=20.0, rho_abs=0.7), steps, substream(31, 1))
    state = FilterState(AugmentedVector(nl.init.mean), nl.init.augmented_cov(), t=0)
    joint = unscented._JointPoints(nl, state)
    x, p = state.estimate.top, unscented._full_covariance(state.cov.m1, state.cov.m2)
    updates = []
    for t, value in enumerate(y, start=1):
        updates.append(unscented._step(joint, x, p, np.array([value]), t))
        x, p = updates[-1].x_post, updates[-1].p_post
    return updates


@pytest.mark.parametrize("kind", ["linear", "unscented"])
def test_reports_copy_the_top_block_rows_and_keep_no_full_array(kind):
    updates = _linear_updates(model_from_real(*random_composite(32, n=2, m=3)), 5) if kind == "linear" else _unscented_updates(5)
    for t, update in enumerate(updates, start=1):
        rep = update.report(t)
        n, m = update.gain.shape[0], update.innovation.shape[0]
        got, want = _report_arrays(rep), _expected_report_arrays(update, n, m)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
        # The report copies every array, the innovation included.
        step_arrays = [update.x, update.p, update.innovation, update.s, update.gain, update.x_post, update.p_post]
        for a in got:
            assert not any(np.shares_memory(a, b) for b in step_arrays)
        # The block pattern holds exactly.
        assert np.array_equal(rep.state.cov.m1, rep.state.cov.m1.conj().T)
        assert np.array_equal(rep.state.cov.m2, rep.state.cov.m2.T)


def _reachable_arrays(obj):
    """The distinct ndarrays reachable from ``obj`` through instances and containers (not through classes)."""
    seen, arrays, stack = set(), [], [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        else:
            stack.extend(gc.get_referents(item))
    return arrays


def _phase_track(steps, seed=0):
    from wlckf import phase

    model = phase.PhaseModel(snr_db=20.0, rho_abs=0.7)
    return phase.nonlinear_phase_model(model), phase.simulate_phase(model, steps, substream(seed, 60_000))[1]


@pytest.mark.parametrize("run", ["wlckf_run", "ckf_run", "uwlckf_run"])
def test_a_report_holds_one_owning_array_and_its_fields_view_it(run):
    if run == "uwlckf_run":
        reports = unscented.uwlckf_run(*_phase_track(4))
    else:
        model = proper_model(33, n=2, m=3)
        meas = simulate_linear(model, 4, substream(33, 0))[1]
        reports = (wlckf_run if run == "wlckf_run" else ckf_run)(model, meas)
    for rep in reports:
        [data] = _reachable_arrays(rep)
        assert data.flags.owndata and data.base is None and data.dtype == complex
        for a in _report_arrays(rep):
            assert a.base is data and a.flags.c_contiguous


def test_a_long_unscented_run_holds_under_a_kilobyte_per_report():
    nl, y = _phase_track(2000)
    unscented.uwlckf_run(nl, y[:3])  # fill the per-size caches outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = unscented.uwlckf_run(nl, y)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(reports) == 2000
    assert held / len(reports) <= 1024


def test_reports_survive_pickle_and_deepcopy_and_refuse_assignment():
    model = model_from_real(*random_composite(34, n=2, m=3))
    reports = wlckf_run(model, simulate_linear(model, 3, substream(34, 0))[1], init=replace(default_init(model), t=6))
    singular = _singular_model()
    reports += wlckf_run(singular, np.real(simulate_linear(singular, 2, substream(34, 1))[1]))
    nl, y = _phase_track(2)
    reports.append(unscented.uwlckf_step(FilterState(AugmentedVector(nl.init.mean), nl.init.augmented_cov(), t=3), y[:1], nl))
    assert [rep.singular_innovation for rep in reports] == [False] * 3 + [True] * 2 + [False]
    for rep in reports:
        for other in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert (other.t, other.singular_innovation) == (rep.t, rep.singular_innovation)
            assert (other.predicted.t, other.state.t) == (rep.t, rep.t)
            for a, b in zip(_report_arrays(other), _report_arrays(rep), strict=True):
                assert np.array_equal(a, b) and not np.shares_memory(a, b)
        for field in ("predicted", "innovation", "innovation_cov", "gain", "state", "t", "singular_innovation"):
            with pytest.raises(AttributeError):
                setattr(rep, field, getattr(rep, field))
    assert [rep.t for rep in reports] == [7, 8, 9, 1, 2, 4]
    with pytest.raises(DimensionError):
        linear.StepReport(np.zeros(12, complex), 1, 1, 1)


def test_unscented_step_takes_a_scalar_for_one_measurement():
    nl, y = _phase_track(3)
    state = FilterState(AugmentedVector(nl.init.mean), nl.init.augmented_cov(), t=2)
    want = _report_arrays(unscented.uwlckf_step(state, y[:1], nl))
    for scalar in (y[0], complex(y[0]), [y[0]]):
        got = _report_arrays(unscented.uwlckf_step(state, scalar, nl))
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)
    with pytest.raises(DimensionError):
        unscented.uwlckf_step(state, y[:2], nl)


@pytest.mark.parametrize("run", ["wlckf_run", "ckf_run", "uwlckf_run"])
def test_runs_take_a_sequence_of_scalars_for_one_measurement(run):
    if run == "uwlckf_run":
        model, column = _phase_track(6)
        column = column[:, None]
        filt = unscented.uwlckf_run
    else:
        model = proper_model(35, n=2, m=1)
        column = simulate_linear(model, 6, substream(35, 0))[1]
        filt = wlckf_run if run == "wlckf_run" else ckf_run
    want = filt(model, column)
    for scalars in (column[:, 0], list(column[:, 0]), [complex(v) for v in column[:, 0]], iter(column[:, 0])):
        got = filt(model, scalars)
        assert len(got) == len(want) == 6
        for a, b in zip(got, want):
            for x, y in zip(_report_arrays(a), _report_arrays(b), strict=True):
                assert np.array_equal(x, y)
    with pytest.raises(DimensionError):
        filt(model, [column[0], np.concatenate([column[1], column[1]])])


# --- reuse of the covariance recursion's fixed point ----------------------------


def _stiff(index):
    """Model ``index`` of the benchmark's stiff family (seed 0), as a widely linear model."""
    return model_from_real(*_stiff_real(index))


def _never_skipping(model, measurements, init=None):
    """The updates of a loop that runs the covariance half and the estimate half at every step, and never reuses."""
    state = init if init is not None else default_init(model)
    maps = linear._Maps.of(model)
    x, p = state.estimate.top, state.cov.full()
    updates = []
    for t, y in enumerate(linear._measurement_rows(measurements), start=state.t + 1):
        p_pred, s, gain, p_post, singular = linear._covariance_step(p, maps, t)
        x_pred = linear._matvec(maps.a_top, linear._expand(x))
        innovation, x = linear.wl_estimate(x_pred, y, linear._matvec(maps.c_top, linear._expand(x_pred)), gain)
        updates.append(linear.WLUpdate(x_pred, p_pred, innovation, s, gain, x, p_post, singular))
        p = p_post
    return updates


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _fixed_from(updates):
    """The first step whose update reuses the previous step's posterior covariance, or None."""
    for k in range(1, len(updates)):
        if updates[k].p_post is updates[k - 1].p_post:
            return k + 1
    return None


def _assert_reports_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.t, a.singular_innovation) == (b.t, b.singular_innovation)
        assert _same_bits(a._data, b._data)


# Steps at which the reuse starts: the stiff family at 5, random_composite(1)
# at 71 and random_composite(0), an improper n = 2 draw, not within 100.
@pytest.mark.parametrize("model, fixed_from", [
    (_stiff(0), 5), (_stiff(3), 5), (model_from_real(*random_composite(1)), 71), (model_from_real(*random_composite(0)), None),
], ids=["stiff-0", "stiff-3", "late", "never"])
def test_reuse_keeps_the_bits_of_a_run_that_never_skips(model, fixed_from):
    horizon = 100
    meas = simulate_linear(model, horizon, substream(40, 0))[1]
    state = default_init(model)
    updates = list(linear._wl_filter(linear._Maps.of(model), state.estimate.top, state.cov.full(), meas))
    assert _fixed_from(updates) == fixed_from
    reference = _never_skipping(model, meas)
    for got, want in zip(updates, reference, strict=True):
        for a, b in zip(got, want, strict=True):
            assert _same_bits(np.asarray(a), np.asarray(b))
    _assert_reports_equal(wlckf_run(model, meas), [u.report(t) for t, u in enumerate(reference, start=1)])
    # From a state at t0 = 3 the recursion starts elsewhere, and the reports keep their times.
    init = FilterState(AugmentedVector(np.full(model.n, 0.5 + 0.25j)), AugmentedMatrix(2 * model.Pi0.m1, model.Pi0.m2), t=3)
    want = [u.report(t) for t, u in enumerate(_never_skipping(model, meas, init), start=4)]
    _assert_reports_equal(wlckf_run(model, meas, init), want)


@pytest.mark.parametrize("batch", [wlckf_batch, ckf_batch], ids=["wlckf_batch", "ckf_batch"])
def test_batch_members_keep_their_bits_when_they_fix_at_different_steps(batch):
    # Members that fix at steps 12, 20 and 23 alone: the stack reuses from step 23 on.
    models = [proper_model(seed) for seed in (6, 3, 2)]
    horizon = 40
    meas = np.stack([simulate_linear(model, horizon, substream(41, i))[1] for i, model in enumerate(models)])
    run_models = models if batch is wlckf_batch else [model.proper_part() for model in models]
    singles = [_never_skipping(model, ys) for model, ys in zip(run_models, meas)]
    assert [_fixed_from(list(linear._wl_filter(linear._Maps.of(model), np.zeros(2, complex), model.Pi0.full(), ys)))
            for model, ys in zip(run_models, meas)] == [12, 20, 23]
    steps = list(batch(models, meas))
    assert [k for k in range(1, horizon) if steps[k][1] is steps[k - 1][1]][0] == 22
    for step, (x, p) in enumerate(steps):
        for i, single in enumerate(singles):
            assert _same_bits(x[i], single[step].x_post)
            assert _same_bits(p[i], single[step].p_post)


def test_reuse_solves_for_the_gain_only_until_the_fixed_point(monkeypatch):
    calls = {"solve_right": 0}

    def counted(*args, _fn=augmented.solve_right):
        calls["solve_right"] += 1
        return _fn(*args)

    monkeypatch.setattr(augmented, "solve_right", counted)
    model = _stiff(0)
    reports = wlckf_run(model, simulate_linear(model, 200, substream(42, 0))[1])
    assert len(reports) == 200
    assert calls["solve_right"] == 4


def test_measurement_checks_hold_after_the_fixed_point():
    model = _stiff(1)
    meas = simulate_linear(model, 200, substream(43, 0))[1]
    bad = meas.copy()
    bad[150, 1] = np.nan
    with pytest.raises(ConsistencyError, match="measurement has non-finite entries"):
        wlckf_run(model, bad)
    state = default_init(model)
    rows = list(meas)
    rows[150] = np.concatenate([rows[150], rows[150]])
    steps = linear._wl_filter(linear._Maps.of(model), state.estimate.top, state.cov.full(), rows)
    updates = [next(steps) for _ in range(150)]
    assert _fixed_from(updates) == 5
    with pytest.raises(DimensionError):
        next(steps)


def test_yielded_posteriors_are_read_only_and_the_reused_covariance_is_one_array():
    models = [_stiff(2), _stiff(4)]
    meas = np.stack([simulate_linear(model, 12, substream(44, i))[1] for i, model in enumerate(models)])
    steps = list(wlckf_batch(models, meas))
    # The stack is fixed at step 4: every later step yields its covariance again.
    assert all(p is steps[3][1] for _, p in steps[3:])
    for x, p in (steps[0], steps[-1]):
        with pytest.raises(ValueError, match="read-only"):
            p[0, 0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0


def _overflowing(scale=1e200):
    """A scalar model whose predicted covariance overflows at step 1: A = scale I."""
    eye = np.eye(2)
    return model_from_real(scale * eye, eye, eye, eye, eye, eye)


@pytest.mark.parametrize("run", [wlckf_run, ckf_run], ids=["wlckf_run", "ckf_run"])
def test_a_non_finite_covariance_raises_and_no_warning_escapes(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match="t = 1 has non-finite"):
            run(_overflowing(), np.zeros((3, 1)))
        # The initial state's time names the step.
        with pytest.raises(ConsistencyError, match="t = 8 has non-finite"):
            run(_overflowing(), np.zeros((3, 1)), replace(default_init(_overflowing()), t=7))


@pytest.mark.parametrize("batch", [wlckf_batch, ckf_batch], ids=["wlckf_batch", "ckf_batch"])
def test_a_batch_names_the_member_whose_covariance_is_not_finite(batch):
    models = [_overflowing(0.5), _overflowing(0.5), _overflowing()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match="t = 1 has non-finite") as info:
            next(batch(models, np.zeros((3, 4, 1))))
    assert info.value.index == (2,)


def test_an_overflowing_estimate_after_the_fixed_point_raises_and_no_warning_escapes():
    # C = I and R = 0: the posterior covariance is 0 from step 1, so the
    # recursion is fixed from step 2; the estimate then overflows at step 7.
    eye = np.eye(2)
    model = model_from_real(eye, eye, eye, eye, np.zeros((2, 2)), eye)
    meas = np.zeros((10, 1), complex)
    meas[5], meas[6] = 1.7e308, -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(wlckf_run(model, meas[:6])) == 6
        with pytest.raises(ConsistencyError, match="posterior at t = 7 has non-finite"):
            wlckf_run(model, meas)


def test_the_batch_generators_leave_the_floating_point_settings_alone():
    models = [proper_model(seed) for seed in range(2)]
    meas = np.stack([simulate_linear(model, 5, substream(45, i))[1] for i, model in enumerate(models)])
    settings = np.geterr()
    for batch in (wlckf_batch, ckf_batch):
        for _ in batch(models, meas):
            assert np.geterr() == settings
            with pytest.raises(RuntimeWarning):
                np.float64(1e308) * 10


def _eye_blocks(rows, cols):
    return AugmentedMatrix(np.eye(rows, cols), np.zeros((rows, cols)))


# Block shapes of a model with two states, one driving noise and one measurement.
_SHAPES = {"A": (2, 2), "B": (2, 1), "C": (1, 2), "Q": (1, 1), "R": (1, 1), "Pi0": (2, 2)}


def _model_with(**shapes):
    return WidelyLinearModel(**{name: _eye_blocks(*shapes.get(name, shape)) for name, shape in _SHAPES.items()})


@pytest.mark.parametrize("call, error", [
    (lambda: _model_with(A=(2, 3)), DimensionError),
    (lambda: _model_with(B=(3, 1)), DimensionError),
    (lambda: _model_with(C=(1, 3)), DimensionError),
    (lambda: _model_with(Q=(2, 2)), DimensionError),
    (lambda: _model_with(R=(2, 2)), DimensionError),
    (lambda: _model_with(Pi0=(3, 3)), DimensionError),
    (lambda: wlckf_run(_model_with(), np.zeros((1, 1)), FilterState(AugmentedVector(np.zeros(3)), _eye_blocks(3, 3))),
     DimensionError),
    (lambda: real_kf_run(np.eye(2), np.eye(2), np.eye(2, 3), np.eye(2), np.eye(2), np.eye(2), np.zeros((1, 2))),
     DimensionError),
], ids=["A-square", "B-rows", "C-columns", "Q-noise-gain", "R-measurement", "Pi0-state", "run-init-state",
        "real-kf-dimensions"])
def test_named_input_errors(call, error):
    _model_with()  # the shapes of _SHAPES make a model; each case breaks one
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
