from dataclasses import replace

import numpy as np
import pytest

from wlckf.augmented import (
    AugmentedMatrix,
    AugmentedVector,
    augmented_to_real,
    augmented_to_real_matrix,
    real_matrix_to_augmented,
)
from wlckf.errors import DimensionError, UnsupportedModelError
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
        Pi0=AugmentedMatrix([[0.0]], [[0.0]]),
    )
    states, meas = simulate_linear(model, 5, substream(0, 0), x0=[1 + 1j])
    for t in range(6):
        assert states[t] == pytest.approx([(0.5**t) * (1 + 1j)])
    assert meas[:, 0] == pytest.approx(2 * states[1:, 0])


def _step_by_step_simulation(model, horizon, rng, x0=None):
    # Reference: one 2-d @ 1-d product per block and step, as the
    # recursion is written.
    def draw(cov, count):
        return sample(SecondOrderStats(np.zeros(cov.m1.shape[0]), cov.m1, cov.m2), count, rng)

    x0 = draw(model.Pi0, 1)[0] if x0 is None else np.asarray(x0, complex)
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
    x0 = np.arange(n) + 1j
    for i, model in enumerate(models):
        single = simulate_linear(model, 15, substream(60, i))
        assert np.array_equal(states[i], single[0]) and np.array_equal(meas[i], single[1])
        for given in (None, x0):
            single = simulate_linear(model, 15, substream(61, i), x0=given)
            reference = _step_by_step_simulation(model, 15, substream(61, i), x0=given)
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


def test_singular_innovation_flagged_and_handled():
    # Maximally improper measurement noise with a maximally improper state
    # makes the augmented innovation covariance rank deficient.
    model = WidelyLinearModel(
        A=AugmentedMatrix([[0.9]], [[0.0]]),
        B=AugmentedMatrix([[1.0]], [[0.0]]),
        C=AugmentedMatrix([[1.0]], [[0.0]]),
        Q=AugmentedMatrix([[0.3]], [[0.3]]),
        R=AugmentedMatrix([[0.5]], [[0.5]]),
        Pi0=AugmentedMatrix([[1.0]], [[1.0]]),
    )
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
            assert np.array_equal(rep.state.estimate.full(), x[i])
            assert np.array_equal(rep.state.cov.full(), p[i])
            assert np.array_equal(step.mean, mean[i])
            assert np.array_equal(step.cov, cov[i])


def test_ckf_batch_equals_ckf_run_and_checks_every_model():
    models = [proper_model(seed) for seed in range(3)]
    meas = np.stack([simulate_linear(model, 10, substream(8, i))[1] for i, model in enumerate(models)])
    for step, (x, p) in enumerate(ckf_batch(models, meas)):
        for i, model in enumerate(models):
            rep = ckf_run(model, meas[i])[step]
            assert np.array_equal(rep.state.estimate.full(), x[i])
            assert np.array_equal(rep.state.cov.full(), p[i])
    widely_linear = model_from_real(*random_composite(0))
    with pytest.raises(UnsupportedModelError):
        ckf_batch([models[0], widely_linear], meas[:2])
    with pytest.raises(DimensionError):
        next(wlckf_batch([models[0], model_from_real(*random_composite(0, n=1, m=2))], meas[:2]))
