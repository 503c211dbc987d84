import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlckf import mse
from wlckf.augmented import AugmentedMatrix
from wlckf.errors import ConsistencyError, DegenerateError, DimensionError, NotPSDError
from wlckf.linear import WidelyLinearModel, ckf_batch, simulate_linear_batch, wlckf_batch, wlckf_run
from wlckf.mse import (
    AGREE,
    ON_CIRCLE,
    ScalarModelParams,
    _inv2,
    db_to_linear,
    min_mmse_ratio,
    min_mmse_ratio_bounds,
    min_mmse_ratio_sweep,
    min_wl_mmse,
    noise_impropriety_gain,
    noise_impropriety_gains,
    sl_mmse,
    steady_state_gains,
    variance_after,
    variance_step,
    wl_mmse,
)
from wlckf.stats import substream

UNIT = ScalarModelParams()


def test_variance_step_unit_example():
    assert variance_step(1.0, 1, UNIT) == pytest.approx(2 / 3)


def test_variance_step_perfect_measurements():
    params = ScalarModelParams(meas_var=0.0)
    for lam in (0.0, 0.5, 3.0, 100.0):
        assert variance_step(lam, 1, params) == 0.0


def test_variance_step_saturates():
    params = ScalarModelParams(c=2.0, meas_var=3.0)
    assert variance_step(1e12, 1, params) == pytest.approx(3.0 / 4.0, rel=1e-6)


def test_variance_step_accepts_sequences():
    params = ScalarModelParams(a=[1.0, 2.0], b=[1.0, 0.5], c=[1.0, 1.0])
    assert variance_step(1.0, 1, params) == pytest.approx(2 / 3)
    assert variance_step(1.0, 2, params) == pytest.approx((4 + 0.25) / (4 + 0.25 + 1))


def test_coefficient_sequences_reject_steps_they_do_not_hold():
    params = ScalarModelParams(a=[1.0, 2.0], b=[1.0, 0.5], c=[1.0, 1.0])
    for call in (lambda: variance_step(1.0, 0, params), lambda: variance_after(1.0, 3, params),
                 lambda: wl_mmse(params, 3)):
        with pytest.raises(DimensionError, match="coefficient sequence of length 2"):
            call()
    # Scalar coefficients hold at every step.
    assert variance_step(1.0, 0, UNIT) == variance_step(1.0, 1, UNIT)


def test_variance_after_single_step():
    assert variance_after(1.0, 1, UNIT) == variance_step(1.0, 1, UNIT)


def test_variance_after_monotone_in_initial_value():
    grid = np.linspace(0, 5, 41)
    vals = variance_after(grid, 7, UNIT)
    assert np.all(np.diff(vals) > 0)


def test_variance_after_midpoint_concavity():
    grid = np.linspace(0, 4, 21)
    for t in (1, 3, 8):
        vals = variance_after(grid, t, UNIT)
        mids = variance_after((grid[:-1] + grid[1:]) / 2, t, UNIT)
        assert np.all(mids >= (vals[:-1] + vals[1:]) / 2 - 1e-12)


def test_wl_mmse_collapses_when_proper():
    params = ScalarModelParams(init_var=2.0, init_cvar=0.0)
    for t in (1, 5, 20):
        assert wl_mmse(params, t) == sl_mmse(params, t)


def test_wl_mmse_minimum_at_maximally_improper():
    p_max = ScalarModelParams(init_var=1.0, init_cvar=1.0)
    for t in (1, 4, 16):
        assert wl_mmse(p_max, t) == pytest.approx(min_wl_mmse(UNIT, t))
        # any intermediate impropriety does no better
        for cv in (0.0, 0.3, 0.7, 0.9):
            other = ScalarModelParams(init_var=1.0, init_cvar=cv)
            assert wl_mmse(other, t) >= min_wl_mmse(UNIT, t) - 1e-12


def test_min_mmse_ratio_bounds_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(300):
        params = ScalarModelParams(
            a=complex(rng.normal(), rng.normal()),
            b=complex(rng.normal(), rng.normal()),
            c=complex(rng.normal(), rng.normal()) + 0.1,
            drive_var=10.0 ** rng.uniform(-5, 2),
            meas_var=10.0 ** rng.uniform(-5, 2),
            init_var=10.0 ** rng.uniform(-2, 2),
        )
        t = int(rng.integers(1, 30))
        assert 0.5 - 1e-12 <= min_mmse_ratio(params, t) <= 1 + 1e-12


def test_min_mmse_ratio_lower_bound_regime():
    params = ScalarModelParams(drive_var=1e-6, meas_var=1e-3)
    trajectory = [min_mmse_ratio(params, t) for t in range(1, 21)]
    assert min(trajectory) < 0.55
    assert trajectory[0] == pytest.approx(0.5, abs=1e-2)


def test_min_mmse_ratio_useless_measurements():
    # Very large measurement noise: numerically the ratio sits inside the
    # bounds; record the value instead of asserting a limit.
    params = ScalarModelParams(meas_var=1e6)
    vals = [min_mmse_ratio(params, t) for t in (1, 5, 20)]
    assert all(0.5 - 1e-12 <= v <= 1 + 1e-12 for v in vals)


def test_min_mmse_ratio_degenerate_denominator():
    with pytest.raises(DegenerateError):
        min_mmse_ratio(ScalarModelParams(meas_var=0.0), 3)


def test_min_mmse_ratio_sweep_matches_scalar_path():
    ratios = min_mmse_ratio_sweep(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10)
    for t in range(1, 11):
        assert float(ratios[..., t - 1]) == pytest.approx(min_mmse_ratio(UNIT, t), rel=1e-12)


def _ratio_sweep_plain(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max):
    """The ratio sweep as plain expressions, one temporary per operation."""
    a2, b2, c2 = (np.abs(np.asarray(v, float)) ** 2 for v in (a_abs, b_abs, c_abs))
    n1, n2, p0 = (np.asarray(v, float) for v in (drive_var, meas_var, init_var))
    shape = np.broadcast_shapes(a2.shape, b2.shape, c2.shape, n1.shape, n2.shape, p0.shape)
    lam_hi = np.broadcast_to(2.0 * p0, shape).astype(float).copy()
    lam_lo = np.zeros(shape)
    lam_mid = np.broadcast_to(p0, shape).astype(float).copy()
    out = np.empty(shape + (t_max,))
    for t in range(t_max):
        for lam in (lam_hi, lam_lo, lam_mid):
            predicted = a2 * lam + b2 * n1
            np.copyto(lam, n2 * predicted / (c2 * predicted + n2))
        out[..., t] = (lam_hi + lam_lo) / (2.0 * lam_mid)
    return out


def test_min_mmse_ratio_sweep_has_the_bits_of_plain_expressions():
    rng = np.random.default_rng(41)
    draws = 300
    a, b, c = (rng.uniform(0.2, 1.5, draws) for _ in range(3))
    n1, n2 = 10.0 ** rng.uniform(-6, 2, draws), 10.0 ** rng.uniform(-6, 2, draws)
    p0 = 10.0 ** rng.uniform(-2, 2, draws)
    # Draws as theta-bound makes them, a mix of scalars and draws, and its all-scalar narrow call.
    for args in ((a, b, c, n1, n2, p0, 50), (0.9, b, 1.1, n1, 1e-3, p0, 30), (1.0, 1.0, 1.0, 1e-6, 1e-3, 1.0, 50)):
        got, want = min_mmse_ratio_sweep(*args), _ratio_sweep_plain(*args)
        assert got.shape == want.shape
        assert (got == want).all()


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _theta_bound_draws(draws):
    """Parameter columns drawn as the theta-bound command draws them at seed 0."""
    rng = substream(0, 0)
    a, b, c = (rng.uniform(0.2, 1.5, draws) for _ in range(3))
    n1, n2 = 10.0 ** rng.uniform(-6, 2, draws), 10.0 ** rng.uniform(-6, 2, draws)
    return a, b, c, n1, n2, 10.0 ** rng.uniform(-2, 2, draws)


def test_min_mmse_ratio_bounds_are_the_sweeps_min_and_max_over_the_default_draws():
    params = _theta_bound_draws(50_000)
    ratios = min_mmse_ratio_sweep(*params, 50)
    lo, hi = min_mmse_ratio_bounds(*params, 50)
    assert _same_bits(lo, ratios.min(-1)) and _same_bits(hi, ratios.max(-1))


@pytest.mark.parametrize(
    "args",
    [
        (np.array([[0.3], [0.9], [1.4]]), np.array([0.2, 0.7, 1.1, 1.5]), 1.0, 1e-3,
         np.array([1e-4, 1.0, 5.0, 1e2]), 2.0, 30),
        (1.0, 1.0, 1.0, 1e-6, 1e-3, 1.0, 20),
        (0.9, 1.2, 0.4, 3.0, 0.5, 0.1, 1),
        (np.array([0.5, np.nan, 1.2]), 1.0, 1.0, np.array([1.0, 1.0, np.nan]), 0.1, 1.0, 12),
    ],
    ids=["broadcast", "0-d", "one-step", "nan-parameter"],
)
def test_min_mmse_ratio_bounds_have_the_bits_of_the_sweep(args):
    ratios = min_mmse_ratio_sweep(*args)
    lo, hi = min_mmse_ratio_bounds(*args)
    assert _same_bits(lo, ratios.min(-1)) and _same_bits(hi, ratios.max(-1))


def test_min_mmse_ratio_bounds_propagate_a_nan_parameter_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = min_mmse_ratio_bounds([0.5, 1.0], 1.0, 1.0, [1.0, np.nan], 1.0, 1.0, 10)
    assert np.isfinite(lo[0]) and np.isfinite(hi[0]) and np.isnan(lo[1]) and np.isnan(hi[1])


@pytest.mark.parametrize(
    "params",
    [(0.0, 0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)],
    # With no power and no measurement noise, every branch update's denominator is 0 too.
    ids=["no-power", "no-meas-noise", "no-power-no-meas-noise"],
)
def test_ratio_sweeps_raise_like_the_oracle_where_the_linear_mmse_is_zero(params):
    with pytest.raises(DegenerateError):
        min_mmse_ratio(ScalarModelParams(*params), 3)
    # In a batch of four, draw 2 holds the parameters and the others are ones.
    batch = [np.array([1.0, 1.0, value, 1.0]) for value in params]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ratios in (min_mmse_ratio_bounds, min_mmse_ratio_sweep):
            for args, index in ((params, ()), (batch, (2,))):
                with pytest.raises(DegenerateError, match="strictly linear MMSE is zero") as caught:
                    ratios(*args, 3)
                assert caught.value.index == index


def test_ratio_sweeps_keep_the_predicted_variance_where_the_denominator_is_zero():
    # No measurement noise and no measurement gain: every branch's denominator
    # is exactly 0 and, as in variance_step, the predicted variance stands.
    no_gain = (1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert min_mmse_ratio(ScalarModelParams(*no_gain), 3) == 1.0
    # In a batch of three, draw 1 holds no_gain and the others are noisy draws.
    batch = [np.array([0.7, value, 1.3]) for value in no_gain]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert min_mmse_ratio_bounds(*no_gain, 3) == (1.0, 1.0)
        assert (min_mmse_ratio_sweep(*no_gain, 3) == 1.0).all()
        lo, hi = min_mmse_ratio_bounds(*batch, 3)
        alone = [min_mmse_ratio_bounds(*(column[k] for column in batch), 3) for k in (0, 2)]
    assert lo[1] == hi[1] == 1.0
    assert [(lo[k], hi[k]) for k in (0, 2)] == alone


@pytest.mark.parametrize("t_max", [0, -1])
def test_min_mmse_ratio_bounds_need_a_step(t_max):
    with pytest.raises(DimensionError):
        min_mmse_ratio_bounds(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, t_max)


def test_min_mmse_ratio_sweep_of_no_steps_is_empty():
    assert min_mmse_ratio_sweep(np.ones(7), 1.0, 1.0, 1.0, 1.0, 1.0, 0).shape == (7, 0)
    assert min_mmse_ratio_sweep(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0).shape == (0,)


def test_params_validation():
    with pytest.raises(NotPSDError):
        ScalarModelParams(init_var=1.0, init_cvar=1.5)
    with pytest.raises(NotPSDError):
        ScalarModelParams(drive_var=-0.1)


def test_init_eigenvalues_proper():
    assert ScalarModelParams(init_var=1.0, init_cvar=0.0).init_eigenvalues() == (1.0, 1.0)


def test_init_eigenvalues_maximally_improper():
    assert ScalarModelParams(init_var=1.0, init_cvar=1.0).init_eigenvalues() == (2.0, 0.0)


def test_init_eigenvalues_complex_complementary():
    assert ScalarModelParams(init_var=1.0, init_cvar=0.5j).init_eigenvalues() == pytest.approx((1.5, 0.5))


def test_init_eigenvalues_reject_indefinite():
    with pytest.raises(NotPSDError):
        ScalarModelParams(init_var=1.0, init_cvar=1.5)
    # Parameters made indefinite after construction fail where the eigenvalues are taken.
    params = ScalarModelParams(init_var=1.0, init_cvar=0.5)
    params.init_cvar = 1.5
    with pytest.raises(NotPSDError):
        params.init_eigenvalues()


@given(st.floats(0.01, 10), st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_init_eigenvalues_match_generic_solver(p, pt):
    if abs(pt) > p:
        pt = pt * (p / abs(pt))
    lam_hi, lam_lo = ScalarModelParams(init_var=p, init_cvar=pt).init_eigenvalues()
    full = np.array([[p, pt], [np.conj(pt), p]])
    ref = np.linalg.eigvalsh(full)
    assert lam_lo == pytest.approx(ref[0], abs=1e-12 * max(1, p))
    assert lam_hi == pytest.approx(ref[1], abs=1e-12 * max(1, p))


def test_posterior_cov_seq_eigenvalues_follow_variance_map():
    params = ScalarModelParams(a=0.8 + 0.4j, b=1.2, c=0.9 - 0.1j, drive_var=0.5,
                               meas_var=2.0, init_var=1.0, init_cvar=0.7j)
    lam_hi, lam_lo = params.init_eigenvalues()
    model = WidelyLinearModel(
        A=AugmentedMatrix([[params.a]], [[0.0]]),
        B=AugmentedMatrix([[params.b]], [[0.0]]),
        C=AugmentedMatrix([[params.c]], [[0.0]]),
        Q=AugmentedMatrix([[params.drive_var]], [[0.0]]),
        R=AugmentedMatrix([[params.meas_var]], [[0.0]]),
        Pi0=AugmentedMatrix([[params.init_var]], [[params.init_cvar]]),
    )
    # The posterior covariances do not depend on the measurements.
    reports = wlckf_run(model, np.zeros((30, 1), complex))
    for t, rep in enumerate(reports, start=1):
        p, pt = rep.state.cov.m1[0, 0].real, complex(rep.state.cov.m2[0, 0])
        assert p + abs(pt) == pytest.approx(float(variance_after(lam_hi, t, params)), rel=1e-10)
        assert p - abs(pt) == pytest.approx(float(variance_after(lam_lo, t, params)), rel=1e-10)


def test_db_conversion():
    assert db_to_linear(-20.0) == pytest.approx(0.01)
    assert db_to_linear(0.0) == 1.0


# --- noise impropriety gain -----------------------------------------------------


def test_gain_proper_noise_is_one():
    res = noise_impropriety_gain(0.0, 0.0, -20.0, -20.0)
    assert res.iterations > 0
    assert res.ratio == pytest.approx(1.0, abs=1e-9)


def test_gain_never_below_one():
    rng = np.random.default_rng(1)
    for _ in range(60):
        rho_w = rng.uniform(0, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho_n = rng.uniform(0, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        res = noise_impropriety_gain(rho_w, rho_n, rng.uniform(-40, 0), rng.uniform(-40, 0))
        assert res.ratio >= 1 - 1e-9


def test_gain_monotone_with_orthogonal_orientations():
    grid = [0.0, 0.3, 0.6, 0.9]
    for n1_db, n2_db in [(-20.0, -20.0), (-20.0, -40.0), (-40.0, -20.0)]:
        surface = {
            (w, n): noise_impropriety_gain(w, 1j * n, n1_db, n2_db).ratio
            for w in grid
            for n in grid
        }
        for w in grid:
            vals = [surface[(w, n)] for n in grid]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        for n in grid:
            vals = [surface[(w, n)] for w in grid]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_gain_equal_orientations_collapse_on_diagonal():
    # With matched impropriety orientations the augmented recursion
    # diagonalizes in a common basis and the unit-coefficient eigenvalue map
    # is scale homogeneous, so the widely linear filter gains nothing.
    for rho in (0.3, 0.7, 0.95):
        res = noise_impropriety_gain(rho, rho, -20.0, -20.0)
        assert res.ratio == pytest.approx(1.0, abs=1e-9)


def test_gain_golden_fixture():
    res = noise_impropriety_gain(0.95, 0.95j, -20.0, -40.0)
    assert res.iterations > 0
    assert res.ratio == pytest.approx(1.1534220494910998, rel=1e-9)


def test_gain_maximally_improper_measurement_noise_is_handled():
    res = noise_impropriety_gain(0.5, 1.0, -20.0, -20.0)
    assert np.isfinite(res.ratio)
    assert res.ratio >= 1 - 1e-9


def test_gain_rejects_excess_magnitude():
    with pytest.raises(NotPSDError):
        noise_impropriety_gain(1.2, 0.0, -20.0, -20.0)


def test_gain_agrees_with_general_filter_covariance_path():
    from wlckf.augmented import AugmentedMatrix
    from wlckf.linear import WidelyLinearModel, simulate_linear, wlckf_run
    from wlckf.stats import substream

    rho_w, rho_n = 0.6, 0.8j
    n1, n2 = db_to_linear(-10.0), db_to_linear(-15.0)
    model = WidelyLinearModel(
        A=AugmentedMatrix([[1.0]], [[0.0]]),
        B=AugmentedMatrix([[1.0]], [[0.0]]),
        C=AugmentedMatrix([[1.0]], [[0.0]]),
        Q=AugmentedMatrix([[n1]], [[n1 * rho_w]]),
        R=AugmentedMatrix([[n2]], [[n2 * rho_n]]),
        Pi0=AugmentedMatrix([[1.0]], [[0.0]]),
    )
    _, meas = simulate_linear(model, 400, substream(2, 0))
    reports = wlckf_run(model, meas)
    steady = reports[-1].state.cov.m1[0, 0].real
    res = noise_impropriety_gain(rho_w, rho_n, -10.0, -15.0)
    assert steady == pytest.approx(res.wl_mse, rel=1e-9)


@given(st.floats(0, 0.99), st.floats(0, 0.99))
@settings(max_examples=30, deadline=None)
def test_gain_property_never_loses(rho_w, rho_n):
    res = noise_impropriety_gain(rho_w, 1j * rho_n, -20.0, -20.0)
    assert res.ratio >= 1 - 1e-9


@given(
    st.floats(0.05, 5.0),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.integers(1, 20),
)
@settings(max_examples=80, deadline=None)
def test_wl_mmse_between_extreme_split_and_strictly_linear(p0, cvar_dir, t):
    cvar = cvar_dir * p0
    params = ScalarModelParams(init_var=p0, init_cvar=cvar)
    value = wl_mmse(params, t)
    assert value >= min_wl_mmse(params, t) - 1e-12
    assert value <= sl_mmse(params, t) * (1 + 1e-12) + 1e-15


# --- batched impropriety gain ---------------------------------------------------


def _scalar_inv2(m):
    """Reference: the adjugate inverse of one 2x2 in numpy scalar arithmetic."""
    limit = 1e-14 * max(float(np.max(np.abs(m))), 1e-300) ** 2
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= limit:
        return np.linalg.pinv(m)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def _reference_gain(rho_w, rho_n, n1_db, n2_db, horizon):
    """Reference: one member's recursion as a loop over 2x2 matrices and floats."""
    n1, n2 = db_to_linear(n1_db), db_to_linear(n2_db)
    q_bar = n1 * np.array([[1.0, rho_w], [np.conj(rho_w), 1.0]], dtype=complex)
    r_bar = n2 * np.array([[1.0, rho_n], [np.conj(rho_n), 1.0]], dtype=complex)
    p_bar, p_sl, wl_mse, converged, iterations = np.eye(2, dtype=complex), 1.0, 1.0, False, 0
    for iterations in range(1, horizon + 1):
        predicted = p_bar + q_bar
        gain = predicted @ _scalar_inv2(predicted + r_bar)
        p_bar = predicted - gain @ predicted
        p_bar = (p_bar + p_bar.conj().T) / 2
        wl_new = 0.5 * float(np.trace(p_bar).real)
        p_sl_new = 1.0 / (1.0 / (p_sl + n1) + 1.0 / n2)
        done = abs(wl_new - wl_mse) < 1e-12 and abs(p_sl_new - p_sl) < 1e-12
        wl_mse, p_sl = wl_new, p_sl_new
        if done:
            converged = True
            break
    return p_sl / wl_mse, wl_mse, p_sl, iterations, converged




FIELDS = ("ratio", "wl_mse", "sl_mse", "iterations")


def _single_calls(rho_w, rho_n, n1_db, n2_db, horizon):
    rho_w, rho_n, n1_db, n2_db = np.broadcast_arrays(rho_w, rho_n, n1_db, n2_db)
    singles = [
        noise_impropriety_gain(complex(w), complex(n), float(a), float(b), horizon=horizon)
        for w, n, a, b in zip(rho_w.ravel(), rho_n.ravel(), n1_db.ravel(), n2_db.ravel())
    ]
    return {field: np.array([getattr(res, field) for res in singles]).reshape(rho_w.shape) for field in FIELDS}


def test_gains_batch_equals_single_calls_bit_for_bit():
    grid = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95])
    panels = np.array([[-20.0, -20.0], [-20.0, -40.0], [-40.0, -20.0]])
    cases = [
        # The three default panels at the default orientations, 90 degrees apart.
        (grid[None, :, None], 1j * grid[None, None, :], panels[:, 0, None, None], panels[:, 1, None, None]),
        # rho_w = rho_n = 1 takes the closed form without iterating; rho_w = 1
        # with a proper or a 90-degree rho_n does not converge by the horizon,
        # and takes the closed form too.
        (np.array([1.0, 1.0, 0.5, 1.0]), np.array([1.0, 0.0, 1.0, 0.5j]), -20.0, -20.0),
    ]
    for rho_w, rho_n, n1_db, n2_db in cases:
        batch = noise_impropriety_gains(rho_w, rho_n, n1_db, n2_db, horizon=600)
        single = _single_calls(rho_w, rho_n, n1_db, n2_db, horizon=600)
        for field, expected in single.items():
            assert np.array_equal(getattr(batch, field), expected), field
        # And the bits of the matrix-by-matrix loop in scalar arithmetic where
        # it converged, and those of the closed form where it did not or where
        # both noises are maximally improper.
        closed = steady_state_gains(rho_w, rho_n, n1_db, n2_db)
        members = zip(*(a.ravel() for a in np.broadcast_arrays(rho_w, rho_n, n1_db, n2_db)))
        for i, member in enumerate(members):
            *looped, converged = _reference_gain(*member, horizon=600)
            on_circle = abs(member[0]) == abs(member[1]) == 1
            expected = looped if converged and not on_circle else [getattr(closed, f).ravel()[i] for f in FIELDS]
            assert [getattr(batch, field).ravel()[i] for field in FIELDS] == expected, member
    # Members stop on iterations of their own, and some take the closed form.
    first = noise_impropriety_gains(*cases[0], horizon=600)
    assert len(np.unique(first.iterations)) > 5
    last = noise_impropriety_gains(*cases[1], horizon=600)
    assert last.iterations.tolist() == [0, 0, 15, 0]


def test_gains_batch_takes_pseudo_inverse_for_singular_member(monkeypatch):
    calls = []
    pinv = np.linalg.pinv

    def counting_pinv(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    # 240 dB above R, the rank-one Q of rho_w = j leaves P + Q + R a determinant
    # negligible on the scale of its entries, twice.
    res = noise_impropriety_gains(np.array([0.5, 1j]), np.array([1.0j, 0.0]), np.array([-20.0, 200.0]),
                                  np.array([-20.0, -40.0]))
    assert calls == [(1,), (1,)]
    assert (res.iterations > 0).all()


# Both noises maximally improper, in orientations 72 degrees apart: one
# channel of the steady state has no driving noise and the other no
# measurement noise, so the ratio is unbounded at every N1 - N2.
UNBOUNDED_MEMBER = (1j, np.exp(1.2j), 50.0, -40.0)


def test_gains_batch_raises_for_its_degenerate_member():
    rho_w, rho_n, n1_db, n2_db = UNBOUNDED_MEMBER
    with pytest.raises(DegenerateError) as info:
        noise_impropriety_gains(
            np.array([0.0, rho_w, 0.9]), np.array([0.5j, rho_n, 0.5j]),
            np.array([-20.0, n1_db, -20.0]), np.array([-20.0, n2_db, -20.0]),
        )
    assert info.value.index == (1,)
    assert str(info.value) == (
        "both noises are maximally improper, in different orientations: the MSE ratio is unbounded"
    )
    with pytest.raises(DegenerateError) as single:
        noise_impropriety_gain(*UNBOUNDED_MEMBER)
    assert str(info.value) == str(single.value)
    for n1_db in (-300.0, -20.0, -40.0, 90.0, 300.0):
        with pytest.raises(DegenerateError, match="unbounded"):
            steady_state_gains(rho_w, rho_n, n1_db, n2_db)


def test_gain_of_a_singular_driving_noise_far_above_the_measurement_noise_is_the_closed_form():
    # rho_w = j gives Q rank 1; at 220 dB above the measurement noise,
    # P + Q rounds to Q at the first iteration and the recursion loses P, so
    # its value does not stand and the member takes the closed form (here its
    # 60-digit value).
    res = noise_impropriety_gain(1j, 0.999 * np.exp(1.2j), 200, -20)
    assert res.iterations == 0
    assert abs(res.ratio - 68.9274168271548) < 1e-9
    res = noise_impropriety_gains(np.array([0.9j, 1j, 1j]), 0.999 * np.exp(1.2j), 200.0, -20.0)
    assert res.iterations.tolist() == [2, 0, 0]
    assert abs(res.ratio[0] - 1) < 1e-9 and res.ratio[1] == res.ratio[2] == noise_impropriety_gain(
        1j, 0.999 * np.exp(1.2j), 200, -20
    ).ratio
    with pytest.raises(DegenerateError, match="unbounded"):
        noise_impropriety_gain(1j, np.exp(1.2j), 200, -20)


def test_gains_keep_an_absorbed_posterior_that_the_measurement_noise_keeps_apart():
    # A proper R, or one of Q's orientation, leaves P along the null vector
    # of Q to decay on its own, so its rounding loss changes no fixed point:
    # the closed form gives 4/3 and 2. Equal orientations on the unit circle
    # give exactly 1, and take the closed form without iterating.
    res = noise_impropriety_gains(1j, np.array([1j, 0.5j, 0.0]), np.array([-20.0, 110.0, 200.0]), -40.0)
    assert res.iterations[0] == 0 and (res.iterations[1:] > 0).all()
    assert abs(res.ratio[0] - 1) < 1e-12
    assert abs(res.ratio[1] - 4 / 3) <= AGREE * 4 / 3
    assert abs(res.ratio[2] - 2) <= AGREE * 2


def test_gains_batch_reports_first_failing_member_in_order():
    # Every error comes from the closed form, before the recursion runs, for
    # the first failing member in order.
    rho_w, rho_n, n1_db, n2_db = UNBOUNDED_MEMBER
    with pytest.raises(DegenerateError, match="unbounded") as info:
        noise_impropriety_gains(
            np.array([0.5, rho_w, 0.5]), np.array([0.5j, rho_n, 0.5j]),
            np.array([-20.0, n1_db, -20.0]), np.array([-20.0, n2_db, -4000.0]),
        )
    assert info.value.index == (1,)
    with pytest.raises(DegenerateError, match="3980 dB apart") as info:
        noise_impropriety_gains(
            np.array([0.5, 0.5, rho_w]), np.array([0.5j, 0.5j, rho_n]), -20.0, np.array([-20.0, -4000.0, -20.0])
        )
    assert info.value.index == (1,)
    with pytest.raises(NotPSDError) as info:
        noise_impropriety_gains(np.array([[0.5, 1.2]]), 0.0, -20.0, -20.0)
    assert info.value.index == (0, 1)
    # 3000 dB overflows the recursion's 2x2 and fails that member alone; it
    # takes the closed form of the same gap at 0 dB.
    res = noise_impropriety_gains(0.5, 0.5j, np.array([-20.0, 3000.0]), -20.0)
    assert res.iterations[0] > 0 and res.iterations[1] == 0
    shifted = float(steady_state_gains(0.5, 0.5j, 3020.0, 0.0).ratio)
    assert abs(res.ratio[1] - shifted) <= 1e-12 * shifted


@pytest.mark.parametrize("bad", [np.nan, complex(0.3, np.nan), np.inf, complex(np.inf, np.nan)], ids=str)
def test_gains_reject_a_nan_or_infinite_rho_by_name_without_warnings(bad):
    # The suite turns RuntimeWarning into an error, so a division that warns fails here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gains in (steady_state_gains, noise_impropriety_gains):
            with pytest.raises(NotPSDError) as info:
                gains(bad, 0.5, 0, 0)
            assert info.value.index == ()
            with pytest.raises(NotPSDError) as info:
                gains(np.array([0.1, 0.2j, 0.3]), np.array([0.5, 0.5, bad]), 0.0, -3.0)
            assert info.value.index == (2,)


@pytest.mark.parametrize("field, bad", [
    ("a", np.nan), ("b", complex(0.5, np.inf)), ("c", [1.0, np.nan]), ("a", (0.5, 0.9, complex(np.nan, 0))),
    ("drive_var", np.inf), ("meas_var", np.nan), ("init_var", np.inf), ("init_cvar", complex(0, np.nan)),
], ids=str)
def test_scalar_params_reject_a_nan_or_infinite_entry_by_name_without_warnings(field, bad):
    # Before the check, a NaN a gave min_mmse_ratio NaN and an infinite
    # drive_var a RuntimeWarning, both without an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match=f"{field} has non-finite"):
            ScalarModelParams(**{field: bad})
        assert min_mmse_ratio(ScalarModelParams(**{field: 0.5 if field != "c" else [1.0, 0.5]}), 2) > 0


@pytest.mark.parametrize("field, bad", [
    ("a", 1e200), ("b", 1e200), ("c", 1e200), ("c", 2e154), ("a", [1.0, 1e200]), ("b", complex(1e154, 1e154)),
], ids=str)
def test_scalar_params_reject_a_coefficient_whose_squared_magnitude_overflows(field, bad):
    # Before the check, sl_mmse, wl_mmse and min_mmse_ratio ended in a bare
    # OverflowError from |coefficient| ** 2 in variance_step.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConsistencyError, match=f"{field} has an entry whose squared magnitude overflows"):
            ScalarModelParams(**{field: bad})
        # A magnitude whose square stays in range is accepted.
        ScalarModelParams(**{field: 1e154})


def test_gain_at_powers_whose_linear_value_overflows_is_the_closed_form():
    # 10^400 overflows a double: the recursion cannot use the powers, and the
    # member takes the closed form of their gap, which stays in range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = noise_impropriety_gain(0.5, 0.5j, 4000.0, 3990.0)
    closed = float(steady_state_gains(0.5, 0.5j, 4000.0, 3990.0).ratio)
    assert res.iterations == 0 and abs(res.ratio - closed) <= 1e-12 * closed


def test_gains_fail_powers_too_small_for_double_precision_without_warnings():
    # Powers further apart than the normal doubles reach still fail.
    with pytest.raises(DegenerateError, match="3280 dB apart") as info:
        noise_impropriety_gains(0.5, 0.5, np.array([-20.0, -3300.0]), -20.0)
    assert info.value.index == (1,)
    # -3300 dB is exactly zero and -3150 dB subnormal: the recursion cannot
    # use them, and the members take the closed form of the same gap at
    # 0 dB, which is 1 for equal orientations.
    for n1_db in (-3300.0, -3150.0):
        res = noise_impropriety_gains(0.5, np.array([0.5, 0.5j]), n1_db, -3080.0)
        assert res.iterations.tolist() == [0, 0]
        shifted = steady_state_gains(0.5, np.array([0.5, 0.5j]), n1_db + 3080.0, 0.0).ratio
        assert (np.abs(res.ratio - shifted) <= 1e-12 * shifted).all()
        assert abs(res.ratio[0] - 1) < 1e-12 and res.ratio[1] > 1
    # Entries near 1e-160 have products that underflow, so the determinant is
    # too small to divide by: the member takes the closed form.
    res = noise_impropriety_gain(0.0, 0.0, -1600.0, -1600.0)
    assert res.iterations == 0 and abs(res.ratio - 1) < 1e-12
    # A determinant that underflows to zero is singular, and takes the pseudo-inverse.
    assert np.array_equal(_inv2(np.full((2, 2), 1e-160)), np.linalg.pinv(np.full((2, 2), 1e-160)))
    # One too small to divide by gives NaN for that matrix alone.
    stack = np.stack([np.eye(2), 1e-160 * np.eye(2), np.full((2, 2), 1e-160)])
    _assert_nan_at(_inv2(stack), stack, (1,))


def test_inv2_acts_per_matrix_of_a_stack():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    stack[1, 2] = [[1.0, 2.0], [2.0, 4.0]]  # singular: pseudo-inverse
    inverse = _inv2(stack)
    assert inverse.shape == stack.shape
    for i in np.ndindex(stack.shape[:-2]):
        assert np.array_equal(inverse[i], _inv2(stack[i]))
    assert np.allclose(inverse[1, 2], np.linalg.pinv(stack[1, 2]))
    assert np.allclose(inverse[0, 0] @ stack[0, 0], np.eye(2))
    # Entries that overflow when squared, or are not finite, give NaN for that matrix alone.
    for entry in (1e200, np.inf, np.nan):
        stack[2, 1, 0, 0] = entry
        _assert_nan_at(_inv2(stack), stack, (2, 1))


def _assert_nan_at(inverse, stack, index):
    """Every entry of ``inverse[index]`` is NaN, and every other matrix has the bits of its lone call."""
    assert np.isnan(inverse[index]).all()
    for i in np.ndindex(stack.shape[:-2]):
        if i != index:
            assert np.array_equal(inverse[i], _inv2(stack[i])) and np.isfinite(inverse[i]).all(), i


# --- closed-form steady state ---------------------------------------------------

# Limits of the closed form evaluated with 60 significant digits.
EXTENDED_PRECISION_LIMITS = [
    ((1j, 0.5j), (110.0, -40.0), 4 / 3),
    ((1j, 0.0), (200.0, -40.0), 2.0),
    ((1j, 0.5), (80.0, -20.0), 2.6666666665),
    ((0.9, 0.9j), (-80.0, -20.0), 1.77030741679),
    ((1j, 1j), (-15.0, -35.0), 1.0),
]


def test_steady_state_gains_match_extended_precision_limits():
    for (rho_w, rho_n), (n1_db, n2_db), limit in EXTENDED_PRECISION_LIMITS:
        closed = steady_state_gains(rho_w, rho_n, n1_db, n2_db)
        assert abs(float(closed.ratio) - limit) < 1e-9
        assert closed.iterations == 0
        # The recursion's value stands only within AGREE of the closed form.
        res = noise_impropriety_gain(rho_w, rho_n, n1_db, n2_db)
        assert abs(res.ratio - limit) < (AGREE * limit if res.iterations else 1e-9)


def test_default_sweep_members_agree_with_the_closed_form():
    grid = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95])
    panels = np.array([[-20.0, -20.0], [-20.0, -40.0], [-40.0, -20.0]])
    args = (grid[None, :, None], 1j * grid[None, None, :], panels[:, 0, None, None], panels[:, 1, None, None])
    looped = noise_impropriety_gains(*args)
    closed = steady_state_gains(*args)
    assert looped.ratio.shape == closed.ratio.shape == (3, 7, 7)
    assert (looped.iterations > 0).all()
    assert (np.abs(looped.ratio - closed.ratio) <= 1e-7 * closed.ratio).all()


def test_gain_cut_off_by_the_horizon_takes_the_closed_form():
    full = noise_impropriety_gain(0.8, 0.5j, -20.0, -20.0)
    cut = noise_impropriety_gain(0.8, 0.5j, -20.0, -20.0, horizon=3)
    closed = steady_state_gains(0.8, 0.5j, -20.0, -20.0)
    assert full.iterations > 3 and cut.iterations == 0
    assert (cut.ratio, cut.wl_mse, cut.sl_mse) == (closed.ratio, closed.wl_mse, closed.sl_mse)
    assert abs(full.ratio - cut.ratio) <= AGREE * cut.ratio


def test_gain_stopped_early_by_the_absolute_tolerance_takes_the_closed_form():
    # At these powers both MSEs are far below ``tol``, so the recursion stops
    # at its second iteration, far from its limit.
    res = noise_impropriety_gain(1.0, 0.5j, -2700.0, -2850.0)
    assert res.iterations == 0
    shifted = float(steady_state_gains(1.0, 0.5j, 150.0, 0.0).ratio)
    assert res.ratio >= 1 and abs(res.ratio - shifted) <= 1e-12 * shifted


def _count_iterations(monkeypatch) -> list:
    """Record each iteration of the recursion: each inverts its stack of 2x2s once."""
    calls = []
    monkeypatch.setattr(mse, "_inv2", lambda m, _inv2=mse._inv2: calls.append(1) or _inv2(m))
    return calls


def test_members_that_cannot_converge_leave_the_recursion_at_once(monkeypatch):
    # At [-100, -20] dB the strictly linear channel relaxes over about
    # sqrt(N2 / N1) = 1e4 steps: no member of the default grid converges
    # within the 10,000-step horizon, and every one of them ran all of it
    # before the closed form. Now they leave once the bound proves it.
    calls = _count_iterations(monkeypatch)
    grid = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95])
    args = (grid[:, None], 1j * grid[None, :], -100.0, -20.0)
    res = noise_impropriety_gains(*args, horizon=10_000, tol=1e-12)
    closed = steady_state_gains(*args)
    assert len(calls) <= 2_400
    assert (res.iterations == 0).all()
    for got, want in ((res.ratio, closed.ratio), (res.wl_mse, closed.wl_mse), (res.sl_mse, closed.sl_mse)):
        assert np.array_equal(got, want)


def test_leaving_early_changes_no_result(monkeypatch):
    # The exit fires for the first two panels, at their first test or later,
    # and the members it takes out would have taken the closed form anyway.
    grid = np.array([0.0, 0.5, 0.95])
    panels = np.array([[-100.0, -20.0], [-56.6, 51.9], [-20.0, -20.0], [-40.0, -20.0], [30.0, 0.0]])
    args = (grid[None, :, None], 0.3j * grid[None, None, :] + 0.1, panels[:, 0, None, None], panels[:, 1, None, None])
    calls = _count_iterations(monkeypatch)
    early = noise_impropriety_gains(*args, horizon=3_000)
    early_iterations = len(calls)
    monkeypatch.setattr(mse, "_cannot_converge", lambda change, *rest: np.zeros(change.shape, dtype=bool))
    calls.clear()
    full = noise_impropriety_gains(*args, horizon=3_000)
    assert early_iterations < len(calls) == 3_000
    assert (full.iterations[:2] == 0).all() and (full.iterations[2:] > 0).all()
    for field in ("ratio", "wl_mse", "sl_mse", "iterations"):
        assert np.array_equal(getattr(early, field), getattr(full, field))


_MAGNITUDES = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_PHASES = st.floats(0.0, 2 * np.pi, exclude_max=True)


@given(_MAGNITUDES, _PHASES, _MAGNITUDES, _PHASES, st.floats(-300, 300), st.floats(-300, 300))
@settings(max_examples=150, deadline=None)
def test_steady_state_gains_property(mag_w, phase_w, mag_n, phase_n, gap, n2_db):
    rho_w, rho_n = mag_w * np.exp(1j * phase_w), mag_n * np.exp(1j * phase_n)
    n1_db = n2_db + gap
    on_circle = [abs(rho) >= 1 - ON_CIRCLE for rho in (rho_w, rho_n)]
    if all(on_circle) and rho_w / abs(rho_w) != rho_n / abs(rho_n):
        with pytest.raises(DegenerateError, match="unbounded"):
            steady_state_gains(rho_w, rho_n, n1_db, n2_db)
        return
    ratio = float(steady_state_gains(rho_w, rho_n, n1_db, n2_db).ratio)
    assert ratio >= 1 - 1e-9
    for shift in (-300.0, 300.0):
        shifted = float(steady_state_gains(rho_w, rho_n, n1_db + shift, n2_db + shift).ratio)
        assert abs(shifted - ratio) <= 1e-12 * ratio
    for rho in (rho_w, rho_n):
        assert abs(float(steady_state_gains(rho, rho, n1_db, n2_db).ratio) - 1) <= 1e-12


def test_filter_steady_state_is_the_closed_form():
    # The paper's two halves check each other: the widely and the strictly
    # linear filter, run to their steady state on the scalar model with
    # A = B = C = 1 and a proper unit prior, against steady_state_gains.
    steps = 400
    rng = np.random.default_rng(20261019)
    count = 100
    n2_db = rng.uniform(-40.0, 0.0, count)
    n1_db = n2_db + rng.uniform(-20.0, 20.0, count)
    mag_w, mag_n = rng.uniform(0.0, 0.9, (2, count))
    rho_w = mag_w * np.exp(1j * rng.uniform(0.0, 2 * np.pi, count))
    rho_n = mag_n * np.exp(1j * rng.uniform(0.0, 2 * np.pi, count))
    n1, n2 = 10.0 ** (n1_db / 10), 10.0 ** (n2_db / 10)
    # The closed form splits the model into channels with q = N1 c(rho_w) and
    # r = N2 c(rho_n), whose chord shares c lie in [1 - |rho|, 1 + |rho|]. A
    # channel's covariance error contracts by its squared closed-loop factor
    # r / (m + r) per step, with predicted variance m >= q, and the strictly
    # linear channel (c = 1) contracts faster. Keep the members whose slowest
    # channel contracts by 1e-20 over the run.
    slowest = n2 * (1 + mag_n) / (n1 * (1 - mag_w) + n2 * (1 + mag_n))
    keep = slowest ** (2 * steps) <= 1e-20
    assert keep.sum() >= count // 2
    one = AugmentedMatrix([[1.0]], [[0.0]])
    models = [
        WidelyLinearModel(A=one, B=one, C=one, Q=AugmentedMatrix([[q]], [[q * rw]]),
                          R=AugmentedMatrix([[r]], [[r * rn]]), Pi0=one)
        for q, rw, r, rn in zip(n1[keep], rho_w[keep], n2[keep], rho_n[keep])
    ]
    # The covariances do not depend on the measurements.
    zeros = np.zeros((len(models), steps, 1), complex)
    *_, (_, p_wl) = wlckf_batch(models, zeros)
    *_, (_, p_sl) = ckf_batch(models, zeros)
    wl, sl = p_wl[:, 0, 0].real, p_sl[:, 0, 0].real
    closed = steady_state_gains(rho_w[keep], rho_n[keep], n1_db[keep], n2_db[keep])
    assert np.max(np.abs(wl / closed.wl_mse - 1)) <= 1e-12
    assert np.max(np.abs(sl / closed.sl_mse - 1)) <= 1e-12
    assert (sl >= wl).all()


# --- the closed forms against the simulated truth -------------------------------

MC_RUNS = 4000
# Two-sided Monte Carlo bounds, in standard errors: about 7e-6 per check for a normal estimate.
MC_Z = 4.5


def _scalar_model_errors(params, horizon):
    """Errors against the simulated state of both filters over MC_RUNS runs (substream(7, r)), and the widely linear covariances.

    Shapes (runs, horizon), (runs, horizon) and (runs, horizon, 2, 2).
    """
    def aug(value):
        return AugmentedMatrix([[value]], [[0.0]])

    model = WidelyLinearModel(
        A=aug(params.a), B=aug(params.b), C=aug(params.c), Q=aug(params.drive_var), R=aug(params.meas_var),
        Pi0=AugmentedMatrix([[params.init_var]], [[params.init_cvar]]),
    )
    models = [model] * MC_RUNS
    states, meas = simulate_linear_batch(models, horizon, [substream(7, r) for r in range(MC_RUNS)])
    truth = states[:, 1:, 0]
    wl = list(wlckf_batch(models, meas))
    e_wl = truth - np.stack([x[:, 0] for x, _ in wl], 1)
    e_sl = truth - np.stack([x[:, 0] for x, _ in ckf_batch(models, meas)], 1)
    return e_wl, e_sl, np.stack([p for _, p in wl], 1)


def _assert_within(estimate, expected, standard_error):
    z = np.abs(estimate - expected) / standard_error
    assert (z <= MC_Z).all(), np.round(z, 2)


def test_filters_make_the_closed_form_mse_and_the_widely_linear_nees_is_chi_square_2():
    # Criterion 4's scalar model with an improper initial state.
    params = ScalarModelParams(
        a=0.95 + 0.2j, b=0.8, c=1.1 - 0.3j, drive_var=0.7, meas_var=1.4, init_var=1.0, init_cvar=0.6 + 0.7j,
    )
    horizon = 20
    e_wl, e_sl, p_wl = _scalar_model_errors(params, horizon)
    wl = np.array([wl_mmse(params, t) for t in range(1, horizon + 1)])
    sl = np.array([sl_mmse(params, t) for t in range(1, horizon + 1)])
    # |e|^2 of a complex Gaussian error with variance p and complementary
    # variance pt has variance p^2 + |pt|^2. The widely linear filter's pt
    # is its posterior's M2; 2 p^2 bounds the strictly linear filter's.
    _assert_within(np.mean(np.abs(e_wl) ** 2, 0), wl, np.sqrt((wl**2 + np.abs(p_wl[0, :, 0, 1]) ** 2) / MC_RUNS))
    _assert_within(np.mean(np.abs(e_sl) ** 2, 0), sl, np.sqrt(2 * sl**2 / MC_RUNS))
    # [e; e*]^H P^-1 [e; e*] is the real error's NEES: chi-square with 2
    # degrees of freedom, of mean 2 and variance 4. Its fourth central
    # moment is 144, so the sample variance has variance (144 - 16) / N.
    augmented = np.stack([e_wl, np.conj(e_wl)], -1)
    nees = np.einsum("rti,rtij,rtj->rt", augmented.conj(), np.linalg.inv(p_wl), augmented).real
    _assert_within(nees.mean(0), 2.0, np.sqrt(4 / MC_RUNS))
    _assert_within(nees.var(0, ddof=1), 4.0, np.sqrt(128 / MC_RUNS))


def test_paired_errors_resolve_the_gain_of_a_maximally_improper_initial_state():
    # N1 << N2 << 1 and a maximally improper initial state: the closed-form
    # ratio starts near 1/2 and climbs as the filters forget that state.
    params = ScalarModelParams(
        a=0.95 + 0.2j, b=0.8, c=1.1 - 0.3j, drive_var=1e-4, meas_var=1e-2, init_var=1.0, init_cvar=1.0,
    )
    horizon = 10
    e_wl, e_sl, _ = _scalar_model_errors(params, horizon)
    steps = range(1, horizon + 1)
    assert min_mmse_ratio(params, 1) < 0.51 and min_mmse_ratio(params, horizon) > 0.75
    gap = np.array([sl_mmse(params, t) - wl_mmse(params, t) for t in steps])
    # The same runs through both filters: the difference of their squared
    # errors has the mean sl_mmse - wl_mmse and far less spread than either.
    paired = np.abs(e_sl) ** 2 - np.abs(e_wl) ** 2
    standard_error = paired.std(0, ddof=1) / np.sqrt(MC_RUNS)
    _assert_within(paired.mean(0), gap, standard_error)
    assert (paired.mean(0) - MC_Z * standard_error > 0).all()
