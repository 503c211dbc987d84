import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlckf.augmented import AugmentedMatrix
from wlckf.errors import DegenerateError, DimensionError, NotPSDError
from wlckf.linear import WidelyLinearModel, wlckf_run
from wlckf.mse import (
    ScalarModelParams,
    _inv2,
    db_to_linear,
    min_mmse_ratio,
    min_mmse_ratio_sweep,
    min_wl_mmse,
    noise_impropriety_gain,
    noise_impropriety_gains,
    sl_mmse,
    split_minimum_scan,
    variance_after,
    variance_step,
    wl_mmse,
)

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


def test_params_validation():
    with pytest.raises(NotPSDError):
        ScalarModelParams(init_var=1.0, init_cvar=1.5)
    with pytest.raises(NotPSDError):
        ScalarModelParams(drive_var=-0.1)


def test_split_scan_minimum_at_extreme_split():
    scan = split_minimum_scan(UNIT, 3)
    assert scan.min_at_extreme
    assert scan.argmin_split == pytest.approx((2.0, 0.0))


def test_split_scan_maximum_at_equal_split():
    scan = split_minimum_scan(UNIT, 3)
    assert scan.max_at_equal
    assert scan.argmax_split == pytest.approx((1.0, 1.0))


def test_split_scan_minimizer_location_stable_in_time():
    for t in (1, 5):
        scan = split_minimum_scan(UNIT, t)
        assert scan.min_at_extreme


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
    assert res.converged
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
    assert res.converged
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


def _single_calls(rho_w, rho_n, n1_db, n2_db, horizon):
    rho_w, rho_n, n1_db, n2_db = np.broadcast_arrays(rho_w, rho_n, n1_db, n2_db)
    singles = [
        noise_impropriety_gain(complex(w), complex(n), float(a), float(b), horizon=horizon)
        for w, n, a, b in zip(rho_w.ravel(), rho_n.ravel(), n1_db.ravel(), n2_db.ravel())
    ]
    return {
        field: np.array([getattr(res, field) for res in singles]).reshape(rho_w.shape)
        for field in ("ratio", "wl_mse", "sl_mse", "iterations", "converged")
    }


def test_gains_batch_equals_single_calls_bit_for_bit():
    grid = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95])
    panels = np.array([[-20.0, -20.0], [-20.0, -40.0], [-40.0, -20.0]])
    cases = [
        # The three default panels at the default orientations, 90 degrees apart.
        (grid[None, :, None], 1j * grid[None, None, :], panels[:, 0, None, None], panels[:, 1, None, None]),
        # rho_n = 1 with rho_w = 1 in the same orientation makes the 2x2 singular
        # (pseudo-inverse); rho_w = 1 alone never converges and stops at the horizon.
        (np.array([1.0, 1.0, 0.5, 1.0]), np.array([1.0, 0.0, 1.0, 1j]), -20.0, -20.0),
    ]
    for rho_w, rho_n, n1_db, n2_db in cases:
        batch = noise_impropriety_gains(rho_w, rho_n, n1_db, n2_db, horizon=600)
        single = _single_calls(rho_w, rho_n, n1_db, n2_db, horizon=600)
        for field, expected in single.items():
            assert np.array_equal(getattr(batch, field), expected), field
        # And the bits of the matrix-by-matrix loop in scalar arithmetic.
        members = zip(*(a.ravel() for a in np.broadcast_arrays(rho_w, rho_n, n1_db, n2_db)))
        reference = np.array([_reference_gain(*member, horizon=600) for member in members]).T
        for field, expected in zip(("ratio", "wl_mse", "sl_mse", "iterations", "converged"), reference):
            assert np.array_equal(getattr(batch, field).ravel(), expected), field
    # Members stop on iterations of their own, and some run to the horizon.
    first = noise_impropriety_gains(*cases[0], horizon=600)
    assert len(np.unique(first.iterations)) > 5
    last = noise_impropriety_gains(*cases[1], horizon=600)
    assert last.converged.tolist() == [True, False, True, False]
    assert last.iterations[1] == 600


def test_gains_batch_takes_pseudo_inverse_for_singular_member(monkeypatch):
    calls = []
    pinv = np.linalg.pinv

    def counting_pinv(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    res = noise_impropriety_gains(np.array([0.5, 1.0]), np.array([1.0j, 1.0]), -20.0, -20.0)
    assert calls and all(shape == (1,) for shape in calls)
    assert res.converged.all()


# Maximally improper noises of different orientations 90 dB apart: the
# widely linear MSE of the member goes negative at its fourth iteration.
ZERO_MSE_MEMBER = (1j, np.exp(1.2j), 50.0, -40.0)


def test_gains_batch_raises_for_its_degenerate_member():
    rho_w, rho_n, n1_db, n2_db = ZERO_MSE_MEMBER
    with pytest.raises(DegenerateError) as info:
        noise_impropriety_gains(
            np.array([0.0, rho_w, 0.9]), np.array([0.5j, rho_n, 0.5j]),
            np.array([-20.0, n1_db, -20.0]), np.array([-20.0, n2_db, -20.0]),
        )
    assert info.value.index == (1,)
    assert "widely linear MSE" in str(info.value)
    with pytest.raises(DegenerateError) as single:
        noise_impropriety_gain(*ZERO_MSE_MEMBER)
    assert str(info.value) == str(single.value)


def test_gain_raises_when_a_singular_driving_noise_absorbs_the_posterior():
    # rho_w = j gives Q rank 1; at 220 dB above the measurement noise,
    # P + Q rounds to Q at the first iteration, and the recursion loses P.
    with pytest.raises(DegenerateError, match="absorbs the posterior at iteration 1: noise powers of 200 dB"):
        noise_impropriety_gain(1j, 0.999 * np.exp(1.2j), 200, -20)
    with pytest.raises(DegenerateError, match="absorbs the posterior") as info:
        noise_impropriety_gains(np.array([0.9j, 1j, 1j]), 0.999 * np.exp(1.2j), 200.0, -20.0)
    assert info.value.index == (1,)


def test_gains_keep_an_absorbed_posterior_that_the_measurement_noise_keeps_apart():
    # A proper R, or one of Q's orientation, leaves P along the null vector
    # of Q to decay on its own, so its rounding loss changes no fixed point:
    # equal orientations give exactly 1, and 80-digit arithmetic takes the
    # other two to 4/3 and 2.
    res = noise_impropriety_gains(1j, np.array([1j, 0.5j, 0.0]), np.array([-20.0, 110.0, 200.0]), -40.0)
    assert res.converged.all()
    assert abs(res.ratio[0] - 1) < 1e-9
    assert abs(res.ratio[1] - 4 / 3) < 1e-3
    assert abs(res.ratio[2] - 2) < 1e-3


def test_gains_batch_reports_first_failing_member_in_order():
    # Member 2 overflows at the first iteration, member 1 fails at its own.
    rho_w, rho_n, n1_db, n2_db = ZERO_MSE_MEMBER
    with pytest.raises(DegenerateError) as info:
        noise_impropriety_gains(
            np.array([0.5, rho_w, 0.5]), np.array([0.5j, rho_n, 0.5j]),
            np.array([-20.0, n1_db, 3000.0]), np.array([-20.0, n2_db, -20.0]),
        )
    assert info.value.index == (1,)
    assert "widely linear MSE" in str(info.value)
    with pytest.raises(DegenerateError) as info:
        noise_impropriety_gains(0.5, 0.5j, -20.0, np.array([-20.0, -4000.0, -20.0]))
    assert info.value.index == (1,)
    with pytest.raises(NotPSDError) as info:
        noise_impropriety_gains(np.array([[0.5, 1.2]]), 0.0, -20.0, -20.0)
    assert info.value.index == (0, 1)


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
    stack[2, 1, 0, 0] = 1e200
    with pytest.raises(DegenerateError) as info:
        _inv2(stack)
    assert info.value.index == (2, 1)
