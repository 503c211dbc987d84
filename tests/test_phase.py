import gc
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wlckf.errors import DegenerateError, DimensionError, WorkerError
from wlckf.linear import FilterState
from wlckf.augmented import AugmentedMatrix, AugmentedVector
from wlckf.phase import (
    TRACKERS,
    PhaseModel,
    _scalar_eigenpairs,
    _BLOCK_ROWS,
    _W_COV,
    _W_MEAN,
    _BatchUWLCKF,
    _ratio_block,
    _shares,
    improvement_ratio,
    improvement_ratios,
    nonlinear_phase_model,
    normalized_error,
    run_tracker,
    simulate_phase,
    simulate_phase_batch,
    track_batch,
)
from wlckf.stats import SecondOrderStats, sample, substream
from wlckf.unscented import SPREAD, SigmaPointSet, complex_sigma_points, reconstruct_stats, uwlckf_step, weights


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
    # Rows of a batch are sequences of their own.
    assert normalized_error([[1.0, 1.0], [2.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]).tolist() == [0.5, 0.25]


def test_normalized_error_rejects_zero_phase():
    with pytest.raises(DegenerateError):
        normalized_error([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DegenerateError):
        normalized_error([[1.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]])


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
        AugmentedVector([complex(model.init_mean)]),
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
    w_mean, w_cov = weights(6)
    lam, rot = _scalar_eigenpairs(var, cvar)
    # Axis c of the (3, 2) factor moves variable c // 2.
    axes = SPREAD * np.sqrt(np.clip(lam, 0.0, None)) * rot
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
    # improvement_ratio runs both trackers in one engine of 2 * runs rows.
    model = PhaseModel(snr_db=10.0, rho_abs=rho_abs, rho_phase=rho_phase)
    proper = replace(model, rho_abs=0.0)
    (res,) = _ratio_block([(model, 29, [model.noise_cvar, proper.noise_cvar])], 6, 200)
    thetas, ys = simulate_phase_batch(model, 200, 6, 29)
    alone = {tracker: track_batch(model, ys, tracker) for tracker in TRACKERS}
    xi = {tracker: normalized_error(thetas[:, 1:], track.estimates) for tracker, track in alone.items()}
    assert res.xi_uwlckf == pytest.approx(xi["uwlckf"].mean(), rel=1e-12)
    assert res.xi_ukf == pytest.approx(xi["ukf"].mean(), rel=1e-12)
    assert res.r_mean == pytest.approx((xi["ukf"] / xi["uwlckf"]).mean(), rel=1e-12)
    assert res.max_imag == pytest.approx(max(track.max_imag for track in alone.values()), abs=1e-15)


def test_an_800_row_block_holds_little_beyond_its_trajectories_and_measurements():
    runs, horizon = 200, 500
    specs = []
    for rho_abs, seed in ((0.7, 1), (0.5, 2)):
        model = PhaseModel(snr_db=20.0, rho_abs=rho_abs)
        specs.append((model, seed, [model.noise_cvar, replace(model, rho_abs=0.0).noise_cvar]))
    assert sum(len(cvars) for _, _, cvars in specs) * runs == _BLOCK_ROWS
    _ratio_block(specs[:1], 2, 10)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _ratio_block(specs, runs, horizon)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Trajectories and measurements take 4.8 MB. The engine's work arrays
    # and one step's temporaries take about 1.17 MB more; the statistics
    # come after the engine is dropped and take one trajectory-sized work
    # array, 0.8 MB. Holding the engine and two such arrays would pass 7 MB.
    held = len(specs) * runs * ((horizon + 1) * 8 + horizon * 16)
    assert peak < held + 1.2 * 2**20


def test_improvement_ratio_realness_covers_both_trackers():
    # At this point the baseline's estimates stray further from the real
    # line than the widely linear tracker's. 8 runs keep the bits of the
    # 16-row engine.
    model = PhaseModel(snr_db=10.0, rho_abs=0.7)
    _, ys = simulate_phase_batch(model, 100, 8, 2)
    drift = {tracker: track_batch(model, ys, tracker).max_imag for tracker in TRACKERS}
    assert drift["ukf"] > drift["uwlckf"]
    assert improvement_ratio(10.0, 0.7, 8, 100, 2).max_imag == drift["ukf"]


def test_improvement_ratio_never_loses_within_noise():
    for snr, rho in [(10.0, 0.5), (20.0, 0.7)]:
        res = improvement_ratio(snr, rho, 60, 300, 23)
        assert res.r_mean >= 1 - 2 * res.r_stderr


def test_track_batch_bits_do_not_depend_on_batch_size():
    # From 1,821 rows on, a (rows, 9) complex temporary is large enough for
    # numpy to reuse it in place; a product formed that way swaps its operands.
    model = PhaseModel(snr_db=10.0, rho_abs=0.7)
    _, ys = simulate_phase_batch(model, 20, 1900, 31)
    whole = track_batch(model, ys, "uwlckf")
    for start in range(0, 1900, 380):
        chunk = track_batch(model, ys[start:start + 380], "uwlckf")
        assert np.array_equal(whole.estimates[start:start + 380], chunk.estimates)
        assert np.array_equal(whole.variances[start:start + 380], chunk.variances)


@pytest.mark.parametrize("runs", [1, 3, 11, 200])
def test_improvement_ratios_match_points_run_alone(runs):
    # Mixed proper and improper points, so engines mix 1- and 2-copy points;
    # at 3 and 11 runs their row counts are not multiples of 4.
    points = [(0.0, 0.7, 5), (20.0, 0.0, 6), (10.0, 0.9, 7), (25.0, 0.0, 8), (5.0, 1.0, 9), (15.0, 0.3, 10)]
    alone = [improvement_ratio(snr, rho, runs, 30, seed) for snr, rho, seed in points]
    assert improvement_ratios(points, runs, 30) == alone


def test_improvement_ratios_share_engines_under_the_row_cap(monkeypatch):
    built = []

    class Recording(_BatchUWLCKF):
        def __init__(self, model, noise_var, noise_cvar):
            built.append(len(noise_cvar))
            super().__init__(model, noise_var, noise_cvar)

    monkeypatch.setattr("wlckf.phase._BatchUWLCKF", Recording)
    # Engines built in a forked child are not recorded here.
    monkeypatch.setattr("wlckf.parallel.cpu_count", lambda: 1)
    points = [(snr, 0.7, i) for i, snr in enumerate([0.0, 5.0, 10.0])] + [(20.0, 0.0, 3), (20.0, 0.5, 4)]
    improvement_ratios(points, 200, 5)
    # Engine rows per point: 400, 400, 400, 200 (proper noise is tracked
    # once) and 400; a block ends before it would pass the cap.
    assert built == [800, 600, 400]
    improvement_ratios([(20.0, 0.5, 0)], 450, 5)
    assert built[-1] == 900 > _BLOCK_ROWS


# Row counts of 11 and 22 are no multiples of 4, so each point has a block
# of its own: 6 blocks, in shares [0, 5], [1, 2] and [3, 4] at 3 processes.
_SPLIT_POINTS = [(0.0, 0.7, 5), (20.0, 0.0, 6), (10.0, 0.9, 7), (25.0, 0.0, 8), (5.0, 1.0, 9), (15.0, 0.3, 10)]


@pytest.mark.parametrize("processes", [1, 3])
def test_improvement_ratios_equal_one_process_result_at_any_process_count(monkeypatch, processes):
    alone = [improvement_ratio(snr, rho, 11, 30, seed) for snr, rho, seed in _SPLIT_POINTS]
    planned = []

    def recording_shares(weights, count):
        planned.append(count)
        return _shares(weights, count)

    monkeypatch.setattr("wlckf.parallel.cpu_count", lambda: processes)
    monkeypatch.setattr("wlckf.phase._shares", recording_shares)
    assert improvement_ratios(_SPLIT_POINTS, 11, 30) == alone
    assert planned == ([] if processes == 1 else [processes])
    assert multiprocessing.active_children() == []


def test_shares_place_the_largest_block_on_the_lightest_share():
    assert _shares([800, 800, 800, 600, 800, 800, 400], 2) == [[0, 2, 5], [1, 3, 4, 6]]
    assert _shares([1, 1, 1, 1, 1, 1], 3) == [[0, 3], [1, 4], [2, 5]]
    assert _shares([22, 11, 22, 11, 22, 22], 3) == [[0, 5], [1, 2], [3, 4]]
    assert _shares([5, 1, 1], 3) == [[0], [1], [2]]


@pytest.mark.parametrize("processes", [1, 3])
def test_improvement_ratios_raise_the_first_failing_block_from_a_child(monkeypatch, processes):
    # Blocks 1, 4 and 5 fail. At 3 processes, this process runs blocks 0
    # and 5, one child blocks 1 and 2, the other blocks 3 and 4: block 1's
    # error is raised, as it is when the blocks run one after another.
    def failing(block, mc_runs, horizon):
        seed = block[0][1]
        if seed in (6, 9, 10):
            raise DegenerateError(f"block of seed {seed} failed", index=(seed, 1))
        return _ratio_block(block, mc_runs, horizon)

    monkeypatch.setattr("wlckf.parallel.cpu_count", lambda: processes)
    monkeypatch.setattr("wlckf.phase._ratio_block", failing)
    with pytest.raises(DegenerateError, match="^block of seed 6 failed$") as info:
        improvement_ratios(_SPLIT_POINTS, 11, 30)
    assert type(info.value) is DegenerateError
    assert info.value.index == (6, 1)
    assert multiprocessing.active_children() == []


def test_improvement_ratios_name_a_child_that_dies(monkeypatch):
    parent = os.getpid()

    def dying(block, mc_runs, horizon):
        if os.getpid() != parent:
            os._exit(3)
        return _ratio_block(block, mc_runs, horizon)

    monkeypatch.setattr("wlckf.parallel.cpu_count", lambda: 3)
    monkeypatch.setattr("wlckf.phase._ratio_block", dying)
    with pytest.raises(WorkerError, match="exit code 3"):
        improvement_ratios(_SPLIT_POINTS, 11, 30)
    assert multiprocessing.active_children() == []


def test_improvement_ratios_fork_nothing_for_one_block_or_one_cpu(monkeypatch):
    def no_fork(*args):
        raise AssertionError("forked")

    monkeypatch.setattr("multiprocessing.context.ForkProcess.start", no_fork)
    monkeypatch.setattr("wlckf.parallel.cpu_count", lambda: 4)
    improvement_ratios(_SPLIT_POINTS[:1], 11, 30)
    monkeypatch.setattr("wlckf.parallel.cpu_count", lambda: 1)
    improvement_ratios(_SPLIT_POINTS, 11, 30)

def _nine_point_step(engine, y):
    # Reference: the step that evaluates the carrier at all 9 distinct
    # points and forms its noise terms, points and moments as (rows, k)
    # temporaries, all C-order: the layout of the points fixes the bits of
    # the @ _W_* products.
    a, b = engine.model.a, engine.model.b
    lam, rot = map(np.ascontiguousarray, _scalar_eigenpairs(engine.p, engine.pt))
    noise_lam, noise_axes = map(np.ascontiguousarray, (engine._noise_lam, engine._drive_axes))
    threshold = 1e-13 * np.maximum(lam[:, 0], engine._noise_top)
    phase_axes = SPREAD * np.sqrt(np.where(lam > threshold[:, None], lam, 0.0)) * rot
    keep = noise_lam > threshold[:, None, None]
    drive_axes = np.where(keep[:, 0], noise_axes, 0.0)
    meas_lam = np.where(keep[:, 1], noise_lam[:, 1], 0.0)
    r = meas_lam[:, 0] + meas_lam[:, 1]
    rt = (meas_lam[:, 0] - meas_lam[:, 1]) * engine._meas_dir

    m = engine.est[:, None]
    centre = a * m
    x = np.concatenate(
        [centre, a * (m + phase_axes), centre + b * drive_axes, a * (m - phase_axes), centre - b * drive_axes],
        axis=1,
    )
    carrier = np.exp(1j * x)
    x_pred = x @ _W_MEAN
    y_pred = carrier @ _W_MEAN
    dx = x - x_pred[:, None]
    dy = carrier - y_pred[:, None]
    p_pred = (dx.real**2 + dx.imag**2) @ _W_COV
    pt_pred = (dx * dx) @ _W_COV
    s = (dy.real**2 + dy.imag**2) @ _W_COV + r
    st = (dy * dy) @ _W_COV + rt
    dy_conj = np.conj(dy)
    p_xy = (dx * dy_conj) @ _W_COV
    pt_xy = (dx * dy) @ _W_COV

    det = s * s - np.abs(st) ** 2
    bad = det <= 1e-14 * np.maximum(s, 1e-300) ** 2
    det_safe = np.where(bad, 1.0, det)
    k1 = (p_xy * s - pt_xy * np.conj(st)) / det_safe
    k2 = (pt_xy * s - p_xy * st) / det_safe
    for i in np.nonzero(bad)[0]:
        s_full = np.array([[s[i], st[i]], [np.conj(st[i]), s[i]]])
        k1[i], k2[i] = np.array([p_xy[i], pt_xy[i]]) @ np.linalg.pinv(s_full)

    nu = y - y_pred
    engine.est = x_pred + k1 * nu + k2 * np.conj(nu)
    ksk = s * (np.abs(k1) ** 2 + np.abs(k2) ** 2) + 2 * np.real(k1 * np.conj(k2) * st)
    ksk_t = 2 * s * k1 * k2 + st * k1 * k1 + np.conj(st) * k2 * k2
    engine.p = p_pred - ksk
    engine.pt = pt_pred - ksk_t
    np.maximum(engine.max_imag, np.abs(engine.est.imag), out=engine.max_imag)


# The last model's measurement noise is maximally improper and 1e15 times
# the phase variances, so the innovation covariance of its even rows is
# singular on its scale and their gain takes the pseudo-inverse.
@pytest.mark.parametrize("model", [
    PhaseModel(snr_db=10.0, rho_abs=0.0), PhaseModel(snr_db=10.0, rho_abs=0.7), PhaseModel(snr_db=10.0, rho_abs=1.0),
    PhaseModel(snr_db=-150.0, rho_abs=1.0),
], ids=["0.0", "0.7", "1.0", "1.0-singular"])
@pytest.mark.parametrize("rows", [1, 3, 4, 801])
def test_step_matches_nine_point_reference_bit_for_bit(rows, model):
    # Rows alternate between the model's noise and proper noise. Every
    # third row from row 1 has its complementary variance halved before
    # each step, so its second phase eigenvalue survives the flush and its
    # points along that axis differ from the centre; from step 20 on the
    # last of 3 or more rows reads NaN. Before step 10, row 0's variances are
    # forced to 2e12, above 1e13 times its measurement-noise eigenvalues at
    # 10 dB, so from then on the flush drops them in that row and the step
    # forms its noise terms anew.
    _, ys = simulate_phase_batch(model, 60, rows, 37)
    if rows >= 3:
        ys[-1, 20:] = np.nan
    noise_cvar = np.where(np.arange(rows) % 2 == 0, model.noise_cvar, 0j)
    engines = [_BatchUWLCKF(model, np.full(rows, model.noise_var), noise_cvar) for _ in range(2)]
    halved = np.arange(rows) % 3 == 1
    for t in range(60):
        for engine in engines:
            engine.pt[halved] = 0.5 * engine.p[halved]
            if t == 10:
                engine.p[0] = engine.pt[0] = 2e12
        with np.errstate(invalid="ignore"):
            engines[0].step(ys[:, t])
            _nine_point_step(engines[1], ys[:, t])
        for name in ("est", "p", "pt", "max_imag"):
            got, want = getattr(engines[0], name), getattr(engines[1], name)
            assert np.array_equal(got, want, equal_nan=True), (name, t)
    assert np.isfinite(engines[0].est[: rows - (rows >= 3)]).all()
