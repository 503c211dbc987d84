import contextlib
import gc
import io
import json
import multiprocessing
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlckf import cli
from wlckf.augmented import AugmentedMatrix, augmented_to_real, augmented_to_real_matrix, full_to_real_matrix
from wlckf.cli import main
from wlckf.errors import DimensionError, WorkerError
from wlckf.linear import ckf_run, model_from_real, real_kf_run, simulate_linear, wlckf_run
from wlckf.mse import AGREE, steady_state_gains
from wlckf.stats import substream

DATA = Path(__file__).parent / "data"


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_equivalence_default_small(tmp_path, capsys):
    out = tmp_path / "eq.csv"
    code = main(["equivalence", "--trials", "5", "--horizon", "40", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["trial", "n", "m", "horizon", "estimate_dev", "cov_dev", "ckf_dev"]
    assert len(rows) == 5
    for row in rows:
        assert float(row[4]) < 1e-9
        assert float(row[5]) < 1e-9


def test_equivalence_proper_mode_checks_ckf(tmp_path, monkeypatch):
    out = tmp_path / "eq.csv"
    args = ["equivalence", "--trials", "3", "--horizon", "30", "--proper", "--out", str(out)]
    code = main(args)
    assert code == 0
    _, rows = read_rows(out)
    for row in rows:
        assert float(row[6]) < 1e-12

    # ckf_dev compares the strictly linear filter with the real oracle, so a
    # filter off by 1e-6 in its estimate or in its covariance fails the gate.
    def corrupt_estimate(x, p):
        return x * (1 + 1e-6), p

    def corrupt_cov(x, p):
        return x, p * (1 + 1e-6)

    ckf_batch = cli.ckf_batch
    for corrupt in (corrupt_estimate, corrupt_cov):
        def corrupted(models, measurements, corrupt=corrupt):
            return (corrupt(x, p) for x, p in ckf_batch(models, measurements))

        monkeypatch.setattr(cli, "ckf_batch", corrupted)
        assert main(args) == 1
        _, rows = read_rows(out)
        for row in rows:
            assert float(row[4]) < 1e-12 and float(row[5]) < 1e-12
            assert float(row[6]) > 1e-7


def test_equivalence_trial_matches_per_step_deviations():
    seed, n, horizon = 3, 2, 50
    est_devs, cov_devs, ckf_devs = cli.equivalence_trial(seed, range(20), n, n, horizon, proper=True).T
    for trial in range(20):
        e, f, g, q, r, pi = cli.random_real_model(substream(seed, trial), n, n, proper=True)
        model = model_from_real(e, f, g, q, r, pi)
        _, meas = simulate_linear(model, horizon, substream(seed, trial, 1))
        refs = real_kf_run(e, f, g, q, r, pi, [np.concatenate([y.real, y.imag]) for y in meas])

        def per_step(reports):
            est_dev = cov_dev = 0.0
            for rep, ref in zip(reports, refs, strict=True):
                est = augmented_to_real(rep.state.estimate)
                cov = augmented_to_real_matrix(rep.state.cov, "covariance")
                est_dev = max(est_dev, float(np.max(np.abs(est - ref.mean))) / max(1.0, float(np.max(np.abs(ref.mean)))))
                cov_dev = max(cov_dev, float(np.max(np.abs(cov - ref.cov))) / max(1.0, float(np.max(np.abs(ref.cov)))))
            return est_dev, cov_dev

        assert (est_devs[trial], cov_devs[trial]) == per_step(wlckf_run(model, meas))
        assert ckf_devs[trial] == max(per_step(ckf_run(model, meas)))


@pytest.mark.parametrize("n, proper", [(1, False), (1, True), (8, False)])
def test_equivalence_trial_alone_equals_its_row_in_a_batch(n, proper):
    seed, horizon = 1, 20
    batch = cli.equivalence_trial(seed, range(20), n, n, horizon, proper)
    assert batch.shape == (20, 3)
    for trial in range(20):
        alone = cli.equivalence_trial(seed, [trial], n, n, horizon, proper)
        assert np.array_equal(alone[0], batch[trial], equal_nan=True)


def test_composite_matrices_are_c_contiguous():
    # numpy's matmul rounds a strided view apart from a contiguous array, so
    # every composite matrix, and so the oracle's input in every trial, has one layout.
    aug = AugmentedMatrix(np.array([[1 + 2j, 0.5]]), np.array([[0.5j, -1.0]]))
    assert augmented_to_real_matrix(aug, "system").flags.c_contiguous
    assert full_to_real_matrix(np.stack([aug.full()] * 3), "system").flags.c_contiguous
    for n in (1, 2):
        for seed in range(20):
            for matrix in cli.random_real_model(np.random.default_rng(seed), n, n, proper=True):
                assert matrix.flags.c_contiguous


def test_equivalence_nan_deviation_fails_gate(tmp_path, monkeypatch):
    def nan_estimates(run):
        def patched(models, measurements):
            return ((x * np.nan, p) for x, p in run(models, measurements))

        return patched

    out = tmp_path / "eq.csv"
    args = ["equivalence", "--trials", "2", "--horizon", "5", "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "wlckf_batch", nan_estimates(cli.wlckf_batch))
        assert main(args) == 1
    _, rows = read_rows(out)
    assert [row[4] for row in rows] == ["nan", "nan"]

    # ckf_dev is gated only under --proper, and a NaN there fails it too.
    monkeypatch.setattr(cli, "ckf_batch", nan_estimates(cli.ckf_batch))
    assert main(args) == 0
    assert main([*args, "--proper"]) == 1
    _, rows = read_rows(out)
    assert [row[6] for row in rows] == ["nan", "nan"]


def test_equivalence_exit_one_on_threshold(tmp_path):
    out = tmp_path / "eq.csv"
    code = main(["equivalence", "--trials", "2", "--horizon", "10", "--max-dev", "0", "--out", str(out)])
    assert code == 1


def test_malformed_config_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["equivalence", "--config", str(cfg)])
    assert code == 2


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    code = main(["mse-sweep", "--config", str(cfg)])
    assert code == 2


def test_non_numeric_count_exits_two(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trials": "5"}))
    code = main(["equivalence", "--config", str(cfg), "--out", str(tmp_path / "eq.csv")])
    assert code == 2
    assert not (tmp_path / "eq.csv").exists()


def test_mismatched_experiment_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "phase-demod"}))
    code = main(["mse-sweep", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("phase-demod", ["--runs", "0"], None),
        ("phase-demod", ["--horizon", "0"], None),
        ("phase-demod", ["--rho-list", "1.2"], None),
        ("equivalence", ["--seed", "-1"], None),
        ("equivalence", ["--state-dim", "0"], None),
        ("equivalence", ["--horizon", "0"], None),
        ("equivalence", ["--trials", "0"], None),
        ("mse-sweep", ["--rho-w", "1.5"], None),
        ("mse-sweep", ["--horizon", "0"], None),
        ("theta-bound", ["--draws", "0"], None),
        ("theta-bound", ["--t-max", "0"], None),
        ("mse-sweep", [], {"panels": [[-20.0]]}),
        ("mse-sweep", [], {"panels": [[-20.0, "x"]]}),
        ("mse-sweep", [], {"tol": -1}),
        ("mse-sweep", [], {"tol": 0}),
        ("phase-demod", [], {"snr_list": ["a"]}),
        ("phase-demod", [], {"r_snr": "a"}),
        ("phase-demod", [], {"traj_snr": "a"}),
        ("equivalence", [], {"seed": True}),
        ("equivalence", [], {"proper": "false"}),
        ("equivalence", [], {"state_dim": 1.5, "trials": 2.7}),
        ("phase-demod", [], {"runs": 2.5}),
        ("mse-sweep", [], {"max_iter": 10.0}),
        ("phase-demod", ["--r-snr", "-4000"], None),
        ("phase-demod", [], {"snr_list": [0.0, -4000.0]}),
        ("phase-demod", [], {"traj_snr": -4000.0}),
        ("mse-sweep", [], {"panels": [[4000, -20]]}),
        ("mse-sweep", [], {"panels": [[200, 170]], "rho_w": [1.0], "rho_n": [1.0],
                           "rho_w_phase": 1.5707963267948966, "rho_n_phase": 1.2}),
        ("mse-sweep", [], {"panels": [[-20, -4000]]}),
        ("equivalence", [], {"out": 5}),
        ("theta-bound", [], {"out": ""}),
        ("phase-demod", [], {"r_snr": 10**400}),
        ("mse-sweep", [], {"tol": 10**400}),
        ("equivalence", [], {"max_dev": 10**400}),
        ("mse-sweep", [], {"panels": [[10**400, -20]]}),
        ("mse-sweep", [], {"rho_w": [10**400]}),
        ("phase-demod", [], {"horizon": 10**400}),
        ("theta-bound", [], {"t_max": 10**400}),
        ("equivalence", [], [1, 2]),
        ("theta-bound", [], {"format": "xml"}),
    ],
    ids=[
        "runs", "horizon", "rho",
        "equivalence-seed", "equivalence-state-dim", "equivalence-horizon", "equivalence-trials",
        "mse-sweep-rho", "mse-sweep-horizon",
        "theta-bound-draws", "theta-bound-t-max",
        "mse-sweep-panel-one-number", "mse-sweep-panel-text", "mse-sweep-tol-negative", "mse-sweep-tol-zero",
        "snr-list-text", "r-snr-text", "traj-snr-text",
        "equivalence-seed-bool", "equivalence-proper-text",
        "equivalence-fractional-counts", "fractional-runs", "mse-sweep-float-max-iter",
        "r-snr-overflow", "snr-list-overflow", "traj-snr-overflow", "mse-sweep-panel-overflow",
        "mse-sweep-panel-200db", "mse-sweep-panel-underflow",
        "out-number", "out-empty",
        "r-snr-huge-int", "mse-sweep-tol-huge-int", "equivalence-max-dev-huge-int",
        "mse-sweep-panel-huge-int", "mse-sweep-rho-w-huge-int", "horizon-huge-int", "theta-bound-t-max-huge-int",
        "config-not-an-object", "config-format-xml",
    ],
)
def test_phase_demod_bad_config_exits_two_before_writing(tmp_path, capsys, command, flags, config):
    out_dir = tmp_path / "out"
    args = [command, *flags]
    # A config's own out is validated only when no --out overrides it.
    if "out" not in (config or {}):
        args += ["--out", str(out_dir / "out.csv")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code = main(args)
    assert code == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["equivalence", "theta-bound"])
@pytest.mark.parametrize("target", ["directory", "under-a-file"])
def test_unwritable_out_exits_two(tmp_path, capsys, command, target):
    (tmp_path / "file").write_text("")
    out = tmp_path if target == "directory" else tmp_path / "file" / "out.csv"
    assert main([command, "--trials" if command == "equivalence" else "--draws", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_phase_demod_non_finite_table_fails_gate(tmp_path, capsys):
    # A noise variance of 1e300 overflows the tracker's gain for rho > 0.
    out = tmp_path / "pd.csv"
    assert main(["phase-demod", "--runs", "2", "--horizon", "5", "--r-snr", "-3000", "--out", str(out)]) == 1
    _, rows = read_rows(tmp_path / "pd_r_rho.csv")
    assert any(value == "nan" for row in rows for value in row)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"phase-demod: non-finite values in {tmp_path / 'pd_r_rho.csv'}"]


def test_mse_sweep_zero_grid_gives_ones(tmp_path):
    out = tmp_path / "ms.csv"
    code = main(["mse-sweep", "--rho-w", "0", "--rho-n", "0", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 3  # one per panel
    for row in rows:
        assert float(row[4]) == pytest.approx(1.0, abs=1e-9)


def test_mse_sweep_monotone_and_at_least_one(tmp_path):
    out = tmp_path / "ms.csv"
    code = main(["mse-sweep", "--rho-w", "0,0.4,0.8", "--rho-n", "0,0.4,0.8", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    for row in rows:
        assert float(row[4]) >= 1 - 1e-9


def test_mse_sweep_golden_regression(tmp_path):
    out = tmp_path / "golden.csv"
    code = main(["mse-sweep", "--config", str(DATA / "mse_sweep_config.json"), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "mse_sweep_golden.csv").read_bytes()


def test_mse_sweep_unsorted_grid_keeps_row_order_and_passes(tmp_path, capsys):
    out = tmp_path / "ms.csv"
    code = main(["mse-sweep", "--rho-w", "0.8,0.4", "--rho-n", "0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "mse-sweep: 6 points, invariants ok\n"
    _, rows = read_rows(out)
    assert [row[0] for row in rows] == ["0.8", "0.4"] * 3
    # The surface itself is monotone: the larger |rho_w| gains more.
    assert float(rows[0][4]) > float(rows[1][4])


def test_mse_sweep_names_first_failing_panel(tmp_path, capsys):
    # Both noises maximally improper, 72 degrees apart in orientation: the
    # ratio is unbounded at every N1 - N2, so the first panel fails.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "panels": [[-20, -20], [50, -40], [3000, -20]],
        "rho_w": [1.0], "rho_n": [1.0], "rho_w_phase": 1.5707963267948966, "rho_n_phase": 1.2,
    }))
    out = tmp_path / "out" / "ms.csv"
    assert main(["mse-sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not out.parent.exists()
    assert capsys.readouterr().err == (
        "config error: panel [-20, -20]: both noises are maximally improper, in different orientations: "
        "the MSE ratio is unbounded\n"
    )


def test_mse_sweep_names_a_panel_whose_driving_noise_absorbs_the_posterior(tmp_path, capsys):
    # |rho_w| = 1 gives the driving noise a singular covariance Q; at 200 dB,
    # P + Q rounds to Q and the recursion loses P. With |rho_n| = 1 in another
    # orientation the ratio is unbounded, and the panel is named.
    config = {
        "panels": [[200, -20]], "rho_w": [0, 1], "rho_n": [0, 1],
        "rho_w_phase": 1.5707963267948966, "rho_n_phase": 1.2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out" / "ms.csv"
    assert main(["mse-sweep", "--config", str(path), "--out", str(out)]) == 2
    assert not out.parent.exists()
    assert capsys.readouterr().err == (
        "config error: panel [200, -20]: both noises are maximally improper, in different orientations: "
        "the MSE ratio is unbounded\n"
    )
    # With |rho_n| = 0.999 every row has a value: the closed form's (60-digit
    # values 1, 2 and 68.92741682715) where the lost part of P changes the
    # recursion's limit.
    path.write_text(json.dumps({**config, "rho_n": [0, 0.999]}))
    assert main(["mse-sweep", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    ratios = [float(row[4]) for row in rows]
    assert ratios[0] == 1.0 and abs(ratios[1] - 1) < 1e-9
    assert abs(ratios[2] - 2) < 2e-6 and abs(ratios[3] - 68.9274168271548) < 1e-9
    assert rows[3][5] == "0"


def test_mse_sweep_far_stronger_driving_noise_keeps_invariants(tmp_path, capsys):
    # N1 - N2 = 120 dB: P - K P cancels, and the posterior is taken as K R.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"panels": [[100, -20]]}))
    out = tmp_path / "ms.csv"
    assert main(["mse-sweep", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "mse-sweep: 49 points, invariants ok\n"
    _, rows = read_rows(out)
    ratios = np.array([float(row[4]) for row in rows]).reshape(7, 7)
    assert (ratios >= 1 - 1e-9).all() and ratios[0, 0] == 1.0
    assert (np.diff(ratios, axis=0) >= -1e-9).all() and (np.diff(ratios, axis=1) >= -1e-9).all()


@pytest.mark.parametrize(
    "panel, grid",
    [
        ([3000, -20], None),
        ([-3200, -3210], [0, 0.5]),
        ([-3300, -1600], [0, 0.5]),
        ([-3300, -3080], [0, 0.5]),
    ],
    ids=[
        "mse-sweep-panel-3000db", "mse-sweep-panel-subnormal",
        "mse-sweep-drive-underflow", "mse-sweep-drive-underflow-writes-rows",
    ],
)
def test_mse_sweep_extreme_powers_closed_form(tmp_path, capsys, panel, grid):
    # Powers whose 2x2 squares overflow, or that are zero or subnormal as
    # doubles, but lie within the normal doubles of each other: each row is
    # the closed form of the same N1 - N2 at 0 dB, with converged_iters 0.
    config = {"panels": [panel]} if grid is None else {"panels": [panel], "rho_w": grid, "rho_n": grid}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "ms.csv"
    assert main(["mse-sweep", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_rows(out)
    ws = np.array([float(row[0]) for row in rows])
    ns = np.array([float(row[1]) for row in rows]) * 1j
    shifted = cli.mse.steady_state_gains(ws, ns, panel[0] - panel[1], 0.0).ratio
    ratios = np.array([float(row[4]) for row in rows])
    assert (np.abs(ratios - shifted) <= 1e-12 * shifted).all()
    assert {row[5] for row in rows} == {"0"}


def test_mse_sweep_writes_the_closed_form_where_the_recursion_does_not_converge(tmp_path, capsys):
    # With N1 80 dB below N2 the recursion relaxes over about 10^4 steps, and
    # no member converges by max_iter: every row is the closed form.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"panels": [[-100, -20]]}))
    out = tmp_path / "ms.csv"
    assert main(["mse-sweep", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "mse-sweep: 49 points, invariants ok\n"
    _, rows = read_rows(out)
    ws = np.array([float(row[0]) for row in rows])
    ns = np.array([float(row[1]) for row in rows]) * 1j
    closed = cli.mse.steady_state_gains(ws, ns, -100.0, -20.0).ratio
    ratios = np.array([float(row[4]) for row in rows])
    assert (np.abs(ratios - closed) <= 1e-6 * closed).all()
    assert {row[5] for row in rows} == {"0"}
    (row,) = [row for row in rows if row[:2] == ["0.4", "0.8"]]
    assert abs(float(row[4]) - 1.16098031097) < 1e-9 and row[5] == "0"


def test_mse_sweep_equal_orientations_pass_the_gate(tmp_path, capsys):
    # The surface dips to exactly 1 wherever |rho_w| = |rho_n|: it is not
    # monotone, and the gate checks only ratio >= 1 and the origin.
    out = tmp_path / "ms.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rho_n_phase": 0.0}))
    assert main(["mse-sweep", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "mse-sweep: 147 points, invariants ok\n"
    _, rows = read_rows(out)
    diagonal = [float(row[4]) for row in rows if row[0] == row[1]]
    assert len(diagonal) == 21 and all(abs(ratio - 1) < 1e-9 for ratio in diagonal)
    assert any(float(row[4]) > 1.01 for row in rows)


def test_mse_sweep_both_noises_on_the_unit_circle_hold_the_closed_form(tmp_path, capsys):
    # rho_w = rho_n = j: the ratio is exactly 1, but the recursion stops on the
    # absolute tol while its MSE is near 1e-5, 1.4e-8 short of it.
    out = tmp_path / "ms.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "panels": [[55.12035768589405, 21.95668356339951], [-48.659035960251806, -52.237543542832555]],
        "rho_w": [0.23193390914271605, 1.0], "rho_n": [1.0],
        "rho_w_phase": 1.5707963267948966, "rho_n_phase": 1.5707963267948966,
    }))
    assert main(["mse-sweep", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "mse-sweep: 4 points, invariants ok\n"
    _, rows = read_rows(out)
    on_circle = [row for row in rows if row[0] == row[1] == "1.0"]
    assert len(on_circle) == 2
    assert all(abs(float(row[4]) - 1) <= 1e-12 and row[5] == "0" for row in on_circle)


# Tables written at the commit before phase-demod shared its tracking
# engines between operating points. At 11 runs a point's engine row count
# is no multiple of 4, which grouping must respect to keep the bits.
PHASE_GOLDENS = {
    "default": ["--runs", "200", "--horizon", "40"],
    "runs11": ["--runs", "11", "--horizon", "40", "--snr-list", "0,10,25", "--rho-list", "0.5,0,0.9,0,1", "--seed", "3"],
    # Negative SNR, nearly and exactly maximally improper noise.
    "extreme": ["--runs", "24", "--horizon", "120", "--snr-list=-20,-10,0,40,60", "--rho-list", "0,0.5,0.99,1.0",
                "--r-snr=-5", "--seed", "9"],
}


@pytest.mark.parametrize("name", sorted(PHASE_GOLDENS))
def test_phase_demod_golden_regression(tmp_path, name):
    out = tmp_path / "pd.csv"
    assert main(["phase-demod", *PHASE_GOLDENS[name], "--out", str(out)]) == 0
    for table in ("trajectory", "xi_snr", "r_rho"):
        got = (tmp_path / f"pd_{table}.csv").read_bytes()
        assert got == (DATA / f"phase_demod_{name}_{table}.csv").read_bytes(), table


def test_phase_demod_default_lists_share_bounded_engines(tmp_path, monkeypatch):
    built = []

    class Recording(cli.phase._BatchUWLCKF):
        def __init__(self, model, noise_var, noise_cvar):
            built.append(len(noise_cvar))
            super().__init__(model, noise_var, noise_cvar)

    monkeypatch.setattr(cli.phase, "_BatchUWLCKF", Recording)
    # Engines built in a forked child are not recorded here.
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 1)
    assert main(["phase-demod", "--horizon", "3", "--out", str(tmp_path / "pd.csv")]) == 0
    points = len(cli._DEFAULTS["phase-demod"]["snr_list"]) + len(cli._DEFAULTS["phase-demod"]["rho_list"])
    # The trajectory's one-row engine counts too.
    assert max(built) <= cli.phase._BLOCK_ROWS
    assert len(built) < points


@pytest.mark.parametrize("name, flags", [
    ("equivalence_golden", []),
    ("equivalence_proper_golden", ["--proper"]),
    ("equivalence_n8_golden", ["--state-dim", "8", "--meas-dim", "8", "--trials", "20"]),
])
def test_equivalence_golden_regression(tmp_path, name, flags):
    out = tmp_path / "eq.csv"
    assert main(["equivalence", *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_theta_bound_golden_regression(tmp_path):
    out = tmp_path / "theta.csv"
    assert main(["theta-bound", "--draws", "200", "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "theta_bound_golden.csv").read_bytes()


def test_mse_sweep_keeps_json_config_integers(tmp_path):
    config = tmp_path / "ints.json"
    config.write_text(json.dumps({"rho_w": [0, 0.5], "rho_n": [0], "panels": [[-20, -20], [-20.0, -40]]}))
    out = tmp_path / "ints.csv"
    assert main(["mse-sweep", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text() == (
        "rho_w_abs,rho_n_abs,N1_db,N2_db,ratio,converged_iters\n"
        "0,0,-20,-20,0.9999999999999996,14\n"
        "0.5,0,-20,-20,1.0420922386844722,18\n"
        "0,0,-20.0,-40,1.0000000000000053,4\n"
        "0.5,0,-20.0,-40,1.0031442834029227,4\n"
    )
    out_json = tmp_path / "ints.json.out"
    assert main(["mse-sweep", "--config", str(config), "--format", "json", "--out", str(out_json)]) == 0
    records = json.loads(out_json.read_text())
    assert [(r["rho_w_abs"], r["N1_db"], r["N2_db"]) for r in records] == [(0, -20, -20), (0.5, -20, -20), (0, -20.0, -40), (0.5, -20.0, -40)]
    assert '"N1_db": -20,' in out_json.read_text() and '"N1_db": -20.0,' in out_json.read_text()


def test_config_ints_and_seeds_beyond_int64_are_written_verbatim(tmp_path):
    config = tmp_path / "ints.json"
    config.write_text(json.dumps({"rho_w": [0, 1], "rho_n": [0.5], "panels": [[-20, -20]]}))
    sweep = {fmt: tmp_path / f"sweep.{fmt}" for fmt in ("csv", "json")}
    for fmt, out in sweep.items():
        with contextlib.redirect_stdout(io.StringIO()):
            main(["mse-sweep", "--config", str(config), "--format", fmt, "--out", str(out)])
    lines = sweep["csv"].read_text().splitlines()
    assert [line.rsplit(",", 2)[0] for line in lines[1:]] == ["0,0.5,-20,-20", "1,0.5,-20,-20"]
    records = json.loads(sweep["json"].read_text())
    assert [[r[k] for k in ("rho_w_abs", "N1_db", "N2_db")] for r in records] == [[0, -20, -20], [1, -20, -20]]
    assert all(type(r[k]) is int for r in records for k in ("rho_w_abs", "N1_db", "N2_db", "converged_iters"))
    seed = 1180591620717411303424
    for fmt in ("csv", "json"):
        out = tmp_path / f"phase.{fmt}"
        argv = ["phase-demod", "--seed", str(seed), "--runs", "2", "--horizon", "5", "--format", fmt, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
        for tag, base in (("xi_snr", seed + 20_000), ("r_rho", seed + 30_000)):
            text = (tmp_path / f"phase_{tag}.{fmt}").read_text()
            if fmt == "csv":
                rows = [line.split(",") for line in text.splitlines()[1:]]
                assert rows and [row[-1] for row in rows] == [str(base + i) for i in range(len(rows))]
                assert {row[2] for row in rows} == {"2"}
            else:
                records = json.loads(text)
                assert records and [r["seed"] for r in records] == [base + i for i in range(len(records))]
                assert {r["runs"] for r in records} == {2} and f'"seed": {base}\n' in text


_WRITER_ROWS = [
    [0, 0.1, float("nan"), 3, 0.25, -0.0, 1, 1e-300, float("inf")],
    [-7, 2.5e17, np.nan, 0.0, -1e22, 7, 0, 123456789012345678901234567890, -float("inf")],
]
# Values that are not exact floats or ints, which no table may hold.
_NOT_TABLE_VALUES = [np.float64(0.5), np.int64(3), np.float32(0.25), True, "x"]


def _columns(rows, width):
    """``rows`` as ``width`` numpy columns: of numpy's dtype where that keeps every value's type, of objects otherwise."""
    columns = []
    for values in list(zip(*rows)) or [()] * width:
        column = np.array(values)
        if list(map(type, column.tolist())) != list(map(type, values)):
            column = np.array(values, dtype=object)
        columns.append(column)
    return columns


def _joined_text(header, rows, fmt):
    """Reference: the table as one string, formatted value by value."""
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    return json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [_WRITER_ROWS, _WRITER_ROWS[:1], []], ids=["two", "one", "empty"])
def test_write_rows_streams_the_joined_text(tmp_path, fmt, rows):
    header = list("abcdefghi")
    path = tmp_path / "sub" / f"table.{fmt}"
    cli.write_rows(path, header, _columns(rows, len(header)), fmt)
    assert path.read_text(encoding="utf-8") == _joined_text(header, rows, fmt)


def test_write_rows_formats_each_type_as_before(tmp_path):
    path = tmp_path / "table.csv"
    cli.write_rows(path, list("abcdefghi"), _columns(_WRITER_ROWS, 9), "csv")
    assert path.read_bytes() == (
        b"a,b,c,d,e,f,g,h,i\n"
        b"0,0.1,nan,3,0.25,-0.0,1,1e-300,inf\n"
        b"-7,2.5e+17,nan,0.0,-1e+22,7,0,123456789012345678901234567890,-inf\n"
    )
    cli.write_rows(path, ["a", "b"], [np.array([0.5]), np.array([2])], "json")
    assert path.read_bytes() == b'[\n {\n  "a": 0.5,\n  "b": 2\n }\n]\n'
    cli.write_rows(path, ["a"], [np.array([np.nan])], "json")
    assert path.read_bytes() == b'[\n {\n  "a": NaN\n }\n]\n'
    # Numpy scalars, bools and strings are no table values, in either format.
    for fmt in ("csv", "json"):
        for value in _NOT_TABLE_VALUES:
            with pytest.raises(TypeError):
                cli.write_rows(path, ["a", "b"], [np.array([1.0]), np.array([value], dtype=object)], fmt)


def test_write_rows_formats_each_chunk_by_its_own_types(tmp_path):
    # Over three chunks of exact ints and floats, then a later chunk that also
    # holds a value that is no table value: every chunk is checked.
    rows = [[i, i / 7.0, -1e-300 * i] for i in range(3 * cli.WRITE_CHUNK + 5)] + [[1, 2.0, -0.0]]
    for fmt in ("csv", "json"):
        path = tmp_path / f"table.{fmt}"
        cli.write_rows(path, ["a", "b", "c"], _columns(rows, 3), fmt)
        assert path.read_text(encoding="utf-8") == _joined_text(["a", "b", "c"], rows, fmt)
        for value in _NOT_TABLE_VALUES:
            with pytest.raises(TypeError):
                cli.write_rows(path, ["a", "b", "c"], _columns([*rows[:-1], [1, value, -0.0]], 3), fmt)


def test_theta_bound_csv_is_its_json_records_across_batches_and_chunks(tmp_path, monkeypatch):
    draws = 8300
    assert draws > cli.DRAW_BATCH and draws > 4 * cli.WRITE_CHUNK
    # 33 chunks are enough for 3 processes, so each forced count is used.
    assert draws > 2 * cli.FORK_CHUNKS * cli.WRITE_CHUNK
    alone = {}
    for processes in (1, 2, 3):
        monkeypatch.setattr(cli.parallel, "cpu_count", lambda: processes)
        csv_path, json_path = tmp_path / f"tb{processes}.csv", tmp_path / f"tb{processes}.json"
        assert main(["theta-bound", "--draws", str(draws), "--out", str(csv_path)]) == 0
        assert main(["theta-bound", "--draws", str(draws), "--format", "json", "--out", str(json_path)]) == 0
        assert multiprocessing.active_children() == []
        for path in (csv_path, json_path):
            assert path.read_bytes() == alone.setdefault(path.suffix, path.read_bytes()), (processes, path.suffix)
    # JSON floats round-trip exactly, so their repr is the CSV's text.
    records = json.loads(json_path.read_text())
    assert [r["draw"] for r in records] == list(range(draws))
    expected = _joined_text(list(records[0]), [list(r.values()) for r in records], "csv")
    assert csv_path.read_bytes() == expected.encode()


# Enough rows for a table dealt between 2 processes, chunk 1 a child's.
_DEALT_ROWS = [[i, i / 7.0, -1e-300 * i] for i in range(cli.FORK_CHUNKS * cli.WRITE_CHUNK)]


def _no_fork(*args):
    raise AssertionError("forked")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_rows_raises_the_type_error_of_a_chunk_a_child_formats(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 2)
    rows = list(_DEALT_ROWS)
    rows[cli.WRITE_CHUNK + 3] = [1, np.float64(0.5), 0.0]
    with pytest.raises(TypeError, match="float64"):
        cli.write_rows(tmp_path / f"table.{fmt}", ["a", "b", "c"], _columns(rows, 3), fmt)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ragged", [-1, 1], ids=["short", "long"])
def test_write_rows_rejects_a_row_that_does_not_match_the_header(tmp_path, monkeypatch, fmt, ragged):
    # Formatting by column would drop the values past the shortest column,
    # so a table holds one column per header name, all of one length. Both
    # are checked before any fork, on a table large enough to be dealt
    # between 2 processes, and before the output directory is made.
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 2)
    monkeypatch.setattr("multiprocessing.context.ForkProcess.start", _no_fork)
    path = tmp_path / "sub" / f"table.{fmt}"
    a, b, c = _columns(_DEALT_ROWS, 3)
    for columns in ([a, np.resize(b, len(b) + ragged), c], [a, b, c, c][: 3 + ragged]):
        with pytest.raises(DimensionError, match="one column per header name"):
            cli.write_rows(path, ["a", "b", "c"], columns, fmt)
    assert multiprocessing.active_children() == []
    assert not path.parent.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_rows_rejects_columns_that_do_not_match_the_header(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr("multiprocessing.context.ForkProcess.start", _no_fork)
    path = tmp_path / "sub" / f"table.{fmt}"
    cases = [
        (["a", "b"], [np.arange(3)]),
        (["a"], [np.arange(3), np.ones(3)]),
        (["a"], [np.ones((3, 1))]),
        ([], []),
    ]
    for header, columns in cases:
        with pytest.raises(DimensionError, match="one column per header name"):
            cli.write_rows(path, header, columns, fmt)
    assert not path.parent.exists()


def test_theta_bound_holds_little_beyond_its_table_columns(tmp_path, monkeypatch):
    # One process formats the whole table. The sweep keeps running bounds,
    # so no (draws, t_max) ratio array is ever held.
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 1)
    draws = 20_000
    argv = ["theta-bound", "--draws", str(draws), "--out", str(tmp_path / "theta.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["theta-bound", "--draws", "300", "--out", str(tmp_path / "warm.csv")]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    # The draw index, six parameters and two bounds, one float or int each.
    columns = 9 * 8 * draws
    assert peak < columns + 2**20


def test_write_rows_names_a_child_that_dies(tmp_path, monkeypatch):
    parent = os.getpid()

    class Dying(np.ndarray):
        def __getitem__(self, part):
            if os.getpid() != parent:
                os._exit(3)
            return super().__getitem__(part)

    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 2)
    columns = [column.view(Dying) for column in _columns(_DEALT_ROWS, 3)]
    with pytest.raises(WorkerError, match="exit code 3"):
        cli.write_rows(tmp_path / "table.csv", ["a", "b", "c"], columns, "csv")
    assert multiprocessing.active_children() == []


def test_write_rows_forks_nothing_for_a_small_table_or_one_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr("multiprocessing.context.ForkProcess.start", _no_fork)
    path = tmp_path / "table.csv"
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 4)
    cli.write_rows(path, ["a", "b", "c"], _columns(_DEALT_ROWS[: (cli.FORK_CHUNKS - 1) * cli.WRITE_CHUNK], 3), "csv")
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 1)
    cli.write_rows(path, ["a", "b", "c"], _columns(_DEALT_ROWS, 3), "csv")
    assert path.read_text(encoding="utf-8") == _joined_text(["a", "b", "c"], _DEALT_ROWS, "csv")


def test_unwritable_out_of_a_dealt_table_exits_two_and_ends_every_child(tmp_path, monkeypatch, capsys):
    # The children are forked before the directory fails to open as a file.
    monkeypatch.setattr(cli.parallel, "cpu_count", lambda: 3)
    assert main(["theta-bound", "--draws", str(3 * cli.FORK_CHUNKS * cli.WRITE_CHUNK), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write ")
    assert multiprocessing.active_children() == []


def test_outputs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["theta-bound", "--draws", "200", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_theta_bound_bounds_hold(tmp_path):
    out = tmp_path / "tb.csv"
    code = main(["theta-bound", "--draws", "500", "--out", str(out)])
    assert code == 0
    header, rows = read_rows(out)
    lo = min(float(r[header.index("theta_min")]) for r in rows)
    hi = max(float(r[header.index("theta_max")]) for r in rows)
    assert lo >= 0.5 - 1e-12
    assert hi <= 1 + 1e-12


def test_json_format(tmp_path):
    out = tmp_path / "eq.json"
    code = main(["equivalence", "--trials", "2", "--horizon", "10", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    assert set(payload[0]) == {"trial", "n", "m", "horizon", "estimate_dev", "cov_dev", "ckf_dev"}


def test_phase_demod_small(tmp_path):
    out = tmp_path / "pd.csv"
    code = main([
        "phase-demod", "--runs", "8", "--horizon", "60", "--out", str(out),
        "--snr-list", "10,20", "--rho-list", "0,0.7",
    ])
    assert code == 0
    header, traj = read_rows(tmp_path / "pd_trajectory.csv")
    assert header == ["t", "theta", "theta_hat", "sqrt_p"]
    assert len(traj) == 60
    header, xi_rows = read_rows(tmp_path / "pd_xi_snr.csv")
    assert header == ["snr_db", "rho_abs", "runs", "xi_uwlckf", "xi_ukf", "r", "r_stderr", "seed"]
    assert len(xi_rows) == 2
    header, r_rows = read_rows(tmp_path / "pd_r_rho.csv")
    assert [float(r[1]) for r in r_rows] == [0.0, 0.7]
    # proper-noise row sits near ratio one even at this tiny run count
    r0 = float(r_rows[0][5])
    assert 0.9 <= r0 <= 1.1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "theta-bound", "draws": 100, "seed": 3}))
    out = tmp_path / "tb.csv"
    code = main(["theta-bound", "--config", str(cfg), "--draws", "50", "--out", str(out)])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 50


# --- generated configs of every command ---------------------------------------------

# dB settings: moderate and extreme spans, 0, the edges of the doubles and the smallest subnormal.
_DB = st.one_of(
    st.floats(-400.0, 400.0), st.floats(-60.0, 60.0), st.sampled_from([0.0, 1e308, -1e308, 5e-324])
)
_RHO = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_PHASE = st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(0.0, np.pi))
_SEED = st.integers(0, 2**32)

_SCAN_CONFIGS = {
    "equivalence": st.fixed_dictionaries({
        "seed": _SEED, "trials": st.integers(1, 3), "state_dim": st.integers(1, 3),
        "meas_dim": st.integers(1, 3), "horizon": st.integers(1, 12), "proper": st.booleans(),
    }),
    "mse-sweep": st.fixed_dictionaries({
        # One or two panels, and sometimes one near the top of the doubles' range.
        "panels": st.tuples(
            st.lists(st.lists(_DB, min_size=2, max_size=2), min_size=1, max_size=2),
            st.one_of(st.just([]), st.tuples(st.floats(3070.0, 3085.0), _DB).map(lambda p: [list(p)])),
        ).map(lambda parts: parts[0] + parts[1]),
        "rho_w": st.lists(_RHO, min_size=1, max_size=3), "rho_n": st.lists(_RHO, min_size=1, max_size=3),
        "rho_w_phase": _PHASE, "rho_n_phase": _PHASE, "max_iter": st.integers(1, 400),
    }),
    "theta-bound": st.fixed_dictionaries({
        "seed": _SEED, "draws": st.integers(1, 40), "t_max": st.integers(1, 25),
    }),
    "phase-demod": st.fixed_dictionaries({
        "seed": _SEED, "runs": st.integers(1, 2), "horizon": st.integers(1, 8),
        "snr_list": st.lists(_DB, min_size=1, max_size=2), "rho_list": st.lists(_RHO, min_size=1, max_size=2),
        "xi_rho": _RHO, "traj_rho": _RHO, "r_snr": _DB, "traj_snr": _DB,
    }),
}


@pytest.mark.parametrize("command", sorted(_SCAN_CONFIGS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_generated_configs_exit_zero_or_name_the_config_error(command, data):
    # Exit 1 is reserved for a failed invariant, which no model here has, and a
    # traceback or a warning is a defect whatever the config.
    cfg = data.draw(_SCAN_CONFIGS[command], label="config")
    fmt = data.draw(st.sampled_from(["csv", "json"]), label="format")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--format", fmt, "--out", str(Path(tmp) / f"out.{fmt}")])
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2), stdout.getvalue() + stderr.getvalue()
        written = sorted(p.name for p in Path(tmp).iterdir() if p != path)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: ")
            assert written == []
            return
        assert written
        if command == "mse-sweep":
            _check_rows_against_the_closed_form(cfg, Path(tmp) / f"out.{fmt}", fmt)


def _check_rows_against_the_closed_form(cfg, out, fmt):
    """Each row within AGREE of steady_state_gains, and equal to it where the recursion did not stand."""
    if fmt == "csv":
        _, rows = read_rows(out)
        rows = [[float(v) for v in row] for row in rows]
    else:
        rows = [list(record.values()) for record in json.loads(out.read_text())]
    w_dir, n_dir = np.exp(1j * cfg["rho_w_phase"]), np.exp(1j * cfg["rho_n_phase"])
    for rho_w, rho_n, n1_db, n2_db, ratio, iters in rows:
        closed = float(steady_state_gains(rho_w * w_dir, rho_n * n_dir, n1_db, n2_db).ratio)
        if iters == 0:
            assert ratio == closed
        else:
            assert abs(ratio - closed) <= AGREE * closed
