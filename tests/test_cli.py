import json
from pathlib import Path

import numpy as np
import pytest

from wlckf import cli
from wlckf.augmented import augmented_to_real, augmented_to_real_matrix
from wlckf.cli import main
from wlckf.linear import ckf_run, model_from_real, real_kf_run, simulate_linear, wlckf_run
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
    # All 20 default trials of proper n = 2, whose composite matrices are
    # strided views: the batch must keep their layout to keep their bits.
    seed, n, horizon = 3, 2, 50
    est_devs, cov_devs, ckf_devs = cli.equivalence_trial(seed, range(20), n, n, horizon, proper=True)
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
    # Proper n = 1 mixes layouts: some trials' state maps are rescaled copies.
    seed, horizon = 1, 20
    batch = np.stack(cli.equivalence_trial(seed, range(20), n, n, horizon, proper), axis=-1)
    for trial in range(20):
        alone = np.stack(cli.equivalence_trial(seed, [trial], n, n, horizon, proper), axis=-1)
        assert np.array_equal(alone[0], batch[trial], equal_nan=True)


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
        ("mse-sweep", [], {"panels": [[200, -20]]}),
        ("mse-sweep", [], {"panels": [[3000, -20]]}),
        ("mse-sweep", [], {"panels": [[-20, -4000]]}),
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
        "mse-sweep-panel-200db", "mse-sweep-panel-3000db", "mse-sweep-panel-underflow",
    ],
)
def test_phase_demod_bad_config_exits_two_before_writing(tmp_path, capsys, command, flags, config):
    out_dir = tmp_path / "out"
    args = [command, *flags, "--out", str(out_dir / "out.csv")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code = main(args)
    assert code == 2
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


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
