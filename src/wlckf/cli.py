"""Reproducible experiment driver.

Four subcommands: ``equivalence`` (randomized agreement between the
augmented filter and the dual-channel real filter), ``mse-sweep``
(steady-state improvement ratio over noise impropriety grids),
``theta-bound`` (best-case ratio bounds over random scalar models) and
``phase-demod`` (phase tracking comparison tables). All outputs are
deterministic functions of the configuration, including the seed; running
a command twice produces byte-identical files.

Exit codes: 0 success, 1 assertion failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import mse, phase
from .augmented import AugmentedMatrix, augmented_to_real_matrix, full_to_real, full_to_real_matrix
from .errors import WlckfError
from .linear import ckf_batch, model_from_real, real_kf_batch, simulate_linear, wlckf_batch
# ckf_run, real_kf_run and wlckf_run are unused here; bench/spans.py still rebinds them in this module.
from .linear import ckf_run, real_kf_run, wlckf_run  # noqa: F401
from .stats import substream

_COMMON_DEFAULTS = {"seed": 0, "format": "csv"}

# Trials of `equivalence` that run as one batch; bounds memory for any --trials.
TRIAL_BATCH = 64

_DEFAULTS = {
    "equivalence": {
        "trials": 20,
        "state_dim": 2,
        "meas_dim": 2,
        "horizon": 50,
        "proper": False,
        "max_dev": 1e-9,
        "out": "equivalence.csv",
    },
    "mse-sweep": {
        "rho_w": [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95],
        "rho_n": [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95],
        "panels": [[-20.0, -20.0], [-20.0, -40.0], [-40.0, -20.0]],
        # Impropriety orientations of the two noises. With equal phases the
        # ratio is exactly 1 whenever |rho_w| == |rho_n| (the augmented
        # recursion diagonalizes in a common basis and the unit-coefficient
        # eigenvalue map is scale homogeneous), so the surface is monotone
        # along the magnitude axes only when the orientations differ.
        "rho_w_phase": 0.0,
        "rho_n_phase": 1.5707963267948966,
        "tol": 1e-12,
        "max_iter": 10000,
        "out": "mse_sweep.csv",
    },
    "theta-bound": {
        "draws": 10000,
        "t_max": 50,
        "out": "theta_bound.csv",
    },
    "phase-demod": {
        "runs": 200,
        "horizon": 500,
        "snr_list": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
        "xi_rho": 0.7,
        "rho_list": [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95],
        "r_snr": 20.0,
        "traj_snr": 30.0,
        "traj_rho": 0.5,
        "out": "phase_demod.csv",
    },
}


# Run counts, dimensions and horizons; each must be an integer of at least 1.
_COUNT_KEYS = ("runs", "trials", "horizon", "state_dim", "meas_dim", "draws", "t_max", "max_iter")
# Scalar settings and lists that must be finite numbers.
_NUMBER_KEYS = ("r_snr", "traj_snr", "rho_w_phase", "rho_n_phase", "tol", "max_dev")
_LIST_KEYS = ("snr_list", "rho_list", "rho_w", "rho_n")


class ConfigError(Exception):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _native(value):
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def write_rows(path: Path, header: list[str], rows: list[list], fmt: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        payload = [{key: _native(v) for key, v in zip(header, row)} for row in rows]
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8", newline="\n")


def load_config(args: argparse.Namespace, command: str) -> dict:
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_DEFAULTS[command])
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_cfg = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config must be a JSON object")
        declared = file_cfg.pop("experiment", None)
        if declared is not None and declared != command:
            raise ConfigError(f"config is for experiment {declared!r}, not {command!r}")
        for key, value in file_cfg.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            cfg[key] = value
    # Command-line flags override the file.
    for key in cfg:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    if not _is_integer(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError("seed must be an integer >= 0")
    if "proper" in cfg and not isinstance(cfg["proper"], bool):
        raise ConfigError("proper must be true or false")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    for key in _COUNT_KEYS:
        if key in cfg and not (_is_integer(cfg[key]) and cfg[key] >= 1):
            raise ConfigError(f"{key} must be an integer >= 1")
    for key in _NUMBER_KEYS:
        if key in cfg and not _is_number(cfg[key]):
            raise ConfigError(f"{key} must be a finite number")
    for key in _LIST_KEYS:
        if key in cfg and not _is_number_list(cfg[key]):
            raise ConfigError(f"{key} must be a list of finite numbers")
    if "panels" in cfg and not (
        isinstance(cfg["panels"], list) and all(_is_number_list(p) and len(p) == 2 for p in cfg["panels"])
    ):
        raise ConfigError("panels must be a list of [N1_db, N2_db] pairs of numbers")
    # Linear noise powers: 10^(N/10) for the mse-sweep panels, 10^(-SNR/10) for phase-demod.
    snrs = [*cfg.get("snr_list", []), *(cfg[key] for key in ("r_snr", "traj_snr") if key in cfg)]
    with np.errstate(over="ignore"):
        powers = np.power(10.0, np.concatenate([np.ravel(cfg.get("panels", [])), np.negative(snrs)]) / 10.0)
    if not np.isfinite(powers).all():
        raise ConfigError("dB setting out of range: its linear power overflows")
    if "tol" in cfg and cfg["tol"] <= 0:
        raise ConfigError("tol must be > 0")
    if command == "phase-demod":
        rhos = [cfg["xi_rho"], cfg["traj_rho"], *cfg["rho_list"]]
    elif command == "mse-sweep":
        rhos = [*cfg["rho_w"], *cfg["rho_n"]]
    else:
        rhos = []
    if not all(_is_number(rho) and 0.0 <= rho <= 1.0 for rho in rhos):
        raise ConfigError("noise impropriety rho must lie in [0, 1]")
    return cfg


# --- equivalence -------------------------------------------------------------

def random_real_model(rng: np.random.Generator, n: int, m: int, proper: bool = False):
    """Random composite-model matrices; spectral radius of the state map < 1."""
    if proper:
        def lift_system(rows, cols):
            z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            return augmented_to_real_matrix(AugmentedMatrix(z, np.zeros_like(z)), "system")

        def proper_cov(k):
            z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            c = z @ z.conj().T / k + 0.1 * np.eye(k)
            return augmented_to_real_matrix(AugmentedMatrix(c, np.zeros_like(c)), "covariance")

        e = lift_system(n, n)
        f = lift_system(n, n)
        g = lift_system(m, n)
        q = proper_cov(n)
        r = proper_cov(m)
        pi = proper_cov(n)
    else:
        e = rng.standard_normal((2 * n, 2 * n))
        f = rng.standard_normal((2 * n, 2 * n))
        g = rng.standard_normal((2 * m, 2 * n))

        def rand_cov(k):
            z = rng.standard_normal((2 * k, 2 * k))
            return z @ z.T / (2 * k) + 0.1 * np.eye(2 * k)

        q = rand_cov(n)
        r = rand_cov(m)
        pi = rand_cov(n)
    radius = max(abs(np.linalg.eigvals(e)))
    if radius > 0.95:
        e = e * (0.95 / radius)
    return e, f, g, q, r, pi


def _stack(arrays) -> np.ndarray:
    """Stack one composite matrix of each trial in the layout the trials hold it in.

    ``random_real_model`` returns some matrices as strided ``.real`` views
    of complex arrays. numpy's matmul takes a non-BLAS loop on those, and
    it rounds apart from the BLAS loop a contiguous stack would take, so
    such matrices are stacked as the real part of a complex stack.
    """
    stacked = np.stack(arrays)
    return stacked if arrays[0].flags.c_contiguous else stacked.astype(complex).real


def _batch_deviations(models, reals, measurements, proper: bool) -> np.ndarray:
    """Per-trial (est_dev, cov_dev, ckf_dev) of trials whose matrices share one memory layout.

    The filters run one step at a time, side by side, and only running
    per-trial maxima are kept.
    """
    meas_real = np.concatenate([measurements.real, measurements.imag], axis=-1)
    real = real_kf_batch(*(_stack(arrays) for arrays in zip(*reals)), meas_real)
    filters = [wlckf_batch(models, measurements)]
    if proper:
        filters.append(ckf_batch(models, measurements))
    worst = np.zeros((len(filters), 2, len(models)))
    for (ref_mean, ref_cov), *posteriors in zip(real, *filters):
        # Each deviation is relative to max(1, largest oracle entry) at its step.
        scale_e = np.maximum(1.0, np.abs(ref_mean).max(axis=-1))
        scale_c = np.maximum(1.0, np.abs(ref_cov).max(axis=(-2, -1)))
        for i, (x, p) in enumerate(posteriors):
            est_dev = np.abs(full_to_real(x) - ref_mean).max(axis=-1) / scale_e
            cov_dev = np.abs(full_to_real_matrix(p, "covariance") - ref_cov).max(axis=(-2, -1)) / scale_c
            np.maximum(worst[i], [est_dev, cov_dev], out=worst[i])
    # The strictly linear filter is checked against the same real oracle,
    # in estimate and covariance.
    ckf_dev = np.maximum(*worst[1]) if proper else np.full(len(models), np.nan)
    return np.stack([*worst[0], ckf_dev], axis=-1)


def equivalence_trial(seed: int, trials, n: int, m: int, horizon: int, proper: bool):
    """Run randomized agreement trials as one batch; returns per-trial max relative deviations.

    Trial k draws its model from ``substream(seed, k)`` and its trajectory
    from ``substream(seed, k, 1)``. Returns three arrays over ``trials``:
    the widely linear filter's deviation from the real oracle in estimate
    and in covariance, and, with ``proper``, the strictly linear filter's
    worse deviation of the two (NaN otherwise). Each trial's numbers do
    not depend on which other trials share its batch.
    """
    models, reals, measurements = [], [], []
    for trial in trials:
        real = random_real_model(substream(seed, trial), n, m, proper)
        model = model_from_real(*real)
        _, meas = simulate_linear(model, horizon, substream(seed, trial, 1))
        models.append(model)
        reals.append(real)
        measurements.append(meas)
    devs = np.empty((len(models), 3))
    # Trials whose matrices differ in memory layout run as separate batches (see _stack).
    layouts: dict[tuple, list[int]] = {}
    for i, real in enumerate(reals):
        layouts.setdefault(tuple(a.flags.c_contiguous for a in real), []).append(i)
    for members in layouts.values():
        devs[members] = _batch_deviations(
            [models[i] for i in members],
            [reals[i] for i in members],
            np.stack([measurements[i] for i in members]),
            proper,
        )
    return devs[:, 0], devs[:, 1], devs[:, 2]


def cmd_equivalence(cfg: dict) -> int:
    trials = int(cfg["trials"])
    dims = int(cfg["state_dim"]), int(cfg["meas_dim"]), int(cfg["horizon"])
    chunks = [range(start, min(start + TRIAL_BATCH, trials)) for start in range(0, trials, TRIAL_BATCH)]
    devs = np.concatenate([np.column_stack(equivalence_trial(cfg["seed"], chunk, *dims, cfg["proper"])) for chunk in chunks])
    gated = devs if cfg["proper"] else devs[:, :2]
    # np.max, unlike max, propagates NaN, and a NaN worst fails the gate.
    worst = float(np.max(gated, initial=0.0))
    rows = [[trial, cfg["state_dim"], cfg["meas_dim"], cfg["horizon"], *dev] for trial, dev in enumerate(devs)]
    write_rows(
        Path(cfg["out"]),
        ["trial", "n", "m", "horizon", "estimate_dev", "cov_dev", "ckf_dev"],
        rows,
        cfg["format"],
    )
    print(f"equivalence: {cfg['trials']} trials, worst relative deviation {worst:.3e}")
    return 0 if worst <= float(cfg["max_dev"]) else 1


# --- mse-sweep ---------------------------------------------------------------

def cmd_mse_sweep(cfg: dict) -> int:
    rows = []
    ok = True
    w_dir = np.exp(1j * float(cfg["rho_w_phase"]))
    n_dir = np.exp(1j * float(cfg["rho_n_phase"]))
    for n1_db, n2_db in cfg["panels"]:
        surface = {}
        for rho_w in cfg["rho_w"]:
            for rho_n in cfg["rho_n"]:
                try:
                    res = mse.noise_impropriety_gain(
                        rho_w * w_dir, rho_n * n_dir, n1_db, n2_db, horizon=int(cfg["max_iter"]), tol=float(cfg["tol"])
                    )
                except WlckfError as exc:
                    print(f"config error: panel {[n1_db, n2_db]}: {exc}", file=sys.stderr)
                    return 2
                surface[(rho_w, rho_n)] = res.ratio
                rows.append([rho_w, rho_n, n1_db, n2_db, res.ratio, res.iterations])
                if res.ratio < 1 - 1e-9:
                    ok = False
                if rho_w == 0 and rho_n == 0 and abs(res.ratio - 1) > 1e-9:
                    ok = False
        # Monotone along each impropriety axis.
        ws, ns = list(cfg["rho_w"]), list(cfg["rho_n"])
        for rho_n in ns:
            vals = [surface[(w, rho_n)] for w in ws]
            if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
                ok = False
        for rho_w in ws:
            vals = [surface[(rho_w, n)] for n in ns]
            if any(b < a - 1e-9 for a, b in zip(vals, vals[1:])):
                ok = False
    write_rows(
        Path(cfg["out"]),
        ["rho_w_abs", "rho_n_abs", "N1_db", "N2_db", "ratio", "converged_iters"],
        rows,
        cfg["format"],
    )
    print(f"mse-sweep: {len(rows)} points, invariants {'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 1


# --- theta-bound -------------------------------------------------------------

def cmd_theta_bound(cfg: dict) -> int:
    rng = substream(cfg["seed"], 0)
    draws = int(cfg["draws"])
    t_max = int(cfg["t_max"])
    a_abs = rng.uniform(0.2, 1.5, draws)
    b_abs = rng.uniform(0.2, 1.5, draws)
    c_abs = rng.uniform(0.2, 1.5, draws)
    n1 = 10.0 ** rng.uniform(-6, 2, draws)
    n2 = 10.0 ** rng.uniform(-6, 2, draws)
    p0 = 10.0 ** rng.uniform(-2, 2, draws)
    ratios = mse.min_mmse_ratio_sweep(a_abs, b_abs, c_abs, n1, n2, p0, t_max)
    lo = ratios.min(axis=1)
    hi = ratios.max(axis=1)
    rows = [
        [i, a_abs[i], b_abs[i], c_abs[i], n1[i], n2[i], p0[i], lo[i], hi[i]]
        for i in range(draws)
    ]
    write_rows(
        Path(cfg["out"]),
        ["draw", "a_abs", "b_abs", "c_abs", "N1", "N2", "P00", "theta_min", "theta_max"],
        rows,
        cfg["format"],
    )
    bounds_ok = bool((lo >= 0.5 - 1e-12).all() and (hi <= 1 + 1e-12).all())
    # Small driving noise and smaller-still measurement noise approach 1/2.
    # The dip is transient (the zero eigenvalue branch refills at rate N1),
    # so the check is on the minimum over the first 20 steps.
    narrow = mse.min_mmse_ratio_sweep(1.0, 1.0, 1.0, 1e-6, 1e-3, 1.0, max(t_max, 20))
    near_half = bool(float(np.min(narrow[..., :20])) < 0.55)
    print(
        f"theta-bound: {draws} draws, min {lo.min():.6f}, max {hi.max():.6f}, "
        f"bounds {'ok' if bounds_ok else 'VIOLATED'}, near-half check {'ok' if near_half else 'FAILED'}"
    )
    return 0 if bounds_ok and near_half else 1


# --- phase-demod -------------------------------------------------------------

def _with_suffix(base: Path, tag: str) -> Path:
    return base.with_name(base.stem + "_" + tag + base.suffix)


def cmd_phase_demod(cfg: dict) -> int:
    fmt = cfg["format"]
    out = Path(cfg["out"])
    runs = int(cfg["runs"])
    horizon = int(cfg["horizon"])
    seed = cfg["seed"]

    traj_model = phase.PhaseModel(snr_db=float(cfg["traj_snr"]), rho_abs=float(cfg["traj_rho"]))
    theta, y = phase.simulate_phase(traj_model, horizon, substream(seed, 10_000))
    track = phase.run_tracker(traj_model, y, "uwlckf")
    traj_rows = [
        [t + 1, theta[t + 1], track.estimates[t], float(np.sqrt(max(track.variances[t], 0.0)))]
        for t in range(horizon)
    ]
    traj_path, xi_path, r_path = (_with_suffix(out, tag) for tag in ("trajectory", "xi_snr", "r_rho"))
    write_rows(traj_path, ["t", "theta", "theta_hat", "sqrt_p"], traj_rows, fmt)

    header = ["snr_db", "rho_abs", "runs", "xi_uwlckf", "xi_ukf", "r", "r_stderr", "seed"]
    max_imag = track.max_imag
    xi_rows = []
    for i, snr in enumerate(cfg["snr_list"]):
        res = phase.improvement_ratio(float(snr), float(cfg["xi_rho"]), runs, horizon, seed + 20_000 + i)
        max_imag = max(max_imag, res.max_imag)
        xi_rows.append([res.snr_db, res.rho_abs, res.runs, res.xi_uwlckf, res.xi_ukf, res.r_mean, res.r_stderr, res.seed])
    write_rows(xi_path, header, xi_rows, fmt)

    r_rows = []
    for i, rho in enumerate(cfg["rho_list"]):
        res = phase.improvement_ratio(float(cfg["r_snr"]), float(rho), runs, horizon, seed + 30_000 + i)
        max_imag = max(max_imag, res.max_imag)
        r_rows.append([res.snr_db, res.rho_abs, res.runs, res.xi_uwlckf, res.xi_ukf, res.r_mean, res.r_stderr, res.seed])
    write_rows(r_path, header, r_rows, fmt)

    ok = max_imag < 1e-9
    print(
        f"phase-demod: runs {runs}, horizon {horizon}, max |Im(estimate)| {max_imag:.3e}, "
        f"realness {'ok' if ok else 'VIOLATED'}"
    )
    for path, rows in ((traj_path, traj_rows), (xi_path, xi_rows), (r_path, r_rows)):
        if not np.isfinite(np.asarray(rows, dtype=float)).all():
            print(f"phase-demod: non-finite values in {path}")
            ok = False
    return 0 if ok else 1


# --- entry point -------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="base seed (64-bit)")
    parser.add_argument("--out", type=str, default=None, help="output path")
    parser.add_argument("--format", choices=["csv", "json"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wlckf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equivalence", help="augmented filter vs dual-channel real filter")
    _add_common(p)
    p.add_argument("--trials", "--runs", dest="trials", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--state-dim", dest="state_dim", type=int, default=None)
    p.add_argument("--meas-dim", dest="meas_dim", type=int, default=None)
    p.add_argument("--proper", action="store_const", const=True, default=None,
                   help="use a strictly-linear-compatible proper model and also check the CKF")
    p.add_argument("--max-dev", dest="max_dev", type=float, default=None,
                   help="deviation threshold for the exit code (debugging aid)")

    p = sub.add_parser("mse-sweep", help="impropriety sweep of the steady-state MSE ratio")
    _add_common(p)
    p.add_argument("--rho-w", dest="rho_w", type=_float_list, default=None)
    p.add_argument("--rho-n", dest="rho_n", type=_float_list, default=None)
    p.add_argument("--horizon", dest="max_iter", type=int, default=None,
                   help="iteration cap for the fixed-point recursions")

    p = sub.add_parser("theta-bound", help="best-case ratio bounds over random scalar models")
    _add_common(p)
    p.add_argument("--draws", "--runs", dest="draws", type=int, default=None)
    p.add_argument("--t-max", "--horizon", dest="t_max", type=int, default=None)

    p = sub.add_parser("phase-demod", help="phase tracking comparison tables")
    _add_common(p)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--snr-list", dest="snr_list", type=_float_list, default=None)
    p.add_argument("--rho-list", dest="rho_list", type=_float_list, default=None)
    p.add_argument("--r-snr", dest="r_snr", type=float, default=None)

    return parser


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


_COMMANDS = {
    "equivalence": cmd_equivalence,
    "mse-sweep": cmd_mse_sweep,
    "theta-bound": cmd_theta_bound,
    "phase-demod": cmd_phase_demod,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](cfg)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
