"""Reproducible experiment driver.

Four subcommands: ``equivalence`` (randomized agreement between the
augmented filter and the dual-channel real filter), ``mse-sweep``
(steady-state improvement ratio over noise impropriety grids),
``theta-bound`` (best-case ratio bounds over random scalar models) and
``phase-demod`` (phase tracking comparison tables). All outputs are
deterministic functions of the configuration, including the seed; running
a command twice produces byte-identical files.

Tables are written ``WRITE_CHUNK`` rows at a time. A table of at least
``FORK_CHUNKS`` chunks per extra process is formatted on up to one process
per CPU that :func:`wlckf.parallel.cpu_count` gives, through
:func:`wlckf.parallel.shared`: chunk i goes to process i mod P, the caller
formats its own chunks, and each forked child sends the text of each of
its chunks over a pipe as soon as it is made. The caller writes every
chunk in order, so the file has the bytes one process writes.

Exit codes: 0 success, 1 assertion failure, 2 usage or configuration error,
an output path that cannot be written included.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import mse, parallel, phase
from .augmented import AugmentedMatrix, augmented_to_real_matrix, full_to_real, full_to_real_matrix
from .errors import WlckfError
from .linear import ckf_batch, model_from_real, real_kf_batch, simulate_linear_batch, wlckf_batch
# ckf_run, real_kf_run, simulate_linear and wlckf_run are unused here; bench/spans.py
# still rebinds them in this module.
from .linear import ckf_run, real_kf_run, simulate_linear, wlckf_run  # noqa: F401
from .stats import substream

_COMMON_DEFAULTS = {"seed": 0, "format": "csv"}

# Trials of `equivalence` that run as one batch; bounds memory for any --trials.
TRIAL_BATCH = 64
# Draws of `theta-bound` swept at once. Their (DRAW_BATCH, t_max) ratio array
# is the command's largest allocation beyond its columns, whatever --draws.
DRAW_BATCH = 8192
# Rows formatted and written at once by `write_rows`; `theta-bound` also
# makes its table's Python values this many rows at a time. Chunk i of a
# table is formatted by process i mod P, the caller being process 0.
WRITE_CHUNK = 256
# Chunks per extra process a table needs before `write_rows` forks one:
# P = min(1 + chunks // FORK_CHUNKS, CPUs), so a forked child formats at
# least about this many chunks, far more time than its fork takes.
FORK_CHUNKS = 16
# The value types a table may hold, each written as its `repr`.
_VALUE_TYPES = {float, int}
# JSON's spelling of the float reprs that are no JSON.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

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


# Run counts, dimensions and horizons; each must be an integer from 1 to sys.maxsize.
_COUNT_KEYS = ("runs", "trials", "horizon", "state_dim", "meas_dim", "draws", "t_max", "max_iter")
# Scalar settings and lists that must be finite numbers.
_NUMBER_KEYS = ("r_snr", "traj_snr", "rho_w_phase", "rho_n_phase", "tol", "max_dev")
_LIST_KEYS = ("snr_list", "rho_list", "rho_w", "rho_n")


class ConfigError(Exception):
    pass


def _is_number(value) -> bool:
    """True for an int or float that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


def _table_text(header: list[str], rows, fmt: str):
    """Text of chunk ``i`` of ``rows`` as a function of ``i``; the chunk is checked to hold exact ``float`` and ``int`` values only."""
    keys = [f"\n  {json.dumps(key)}: " for key in header]

    def chunk_text(i: int) -> str:
        chunk = rows[i * WRITE_CHUNK : (i + 1) * WRITE_CHUNK]
        types = set(map(type, chain.from_iterable(chunk)))
        if not types <= _VALUE_TYPES:
            raise TypeError(f"table values must be float or int, not {types - _VALUE_TYPES}")
        if fmt == "csv":
            return "".join([",".join(map(repr, row)) + "\n" for row in chunk])
        records = []
        for row in chunk:
            fields = [key + _JSON_NON_FINITE.get(text, text) for key, text in zip(keys, map(repr, row))]
            records.append("{" + ",".join(fields) + "\n }")
        return ("[\n " if i == 0 else ",\n ") + ",\n ".join(records)

    return chunk_text


def write_rows(path: Path, header: list[str], rows, fmt: str) -> None:
    """Write ``rows`` (a sliceable sequence of sequences) to ``path`` as CSV or JSON.

    CSV has a header line and one line per row; JSON is a list of objects
    keyed by ``header``, indented by one space. Every value must be an
    exact ``float`` or ``int`` (``TypeError`` otherwise) and is written as
    its ``repr``: floats as their shortest round-trip decimal, integers as
    integers. JSON, like ``json.dumps``, spells non-finite floats ``NaN``,
    ``Infinity`` and ``-Infinity``; its bytes are those of
    ``json.dumps(records, indent=1)``. Rows are sliced ``WRITE_CHUNK`` at a
    time, and each chunk is formatted and goes out in one write. A table of
    ``FORK_CHUNKS`` chunks or more per extra process has its chunks dealt
    between processes (see the module docstring); either way the file has
    the same bytes. Beyond ``rows`` itself, only a chunk or two per process
    and their text are held in memory, never the whole table's text.
    """
    chunks = -(-len(rows) // WRITE_CHUNK)
    processes = min(1 + chunks // FORK_CHUNKS, parallel.cpu_count())
    shares = [range(k, chunks, processes) for k in range(processes)]
    path.parent.mkdir(parents=True, exist_ok=True)
    chunk_text = _table_text(header, rows, fmt)
    # The children are forked before the file is opened, so none holds it.
    with parallel.shared(chunk_text, shares) as texts, path.open("w", encoding="utf-8", newline="\n") as out:
        if fmt == "csv":
            out.write(",".join(header) + "\n")
        for text in texts:
            out.write(text)
        if fmt == "json":
            out.write("\n]\n" if chunks else "[]\n")


class _Columns:
    """Rows over equal-length numpy columns, made as Python values only for the slice taken."""

    def __init__(self, *columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, part: slice) -> list[tuple]:
        return list(zip(*(column[part].tolist() for column in self.columns)))


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
    if not (isinstance(cfg["out"], str) and cfg["out"]):
        raise ConfigError("out must be a non-empty path")
    for key in _COUNT_KEYS:
        if key in cfg and not (_is_integer(cfg[key]) and 1 <= cfg[key] <= sys.maxsize):
            raise ConfigError(f"{key} must be an integer from 1 to {sys.maxsize}")
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


def equivalence_trial(seed: int, trials, n: int, m: int, horizon: int, proper: bool) -> np.ndarray:
    """Run randomized agreement trials as one batch; returns per-trial max relative deviations.

    Trial k draws its model from ``substream(seed, k)`` and its trajectory
    from ``substream(seed, k, 1)``. Returns a (len(trials), 3) array whose
    columns are the widely linear filter's deviation from the real oracle
    in estimate and in covariance, and, with ``proper``, the strictly
    linear filter's worse deviation of the two (NaN otherwise). The
    filters run one step at a time, side by side, and only running
    per-trial maxima are kept. Each trial's numbers do not depend on which
    other trials share its batch.
    """
    reals = [random_real_model(substream(seed, trial), n, m, proper) for trial in trials]
    models = [model_from_real(*real) for real in reals]
    _, measurements = simulate_linear_batch(models, horizon, [substream(seed, trial, 1) for trial in trials])
    meas_real = np.concatenate([measurements.real, measurements.imag], axis=-1)
    real = real_kf_batch(*(np.stack(arrays) for arrays in zip(*reals)), meas_real)
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


def cmd_equivalence(cfg: dict) -> int:
    trials = int(cfg["trials"])
    dims = int(cfg["state_dim"]), int(cfg["meas_dim"]), int(cfg["horizon"])
    chunks = [range(start, min(start + TRIAL_BATCH, trials)) for start in range(0, trials, TRIAL_BATCH)]
    devs = np.concatenate([equivalence_trial(cfg["seed"], chunk, *dims, cfg["proper"]) for chunk in chunks])
    gated = devs if cfg["proper"] else devs[:, :2]
    # np.max, unlike max, propagates NaN, and a NaN worst fails the gate.
    worst = float(np.max(gated, initial=0.0))
    rows = [[trial, cfg["state_dim"], cfg["meas_dim"], cfg["horizon"], *dev] for trial, dev in enumerate(devs.tolist())]
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
    panels, ws, ns = cfg["panels"], list(cfg["rho_w"]), list(cfg["rho_n"])
    w_dir = np.exp(1j * float(cfg["rho_w_phase"]))
    n_dir = np.exp(1j * float(cfg["rho_n_phase"]))
    # One batch over (panel, rho_w, rho_n), in the order of the table's rows.
    try:
        res = mse.noise_impropriety_gains(
            np.array([w * w_dir for w in ws])[None, :, None],
            np.array([n * n_dir for n in ns])[None, None, :],
            np.array([n1_db for n1_db, _ in panels])[:, None, None],
            np.array([n2_db for _, n2_db in panels])[:, None, None],
            horizon=int(cfg["max_iter"]),
            tol=float(cfg["tol"]),
        )
    except WlckfError as exc:
        print(f"config error: panel {panels[exc.index[0]]}: {exc}", file=sys.stderr)
        return 2
    ratios, iterations = res.ratio.tolist(), res.iterations.tolist()
    rows = [
        [rho_w, rho_n, n1_db, n2_db, ratios[p][i][j], iterations[p][i][j]]
        for p, (n1_db, n2_db) in enumerate(panels)
        for i, rho_w in enumerate(ws)
        for j, rho_n in enumerate(ns)
    ]
    # The surface is at least 1, exactly 1 at the proper origin, and monotone
    # along each impropriety axis in order of increasing |rho|, whatever the
    # order of the grid.
    origin = np.logical_and.outer(np.equal(ws, 0), np.equal(ns, 0))
    surface = res.ratio[:, np.argsort(np.abs(ws), kind="stable")][:, :, np.argsort(np.abs(ns), kind="stable")]
    ok = not (
        (res.ratio < 1 - 1e-9).any()
        or (np.abs(res.ratio[:, origin] - 1) > 1e-9).any()
        or (surface[:, 1:] < surface[:, :-1] - 1e-9).any()
        or (surface[:, :, 1:] < surface[:, :, :-1] - 1e-9).any()
    )
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
    params = (a_abs, b_abs, c_abs, n1, n2, p0)
    # Each draw keeps only the min and max of its ratios over the steps.
    lo, hi = np.empty(draws), np.empty(draws)
    chunks = [slice(start, start + DRAW_BATCH) for start in range(0, draws, DRAW_BATCH)]
    for part in chunks:
        ratios = mse.min_mmse_ratio_sweep(*(column[part] for column in params), t_max)
        lo[part], hi[part] = ratios.min(axis=1), ratios.max(axis=1)
    # The table's Python values exist one writer chunk of rows at a time.
    rows = _Columns(np.arange(draws), *params, lo, hi)
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
        [t, theta_t, estimate, math.sqrt(max(variance, 0.0))]
        for t, theta_t, estimate, variance in zip(
            range(1, horizon + 1), theta[1:].tolist(), track.estimates.tolist(), track.variances.tolist()
        )
    ]
    traj_path, xi_path, r_path = (_with_suffix(out, tag) for tag in ("trajectory", "xi_snr", "r_rho"))
    write_rows(traj_path, ["t", "theta", "theta_hat", "sqrt_p"], traj_rows, fmt)

    header = ["snr_db", "rho_abs", "runs", "xi_uwlckf", "xi_ukf", "r", "r_stderr", "seed"]
    max_imag = track.max_imag
    # (snr, rho, seed) of every Monte Carlo operating point: the xi table's, then the r table's.
    points = [
        *((float(snr), float(cfg["xi_rho"]), seed + 20_000 + i) for i, snr in enumerate(cfg["snr_list"])),
        *((float(cfg["r_snr"]), float(rho), seed + 30_000 + i) for i, rho in enumerate(cfg["rho_list"])),
    ]
    table = []
    for res in phase.improvement_ratios(points, runs, horizon):
        max_imag = max(max_imag, res.max_imag)
        table.append([res.snr_db, res.rho_abs, res.runs, res.xi_uwlckf, res.xi_ukf, res.r_mean, res.r_stderr, res.seed])
    xi_rows, r_rows = table[: len(cfg["snr_list"])], table[len(cfg["snr_list"]) :]
    write_rows(xi_path, header, xi_rows, fmt)
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
    try:
        return _COMMANDS[args.command](cfg)
    except OSError as exc:
        print(f"config error: cannot write {exc.filename or cfg['out']}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
