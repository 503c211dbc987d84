"""Workloads of the wlckf benchmark.

A workload is a list of operations built from a seed. Each operation is one
call a user makes, either a CLI command (run in-process through
``wlckf.cli.main``) or a library entry point. It carries its work units,
counted from its inputs, and it checks its own output:

* the CLI exit code and the gate line the CLI prints;
* written tables against reference values captured at the parent commit
  (``reference.json``), within ``RTOL``/``ATOL``;
* gates and cross-checks that hold for any seed, so that seeds without a
  stored reference are still verified.

Importing this module imports ``wlckf``, so the caller must put the
checkout's ``src`` directory on ``sys.path`` first.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wlckf import cli, linear, mse, phase, unscented
from wlckf.augmented import augmented_to_real, augmented_to_real_matrix
from wlckf.stats import substream

# Relative and absolute tolerance against the parent commit's tables.
RTOL = 1e-9
ATOL = 1e-12
# The bound `wlckf equivalence` gates on, used for every equivalence check.
EQUIV_BOUND = 1e-9
# Generic unscented filter vs the batched phase tracker, relative to max(1, |x|).
TRACKER_AGREEMENT = 1e-9
# Draws of theta-bound recomputed with the scalar recursion in mse.
THETA_SPOT_CHECKS = 6
# Rows of a long table kept in a reference summary.
SAMPLE_ROWS = 6

STIFF_DEFECT = (
    "stiff family: widely linear vs real KF deviation above 1e-9 "
    "(known defect, ROADMAP open item 4)"
)

SCALES = {
    "full": {
        "phase": {
            "runs": 200, "horizon": 500,
            "snr_list": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0], "xi_rho": 0.7,
            "rho_list": [0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95], "r_snr": 20.0,
            "traj_snr": 30.0, "traj_rho": 0.5,
        },
        "equivalence": {"dims": [1, 2, 4, 8], "proper_dim": 2, "trials": 20, "horizon": 50},
        "stiff": {"models": 6, "horizon": 200},
        "trajectory": {"horizon": 2000},
        "mse_grid": 15,
        "theta": {"draws": 50_000, "t_max": 50},
    },
    # Tiny sizes for the benchmark's own smoke test and for warm-up.
    "tiny": {
        "phase": {
            "runs": 4, "horizon": 30,
            "snr_list": [10.0, 20.0], "xi_rho": 0.7,
            "rho_list": [0.0, 0.7], "r_snr": 20.0,
            "traj_snr": 30.0, "traj_rho": 0.5,
        },
        "equivalence": {"dims": [1, 2, 4, 8], "proper_dim": 2, "trials": 2, "horizon": 5},
        "stiff": {"models": 2, "horizon": 20},
        "trajectory": {"horizon": 40},
        "mse_grid": 3,
        "theta": {"draws": 200, "t_max": 50},
    },
}


@dataclass
class Failure:
    message: str
    known: bool = False  # a named, known defect of the program


@dataclass
class Observations:
    """What the checks see besides pass/fail; feeds per-layer metrics."""

    equivalence_fail: int = 0
    posterior_min_rel_eig: float = float("inf")


@dataclass
class Op:
    """One user-facing call: run it, count its units, check its output."""

    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object, dict | None], list[Failure]]
    summarize: Callable[[object], dict] | None = None


@dataclass
class CliResult:
    code: int
    stdout: str
    out: Path


@dataclass
class Workload:
    ops: list[Op]
    observations: Observations = field(default_factory=Observations)


# --- shared helpers ------------------------------------------------------------

def _cli_op(name: str, command: str, config: dict, seed: int, workdir: Path, units: int, check, summarize=None) -> Op:
    """An operation that runs `wlckf <command>` with a pinned JSON config."""
    config_path = workdir / f"{name}.config.json"
    config_path.write_text(json.dumps({"experiment": command, **config}), encoding="utf-8")
    out = workdir / f"{name}.csv"
    argv = [command, "--config", str(config_path), "--seed", str(seed), "--out", str(out)]

    def run() -> CliResult:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        return CliResult(code, buffer.getvalue(), out)

    return Op(name, units, run, check, summarize)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        values = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, values


def _cli_gate(result: CliResult, gate: str) -> list[Failure]:
    problems = []
    if result.code != 0:
        problems.append(Failure(f"exit code {result.code}: {result.stdout.strip()}"))
    if gate not in result.stdout:
        problems.append(Failure(f"gate {gate!r} missing from output: {result.stdout.strip()}"))
    return problems


def _expect_header(path: Path, header: list[str], expected: list[str]) -> list[Failure]:
    if header != expected:
        return [Failure(f"{path.name}: header {header} != {expected}")]
    return []


def compare(label: str, got, ref, exact: bool = False) -> list[Failure]:
    """Elementwise agreement with a reference within RTOL/ATOL (or exactly)."""
    got = np.asarray(got, float)
    ref = np.asarray(ref, float)
    if got.shape != ref.shape:
        return [Failure(f"{label}: shape {got.shape} != reference {ref.shape}")]
    ok = (got == ref) if exact else np.isclose(got, ref, rtol=RTOL, atol=ATOL)
    ok |= np.isnan(got) & np.isnan(ref)
    if ok.all():
        return []
    i = np.unravel_index(np.argmin(ok), ok.shape)
    return [Failure(f"{label}: {int((~ok).sum())} values differ from the reference, first at {i}: {got[i]!r} vs {ref[i]!r}")]


def sample_rows(n: int) -> list[int]:
    return sorted({int(i) for i in np.linspace(0, n - 1, SAMPLE_ROWS)})


def summarize_long(values: np.ndarray) -> dict:
    """Column sums of |x| plus a few rows; enough to catch any changed value class."""
    rows = sample_rows(values.shape[0])
    return {
        "count": int(values.shape[0]),
        "abs_sum": np.abs(values).sum(axis=0).tolist(),
        "rows": rows,
        "values": values[rows].tolist(),
    }


def compare_long(label: str, values: np.ndarray, ref: dict) -> list[Failure]:
    if values.shape[0] != ref["count"]:
        return [Failure(f"{label}: {values.shape[0]} rows, reference has {ref['count']}")]
    return compare(f"{label} column |x| sums", np.abs(values).sum(axis=0), ref["abs_sum"]) + compare(
        f"{label} sampled rows", values[ref["rows"]], ref["values"]
    )


def _finite(label: str, values: np.ndarray) -> list[Failure]:
    if np.isfinite(values).all():
        return []
    return [Failure(f"{label}: non-finite values")]


# --- phase-demod -----------------------------------------------------------------

PHASE_XI_HEADER = ["snr_db", "rho_abs", "runs", "xi_uwlckf", "xi_ukf", "r", "r_stderr", "seed"]


def phase_demod(seed: int, scale: str, workdir: Path) -> Workload:
    """`wlckf phase-demod` at its default config, pinned: the slowest command.

    Batched unscented and baseline trackers plus trajectory simulation; no
    augmented algebra and no linear filter. Units are tracker run-steps of
    both trackers.
    """
    cfg = SCALES[scale]["phase"]
    points = len(cfg["snr_list"]) + len(cfg["rho_list"])
    units = points * cfg["runs"] * cfg["horizon"] * 2 + cfg["horizon"]

    def paths(result: CliResult) -> dict[str, Path]:
        out = result.out
        return {tag: out.with_name(f"{out.stem}_{tag}{out.suffix}") for tag in ("trajectory", "xi_snr", "r_rho")}

    def check(result: CliResult, ref: dict | None) -> list[Failure]:
        problems = _cli_gate(result, "realness ok")
        files = paths(result)
        header, traj = read_table(files["trajectory"])
        problems += _expect_header(files["trajectory"], header, ["t", "theta", "theta_hat", "sqrt_p"])
        problems += _finite("trajectory", traj)
        # Independent check: the generic unscented filter on the same trajectory.
        model = phase.PhaseModel(snr_db=cfg["traj_snr"], rho_abs=cfg["traj_rho"])
        theta, y = phase.simulate_phase(model, cfg["horizon"], substream(seed, 10_000))
        problems += compare("trajectory theta", traj[:, 1], theta[1:])
        problems += _generic_agreement("trajectory theta_hat", model, y, traj[:, 2], traj[:, 3] ** 2)
        for tag, base, rhos in (
            ("xi_snr", 20_000, [cfg["xi_rho"]] * len(cfg["snr_list"])),
            ("r_rho", 30_000, cfg["rho_list"]),
        ):
            header, table = read_table(files[tag])
            problems += _expect_header(files[tag], header, PHASE_XI_HEADER)
            problems += _finite(tag, table)
            rows = len(rhos)
            if table.shape[0] != rows:
                problems.append(Failure(f"{tag}: {table.shape[0]} rows, expected {rows}"))
                continue
            problems += compare(f"{tag} rho", table[:, 1], rhos, exact=True)
            problems += compare(f"{tag} runs", table[:, 2], [cfg["runs"]] * rows, exact=True)
            problems += compare(f"{tag} seed", table[:, 7], seed + base + np.arange(rows), exact=True)
            if (table[:, 3:5] <= 0).any():
                problems.append(Failure(f"{tag}: nonpositive normalized error"))
            if ref is not None:
                problems += compare(tag, table, ref[tag])
        if ref is not None:
            problems += compare_long("trajectory", traj, ref["trajectory"])
        return problems

    def summarize(result: CliResult) -> dict:
        files = paths(result)
        return {
            "trajectory": summarize_long(read_table(files["trajectory"])[1]),
            "xi_snr": read_table(files["xi_snr"])[1].tolist(),
            "r_rho": read_table(files["r_rho"])[1].tolist(),
        }

    return Workload([_cli_op("phase-demod", "phase-demod", cfg, seed, workdir, units, check, summarize)])


def _generic_agreement(label: str, model, y, estimates, variances) -> list[Failure]:
    """Batched tracker output vs the generic unscented widely linear filter."""
    reports = unscented.uwlckf_run(phase.nonlinear_phase_model(model), y)
    ref_est = np.array([rep.state.estimate.top[0].real for rep in reports])
    ref_var = np.array([rep.state.cov.m1[0, 0].real for rep in reports])
    problems = []
    for what, got, ref in (("estimate", estimates, ref_est), ("variance", variances, ref_var)):
        dev = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
        if not dev <= TRACKER_AGREEMENT:
            problems.append(Failure(f"{label}: {what} deviates from the generic filter by {dev:.3e}"))
    return problems


# --- single-trajectory ---------------------------------------------------------------

EQUIV_HEADER = ["trial", "n", "m", "horizon", "estimate_dev", "cov_dev", "ckf_dev"]


def _equivalence_op(name: str, n: int, proper: bool, cfg: dict, seed: int, workdir: Path, obs: Observations) -> Op:
    trials, horizon = cfg["trials"], cfg["horizon"]
    config = {
        "trials": trials, "state_dim": n, "meas_dim": n, "horizon": horizon,
        "proper": proper, "max_dev": EQUIV_BOUND,
    }
    units = trials * horizon * (3 if proper else 2)

    def check(result: CliResult, ref: dict | None) -> list[Failure]:
        problems = _cli_gate(result, "worst relative deviation")
        header, table = read_table(result.out)
        problems += _expect_header(result.out, header, EQUIV_HEADER)
        if table.shape[0] != trials:
            return problems + [Failure(f"{name}: {table.shape[0]} rows, expected {trials}")]
        problems += compare(f"{name} trial", table[:, 0], np.arange(trials), exact=True)
        problems += compare(f"{name} n,m,horizon", table[:, 1:4], np.tile([n, n, horizon], (trials, 1)), exact=True)
        devs = table[:, 4:7] if proper else table[:, 4:6]
        over = ~(devs <= EQUIV_BOUND)  # NaN counts as over
        bad_rows = int(over.any(axis=1).sum())
        obs.equivalence_fail += bad_rows
        if bad_rows:
            problems.append(Failure(f"{name}: {bad_rows} trials above the {EQUIV_BOUND:g} bound"))
        if not proper and not np.isnan(table[:, 6]).all():
            problems.append(Failure(f"{name}: ckf_dev present for an improper model"))
        return problems

    return _cli_op(name, "equivalence", config, seed, workdir, units, check)


def stiff_model(seed: int, index: int, n: int = 3):
    """Near-unstable, diffuse, maximally improper composite model.

    Spectral radius 0.999, initial covariance 1e4 I, and measurement noise
    1e-8 on the real channels only.
    """
    rng = substream(seed, 50_000, index)
    e = rng.standard_normal((2 * n, 2 * n))
    e *= 0.999 / max(abs(np.linalg.eigvals(e)))
    f = rng.standard_normal((2 * n, 2 * n))
    g = rng.standard_normal((2 * n, 2 * n))
    z = rng.standard_normal((2 * n, 2 * n))
    q = z @ z.T / (2 * n) + 0.1 * np.eye(2 * n)
    r = np.diag([1e-8] * n + [0.0] * n)
    pi = 1e4 * np.eye(2 * n)
    return e, f, g, q, r, pi


def _stiff_op(index: int, seed: int, horizon: int, obs: Observations) -> Op:
    e, f, g, q, r, pi = stiff_model(seed, index)
    model = linear.model_from_real(e, f, g, q, r, pi)
    _, ys = linear.simulate_linear(model, horizon, substream(seed, 50_000, index, 1))
    ys_real = [np.concatenate([y.real, y.imag]) for y in ys]

    def run():
        return linear.wlckf_run(model, ys), linear.real_kf_run(e, f, g, q, r, pi, ys_real)

    def check(result, ref: dict | None) -> list[Failure]:
        reports, steps = result
        est_dev = cov_dev = 0.0
        min_rel_eig = float("inf")
        for rep, step in zip(reports, steps):
            est = augmented_to_real(rep.state.estimate)
            cov = augmented_to_real_matrix(rep.state.cov, "covariance")
            est_dev = max(est_dev, float(np.max(np.abs(est - step.mean))) / max(1.0, float(np.max(np.abs(step.mean)))))
            cov_dev = max(cov_dev, float(np.max(np.abs(cov - step.cov))) / max(1.0, float(np.max(np.abs(step.cov)))))
            w = np.linalg.eigvalsh(rep.state.cov.full())
            min_rel_eig = min(min_rel_eig, float(w[0] / max(abs(w[-1]), 1e-300)))
        obs.posterior_min_rel_eig = min(obs.posterior_min_rel_eig, min_rel_eig)
        if len(reports) != horizon or len(steps) != horizon:
            return [Failure(f"stiff-{index}: {len(reports)}/{len(steps)} steps, expected {horizon}")]
        worst = max(est_dev, cov_dev)
        if not np.isfinite(worst):
            return [Failure(f"stiff-{index}: non-finite deviation")]
        if worst > EQUIV_BOUND:
            obs.equivalence_fail += 1
            return [Failure(f"stiff-{index}: deviation {worst:.3e} > {EQUIV_BOUND:g}; {STIFF_DEFECT}", known=True)]
        return []

    return Op(f"stiff-{index}", horizon * 2, run, check)


def _trajectory_ops(seed: int, horizon: int) -> list[Op]:
    model = phase.PhaseModel(snr_db=20.0, rho_abs=0.7)
    theta, y = phase.simulate_phase(model, horizon, substream(seed, 60_000))
    nl_model = phase.nonlinear_phase_model(model)
    generic: dict[str, np.ndarray] = {}

    def run_generic():
        return unscented.uwlckf_run(nl_model, y)

    def estimates(reports) -> np.ndarray:
        return np.array([[rep.state.estimate.top[0].real, rep.state.cov.m1[0, 0].real] for rep in reports])

    def check_generic(reports, ref: dict | None) -> list[Failure]:
        values = estimates(reports)
        generic["values"] = values
        problems = _finite("uwlckf_run", values)
        if values.shape[0] != horizon:
            problems.append(Failure(f"uwlckf_run: {values.shape[0]} steps, expected {horizon}"))
        imag = max(abs(rep.state.estimate.top[0].imag) for rep in reports)
        if imag >= 1e-9:
            problems.append(Failure(f"uwlckf_run: phase estimate has imaginary part {imag:.3e}"))
        if ref is not None:
            problems += compare_long("uwlckf_run", values, ref)
        return problems

    def run_batched():
        return phase.run_tracker(model, y, "uwlckf")

    def check_batched(track, ref: dict | None) -> list[Failure]:
        values = np.stack([track.estimates, track.variances], axis=1)
        problems = _finite("run_tracker", values)
        ref_values = generic.get("values")
        if ref_values is None or ref_values.shape != values.shape:
            return problems + [Failure("run_tracker: no generic-filter result to compare with")]
        dev = float(np.max(np.abs(values - ref_values) / np.maximum(1.0, np.abs(ref_values))))
        if not dev <= TRACKER_AGREEMENT:
            problems.append(Failure(f"run_tracker: deviates from uwlckf_run by {dev:.3e}"))
        if track.max_imag >= 1e-9:
            problems.append(Failure(f"run_tracker: max |Im| {track.max_imag:.3e}"))
        return problems

    return [
        Op("uwlckf_run", horizon, run_generic, check_generic, lambda reports: summarize_long(estimates(reports))),
        Op("run_tracker", horizon, run_batched, check_batched),
    ]


def single_trajectory(seed: int, scale: str, workdir: Path) -> Workload:
    """Filters run one trajectory per call on small matrices.

    Per-step overhead of the augmented algebra and the linear filters
    dominates: `wlckf equivalence` at n = m = 1, 2, 4, 8 and proper n = 2,
    the stiff family through the library, and the generic unscented filter
    and the batch-of-1 phase tracker on one long trajectory. Units are
    filter steps.
    """
    cfg = SCALES[scale]
    obs = Observations()
    eq = cfg["equivalence"]
    ops = [_equivalence_op(f"equivalence-n{n}", n, False, eq, seed, workdir, obs) for n in eq["dims"]]
    ops.append(_equivalence_op(f"equivalence-proper-n{eq['proper_dim']}", eq["proper_dim"], True, eq, seed, workdir, obs))
    ops += [_stiff_op(i, seed, cfg["stiff"]["horizon"], obs) for i in range(cfg["stiff"]["models"])]
    ops += _trajectory_ops(seed, cfg["trajectory"]["horizon"])
    return Workload(ops, obs)


# --- mse-analysis ---------------------------------------------------------------------

MSE_HEADER = ["rho_w_abs", "rho_n_abs", "N1_db", "N2_db", "ratio", "converged_iters"]
THETA_HEADER = ["draw", "a_abs", "b_abs", "c_abs", "N1", "N2", "P00", "theta_min", "theta_max"]


def mse_analysis(seed: int, scale: str, workdir: Path) -> Workload:
    """`mse-sweep` on a dense 15 x 15 grid and `theta-bound` with 50k draws.

    Closed-form MSE recursions and CSV writing; no filter runs, so filter
    changes should read "no change" here. Units are grid points plus
    draw-steps.
    """
    cfg = SCALES[scale]
    grid = np.linspace(0.0, 0.98, cfg["mse_grid"]).tolist()
    sweep_cfg = {
        "rho_w": grid, "rho_n": grid,
        "panels": [[-20.0, -20.0], [-20.0, -40.0], [-40.0, -20.0]],
        "rho_w_phase": 0.0, "rho_n_phase": 1.5707963267948966, "tol": 1e-12, "max_iter": 10000,
    }
    sweep_units = len(grid) ** 2 * len(sweep_cfg["panels"])

    def check_sweep(result: CliResult, ref: dict | None) -> list[Failure]:
        problems = _cli_gate(result, "invariants ok")
        header, table = read_table(result.out)
        problems += _expect_header(result.out, header, MSE_HEADER)
        problems += _finite("mse-sweep", table)
        if table.shape[0] != sweep_units:
            return problems + [Failure(f"mse-sweep: {table.shape[0]} rows, expected {sweep_units}")]
        if (table[:, 4] < 1 - 1e-9).any():
            problems.append(Failure("mse-sweep: ratio below 1"))
        if ref is not None:
            problems += compare("mse-sweep ratio", table[:, :5], np.asarray(ref["table"])[:, :5])
            problems += compare("mse-sweep converged_iters", table[:, 5], np.asarray(ref["table"])[:, 5], exact=True)
        return problems

    theta = cfg["theta"]

    def check_theta(result: CliResult, ref: dict | None) -> list[Failure]:
        problems = _cli_gate(result, "bounds ok, near-half check ok")
        header, table = read_table(result.out)
        problems += _expect_header(result.out, header, THETA_HEADER)
        problems += _finite("theta-bound", table)
        if table.shape[0] != theta["draws"]:
            return problems + [Failure(f"theta-bound: {table.shape[0]} rows, expected {theta['draws']}")]
        problems += compare("theta-bound draw", table[:, 0], np.arange(theta["draws"]), exact=True)
        lo, hi = table[:, 7], table[:, 8]
        if (lo < 0.5 - 1e-12).any() or (hi > 1 + 1e-12).any() or (lo > hi).any():
            problems.append(Failure("theta-bound: ratio outside [1/2, 1]"))
        # Independent check: the scalar recursion of mse on a few draws.
        for i in sample_rows(theta["draws"])[:THETA_SPOT_CHECKS]:
            _, a, b, c, n1, n2, p0, row_lo, row_hi = table[i]
            params = mse.ScalarModelParams(a=a, b=b, c=c, drive_var=n1, meas_var=n2, init_var=p0)
            ratios = [mse.min_mmse_ratio(params, t) for t in range(1, theta["t_max"] + 1)]
            problems += compare(f"theta-bound draw {i} vs scalar recursion", [row_lo, row_hi], [min(ratios), max(ratios)])
        if ref is not None:
            problems += compare_long("theta-bound", table, ref)
        return problems

    ops = [
        _cli_op("mse-sweep", "mse-sweep", sweep_cfg, seed, workdir, sweep_units, check_sweep,
                lambda result: {"table": read_table(result.out)[1].tolist()}),
        _cli_op("theta-bound", "theta-bound", theta, seed, workdir, theta["draws"] * theta["t_max"], check_theta,
                lambda result: summarize_long(read_table(result.out)[1])),
    ]
    return Workload(ops)


WORKLOADS = {
    "phase-demod": phase_demod,
    "single-trajectory": single_trajectory,
    "mse-analysis": mse_analysis,
}


def build(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, scale, workdir)
