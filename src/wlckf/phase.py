"""Phase demodulation with improper measurement noise.

A real first-order Markov phase modulates a unit complex carrier observed
in improper complex noise. Two trackers estimate the phase, both the
unscented widely linear filter: ``"uwlckf"`` runs it on the true noise
statistics, and the proper-assuming baseline ``"ukf"`` runs it on the
same model with the noise's complementary variance set to zero. The phase
is real, so the state statistics are maximally improper in both.

The Monte Carlo helpers run the tracker vectorized over rows:
:func:`improvement_ratios` tracks consecutive operating points, both
trackers of each, in one engine of at most ``_BLOCK_ROWS`` rows (a point
with more rows has an engine of its own), each row with its own
measurement-noise variances. Memory sets the cap, as every point in flight
holds its trajectories and measurements, which its estimates overwrite. A
point keeps the bits it has alone, since OpenBLAS computes the rows past
the last multiple of 4 of a matrix-vector product in another kernel: a
point whose row count is no multiple of 4 ends its block, and the
trajectory keeps its one-row engine.

The blocks are independent, as every run draws from its own substream.
They are split by engine rows into balanced shares, the largest block
first onto the lightest share, one share per CPU that
:func:`wlckf.parallel.cpu_count` gives and at most one per block, and run
through :func:`wlckf.parallel.shared`. The calling process runs share 0
before it reads any child's results, so its peak memory stays at one
block, and a forked child runs each other share. Nothing is forked with
one CPU or one block: a multithreaded BLAS keeps the blocks in one
process, and ``OPENBLAS_NUM_THREADS=1`` lets them spread.

The joint [phase, drive noise, measurement noise] covariance is block
diagonal over three scalar variables, so the step builds its sigma points
in closed form instead of by an eigendecomposition, with the constant noise
blocks factored once. The measurement noise is additive, so only the 9
points that move the phase or the drive differ at the carrier. Of these,
the carrier is evaluated at 5: a real variable is maximally improper, so
the second eigenvalue of its composite covariance is zero and is flushed,
and the points along that axis are the centre. This always holds for the
unit real drive; for the phase, a row whose second eigenvalue survives the
flush has its 2 points evaluated too. The points carry the moments of
:func:`wlckf.unscented.complex_sigma_points` of the same statistics, and
the step is cross-checked against :func:`wlckf.unscented.uwlckf_step` in
the test suite. Simulation draws each run from its own generator, in the
order of a single-run simulation, and runs the phase recursion across
runs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .augmented import FLUSH, block_conjugate

# build_transform and sample are unused here; bench/spans.py still rebinds
# both names in this module.
from .augmented import build_transform  # noqa: F401
from .errors import DegenerateError, DimensionError
from .stats import SecondOrderStats, composite_factor, sample, substream  # noqa: F401
from .unscented import SPREAD, NonlinearModel, weights

TRACKERS = ("uwlckf", "ukf")


@dataclass
class PhaseModel:
    """Markov phase with quadrature measurement in improper complex noise.

    Hermitian noise variance is 1/SNR; the complementary variance is
    rho_abs * exp(j rho_phase) times that. The initial phase is Gaussian
    with the given mean and variance.
    """

    a: float = 0.98
    b: float = 0.05
    snr_db: float = 20.0
    rho_abs: float = 0.7
    rho_phase: float = 0.0
    init_mean: float = 0.0
    init_var: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho_abs <= 1.0:
            raise DimensionError("rho_abs must lie in [0, 1]")
        if self.init_var < 0:
            raise DimensionError("init_var must be nonnegative")

    @property
    def noise_var(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def noise_cvar(self) -> complex:
        return self.rho_abs * np.exp(1j * self.rho_phase) * self.noise_var

    def noise_stats(self) -> SecondOrderStats:
        return SecondOrderStats(np.zeros(1), [[self.noise_var]], [[self.noise_cvar]])

    def init_stats(self) -> SecondOrderStats:
        # A real state is maximally improper: complementary variance equals
        # the Hermitian variance.
        return SecondOrderStats(
            np.array([self.init_mean], complex), [[self.init_var]], [[self.init_var]]
        )


def nonlinear_phase_model(model: PhaseModel):
    """The phase model as a generic complex nonlinear state-space model."""
    return NonlinearModel(
        f=lambda x, w: model.a * x + model.b * w,
        h=lambda x, n: np.exp(1j * x) + n,
        drive_noise=SecondOrderStats(np.zeros(1), [[1.0]], [[1.0]]),
        meas_noise=model.noise_stats(),
        init=model.init_stats(),
    )


def _simulate_into(model: PhaseModel, rngs: list[np.random.Generator], theta: np.ndarray, y: np.ndarray) -> None:
    """Fill trajectories ``theta`` (rows, horizon + 1) and measurements ``y`` (rows, horizon).

    Row r is drawn from ``rngs[r]``: the initial phase, the drive sequence
    into theta[r, 1:], then the measurement noise into y[r]. The recursion
    and the carrier then work in place, with no temporary of the full size.
    """
    horizon = y.shape[1]
    mu_z, factor = composite_factor(model.noise_stats())
    for r, rng in enumerate(rngs):
        theta[r, 0] = model.init_mean + np.sqrt(model.init_var) * rng.standard_normal()
        rng.standard_normal(out=theta[r, 1:])
        z = mu_z + rng.standard_normal((horizon, 2)) @ factor.T
        y[r] = z[:, 0] + 1j * z[:, 1]
    for t in range(1, horizon + 1):
        theta[:, t] = model.a * theta[:, t - 1] + model.b * theta[:, t]
    for r in range(len(rngs)):
        y[r] += np.exp(1j * theta[r, 1:])


def _simulate(model: PhaseModel, horizon: int, rngs: list[np.random.Generator]):
    """Trajectories (rows, horizon + 1) and measurements (rows, horizon), row r from ``rngs[r]``."""
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    theta = np.empty((len(rngs), horizon + 1))
    y = np.empty((len(rngs), horizon), complex)
    _simulate_into(model, rngs, theta, y)
    return theta, y


def simulate_phase(model: PhaseModel, horizon: int, rng: np.random.Generator):
    """Phase trajectory t = 0..horizon and measurements t = 1..horizon."""
    theta, y = _simulate(model, horizon, [rng])
    return theta[0], y[0]


def normalized_error(theta, theta_hat):
    """Squared error norm over squared phase norm along the last axis.

    Leading axes are batch axes, one sequence per row; a pair of 1-d
    sequences gives a float.
    """
    theta = np.asarray(theta, float)
    theta_hat = np.asarray(theta_hat, float)
    if theta.shape != theta_hat.shape:
        raise DimensionError("sequences must have equal length")
    # One C-contiguous work array holds theta squared, then the squared error.
    work = np.empty(theta.shape)
    np.multiply(theta, theta, out=work)
    denom = np.sum(work, axis=-1)
    if np.any(denom == 0):
        raise DegenerateError("zero phase sequence")
    np.subtract(theta_hat, theta, out=work)
    np.multiply(work, work, out=work)
    xi = np.sum(work, axis=-1) / denom
    return float(xi) if xi.ndim == 0 else xi


# The eigenvector directions of a scalar variable relative to exp(j phi).
_AXES = np.array([1.0, 1j])


def _scalar_eigenpairs(var: np.ndarray, cvar: np.ndarray):
    """Closed-form factor of scalar complex variables.

    The composite covariance of a variable with Hermitian variance p and
    complementary variance pt has eigenvalues (p + |pt|)/2 and
    (p - |pt|)/2 along the complex directions exp(j phi) and j exp(j phi),
    phi = arg(pt)/2. Returns the eigenvalues and the unit directions, each
    of shape ``var.shape + (2,)``; the pair axis is the outermost in
    memory, so a loop over the variables runs down contiguous memory.
    """
    half_var = 0.5 * var
    half_abs = 0.5 * np.abs(cvar)
    lam = np.empty((2,) + half_var.shape)
    np.add(half_var, half_abs, out=lam[0])
    np.subtract(half_var, half_abs, out=lam[1])
    turn = np.exp(0.5j * np.angle(cvar))
    rot = turn * _AXES.reshape((2,) + (1,) * turn.ndim)
    last = (*range(1, lam.ndim), 0)
    return lam.transpose(last), rot.transpose(last)


# Joint sigma points of [phase, drive noise, meas noise], in the order of
# :func:`wlckf.unscented.complex_sigma_points`: the centre, the centre plus
# the two axes of each variable in turn, then the centre minus them.
# _DISTINCT_POINT maps each of the 13 points to one of 9 that differ in the
# phase or the drive, ordered [centre, +phase, +drive, -phase, -drive]: the
# measurement-noise points leave both at the centre.
_DISTINCT_POINT = np.array([0, 1, 2, 3, 4, 0, 0, 5, 6, 7, 8, 0, 0])
# Unscented weights of the 6-dimensional composite joint, merged onto the 9
# distinct points.
_W_MEAN, _W_COV = (np.bincount(_DISTINCT_POINT, weights=w) for w in weights(6))


class _BatchUWLCKF:
    """Widely linear phase tracker vectorized over rows.

    State per row: complex estimate, Hermitian variance, complementary
    variance. ``noise_var`` and ``noise_cvar`` give the measurement-noise
    Hermitian and complementary variance each row assumes, so rows of
    several operating points, and rows with the model's complementary
    variance beside rows with zero, run side by side. The model supplies
    the transition and the initial statistics.

    The joint [phase, drive noise, meas noise] covariance is block diagonal
    over scalar variables, so its sigma points are built in closed form:
    the constant noise eigenpairs are computed here, and each step factors
    the phase only. Eigenvalues at or below ``FLUSH`` times a row's largest
    over all three variables are flushed to zero, as in
    :func:`wlckf.augmented.psd_sqrt`. The noise terms that survive the
    flush are formed here too, and formed again only in a step where some
    row's phase eigenvalue exceeds its noises' largest. The
    measurement-noise points share the centre's transition output and
    enter the measurement additively, so only the other 9 points differ at
    the carrier exp(j x); a +/- pair of noise points adds exactly its
    eigenvalue's share of the noise moments.
    Of the 9, the +/- points along the second axis of the drive and of the
    phase are the centre wherever that axis's eigenvalue is flushed: always
    for the drive, whose unit real variance has a second eigenvalue of
    exactly 0, and for the phase in every row where it stays maximally
    improper. The carrier is evaluated at the other 5 points, and at the
    second phase axis of the rows where its eigenvalue survives; the
    centre's value fills the rest.

    Rows are independent bit for bit, except that OpenBLAS computes the
    ``@ _W_*`` products of the rows past the last multiple of 4 in another
    kernel; no other operation of the step depends on the batch size.
    """

    def __init__(self, model: PhaseModel, noise_var: np.ndarray, noise_cvar: np.ndarray):
        self.model = model
        rows = len(noise_cvar)
        self.est = np.full(rows, model.init_mean, dtype=complex)
        self.p = np.full(rows, float(model.init_var))
        self.pt = np.full(rows, complex(model.init_var))
        self.max_imag = np.zeros(rows)
        # Unit, maximally improper drive noise; per-row measurement noise.
        var = np.stack([np.ones(rows), np.asarray(noise_var, float)], axis=1)
        cvar = np.stack([np.ones(rows, complex), np.asarray(noise_cvar, complex)], axis=1)
        lam, rot = _scalar_eigenpairs(var, cvar)
        # Rows innermost in memory, as in the step's phase eigenpairs, so
        # the per-step flush of each eigenvalue runs down contiguous memory.
        self._noise_lam = np.asfortranarray(lam)
        self._noise_top = np.clip(lam[:, :, 0].max(axis=1), 0.0, None)
        self._drive_axes = np.asfortranarray(SPREAD * np.sqrt(np.clip(lam[:, 0], 0.0, None)) * rot[:, 0])
        self._meas_dir = rot[:, 1, 0] ** 2
        # The flush threshold, and the noise terms at it, of every step in
        # which no row's phase has a larger eigenvalue than its noises.
        self._threshold = FLUSH * self._noise_top
        self._noise = self._noise_terms(self._threshold)
        # Work arrays of the step. The 9 distinct points and their carrier
        # are built a point per row, so that loops over the batch run down
        # contiguous memory, then copied to (rows, 9) C-order arrays, whose
        # layout fixes the bits of the @ _W_* products: the points, then
        # their deviations from the predicted phase; the carrier, then its
        # deviations from the predicted measurement; the moment products.
        self._x_rows = np.empty((9, rows), complex)
        self._carrier_rows = np.empty((9, rows), complex)
        self._x = np.empty((rows, 9), complex)
        self._carrier = np.empty((rows, 9), complex)
        self._prod = np.empty((rows, 9), complex)
        self._sq = np.empty((rows, 9))
        self._sq_imag = np.empty((rows, 9))

    def _noise_terms(self, threshold: np.ndarray):
        """The drive's scaled axes and the measurement noise's moments after the flush at ``threshold``."""
        keep = self._noise_lam > threshold[:, None, None]
        drive_axes = np.where(keep[:, 0], self._drive_axes, 0.0)
        # The +/- pair along a noise eigenvector with eigenvalue l adds l to
        # the Hermitian noise variance and +/- l along exp(2j phi) to the
        # complementary one.
        meas_lam = np.where(keep[:, 1], self._noise_lam[:, 1], 0.0)
        r = meas_lam[:, 0] + meas_lam[:, 1]
        rt = (meas_lam[:, 0] - meas_lam[:, 1]) * self._meas_dir
        return drive_axes, r, rt

    def step(self, y: np.ndarray) -> None:
        a, b = self.model.a, self.model.b
        lam, rot = _scalar_eigenpairs(self.p, self.pt)
        # A row's threshold is FLUSH times its largest eigenvalue over the
        # three variables; it moves off the noises' only in a step where
        # some row's phase eigenvalue exceeds them.
        if np.count_nonzero(lam[:, 0] > self._noise_top):
            threshold = FLUSH * np.maximum(lam[:, 0], self._noise_top)
            drive_axes, r, rt = self._noise_terms(threshold)
        else:
            threshold = self._threshold
            drive_axes, r, rt = self._noise
        live = lam > threshold[:, None]
        phase_axes = SPREAD * np.sqrt(np.where(live, lam, 0.0)) * rot

        x_rows, carrier_rows = self._x_rows, self._carrier_rows
        m = self.est
        centre = x_rows[0]
        # Past the centre, the points split as [+/-, phase/drive, first/second axis].
        split = x_rows[1:].reshape(2, 2, 2, -1)
        np.multiply(a, m, out=centre)
        np.add(m, phase_axes.T, out=split[0, 0])
        np.subtract(m, phase_axes.T, out=split[1, 0])
        np.multiply(a, split[:, 0], out=split[:, 0])
        np.multiply(b, drive_axes.T, out=split[0, 1])
        np.subtract(centre, split[0, 1], out=split[1, 1])
        np.add(centre, split[0, 1], out=split[0, 1])
        # The points along the second axes of the phase and the drive are
        # the centre wherever their eigenvalue is flushed, which it always
        # is for the drive: only the other 5 pass through the carrier, and
        # rows whose second phase eigenvalue survives add their own 2.
        np.multiply(1j, x_rows, out=carrier_rows)
        np.exp(carrier_rows[:2], out=carrier_rows[:2])
        np.exp(carrier_rows[3::2], out=carrier_rows[3::2])
        carrier_rows[2::2] = carrier_rows[0]
        if live[:, 1].any():
            second_phase_axis = np.s_[2::4], np.flatnonzero(live[:, 1])
            carrier_rows[second_phase_axis] = np.exp(1j * x_rows[second_phase_axis])
        x, carrier, prod = self._x, self._carrier, self._prod
        x[...] = x_rows.T
        carrier[...] = carrier_rows.T

        x_pred = x @ _W_MEAN
        y_pred = carrier @ _W_MEAN
        dx = np.subtract(x, x_pred[:, None], out=x)
        dy = np.subtract(carrier, y_pred[:, None], out=carrier)
        sq, sq_imag = self._sq, self._sq_imag
        p_pred = np.add(np.square(dx.real, out=sq), np.square(dx.imag, out=sq_imag), out=sq) @ _W_COV
        pt_pred = np.multiply(dx, dx, out=prod) @ _W_COV
        s = np.add(np.square(dy.real, out=sq), np.square(dy.imag, out=sq_imag), out=sq) @ _W_COV + r
        st = np.multiply(dy, dy, out=prod) @ _W_COV + rt
        # Complex products are not bitwise commutative: each keeps the
        # operand order dx first, dy second.
        p_xy = np.multiply(dx, np.conjugate(dy, out=prod), out=prod) @ _W_COV
        pt_xy = np.multiply(dx, dy, out=prod) @ _W_COV

        det = s * s - np.abs(st) ** 2
        bad = det <= 1e-14 * np.maximum(s, 1e-300) ** 2
        det_safe = np.where(bad, 1.0, det)
        k1 = (p_xy * s - pt_xy * np.conj(st)) / det_safe
        k2 = (pt_xy * s - p_xy * st) / det_safe
        if bad.any():
            for i in np.nonzero(bad)[0]:
                s_full = block_conjugate(s[i, None, None], st[i, None, None])
                row = np.array([p_xy[i], pt_xy[i]]) @ np.linalg.pinv(s_full)
                k1[i], k2[i] = row

        nu = y - y_pred
        self.est = x_pred + k1 * nu + k2 * np.conj(nu)
        ksk = s * (np.abs(k1) ** 2 + np.abs(k2) ** 2) + 2 * (k1 * np.conj(k2) * st).real
        ksk_t = 2 * s * k1 * k2 + st * k1 * k1 + np.conj(st) * k2 * k2
        self.p = p_pred - ksk
        self.pt = pt_pred - ksk_t
        np.maximum(self.max_imag, np.abs(self.est.imag), out=self.max_imag)


@dataclass
class TrackResult:
    """Estimate and variance trajectories and the largest |Im(estimate)|.

    The arrays are (runs, steps) from :func:`track_batch` and (steps,) from
    :func:`run_tracker`.
    """

    estimates: np.ndarray
    variances: np.ndarray
    max_imag: float


def track_batch(model: PhaseModel, measurements: np.ndarray, tracker: str) -> TrackResult:
    """Run one tracker over a (runs, steps) batch of measurement sequences.

    ``"uwlckf"`` uses the model's noise statistics; the proper-assuming
    ``"ukf"`` runs the same filter with the noise complementary variance
    set to zero.
    """
    if tracker not in TRACKERS:
        raise ValueError(f"tracker must be one of {TRACKERS}, got {tracker!r}")
    ys = np.atleast_2d(np.asarray(measurements, dtype=complex))
    runs, steps = ys.shape
    assumed = model if tracker == "uwlckf" else replace(model, rho_abs=0.0)
    engine = _BatchUWLCKF(model, np.full(runs, model.noise_var), np.full(runs, assumed.noise_cvar))
    estimates = np.empty((runs, steps))
    variances = np.empty((runs, steps))
    for t in range(steps):
        engine.step(ys[:, t])
        estimates[:, t] = engine.est.real
        variances[:, t] = engine.p
    return TrackResult(estimates, variances, float(engine.max_imag.max()))


def run_tracker(model: PhaseModel, measurements, tracker: str) -> TrackResult:
    """Track one measurement sequence; returns per-step estimate and variance."""
    batch = track_batch(model, np.asarray(measurements, complex)[None, :], tracker)
    return TrackResult(batch.estimates[0], batch.variances[0], batch.max_imag)


def simulate_phase_batch(model: PhaseModel, horizon: int, runs: int, seed: int):
    """Independent seeded trajectories; run r uses substream (seed, r)."""
    return _simulate(model, horizon, [substream(seed, r) for r in range(runs)])


@dataclass
class RatioResult:
    """Monte Carlo comparison of the two trackers at one operating point."""

    snr_db: float
    rho_abs: float
    runs: int
    r_mean: float
    r_stderr: float
    xi_uwlckf: float
    xi_uwlckf_se: float
    xi_ukf: float
    xi_ukf_se: float
    max_imag: float
    seed: int


# Rows of one engine of Monte Carlo operating points. Each point in flight
# holds its trajectories and measurements, about 2.4 MB at 200 runs x 500
# steps, so memory sets the cap; larger engines gain little per row-step.
_BLOCK_ROWS = 800


def _blocks(sizes: list[int]) -> list[list[int]]:
    """Consecutive point indices, one list per engine; a larger point gets its own."""
    blocks, rows = [], _BLOCK_ROWS
    for i, size in enumerate(sizes):
        if rows + size > _BLOCK_ROWS:
            blocks.append([])
            rows = 0
        blocks[-1].append(i)
        # Rows past the last multiple of 4 take another OpenBLAS kernel, so
        # such a point keeps its tail rows at the end of the engine.
        rows = rows + size if size % 4 == 0 else _BLOCK_ROWS
    return blocks


def _se(x):
    return float(np.std(x, ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0


def _ratio_block(block, mc_runs: int, horizon: int) -> list[RatioResult]:
    """Simulate and track (model, seed, cvars) operating points in one engine.

    Point j owns measurement rows j * mc_runs onward, tracked once per
    assumed noise complementary variance in its ``cvars``: copy k of a row
    is engine row k * mc_runs past the point's first. A measurement is not
    read again once its step has run, so its two floats take that step's
    estimates, copy k in float k.
    """
    theta = np.empty((len(block) * mc_runs, horizon + 1))
    ys = np.empty((len(block) * mc_runs, horizon), complex)
    for j, (model, seed, _) in enumerate(block):
        rows = slice(j * mc_runs, (j + 1) * mc_runs)
        _simulate_into(model, [substream(seed, r) for r in range(mc_runs)], theta[rows], ys[rows])
    tracked = [(j, k, cvar) for j, (_, _, cvars) in enumerate(block) for k, cvar in enumerate(cvars)]
    source = np.concatenate([j * mc_runs + np.arange(mc_runs) for j, _, _ in tracked])
    copy = np.repeat([k for _, k, _ in tracked], mc_runs)
    noise_var = np.repeat([block[j][0].noise_var for j, _, _ in tracked], mc_runs)
    # Every model shares the transition and the initial statistics.
    engine = _BatchUWLCKF(block[0][0], noise_var, np.repeat([cvar for _, _, cvar in tracked], mc_runs))
    estimates = ys.view(float).reshape(ys.shape + (2,))
    for t in range(horizon):
        engine.step(ys[source, t])
        estimates[source, t, copy] = engine.est.real
    # Only the realness check is read from the engine; its work arrays go
    # before the statistics take theirs.
    max_imag = engine.max_imag
    del engine

    results, first = [], 0
    for j, (model, seed, cvars) in enumerate(block):
        rows = slice(j * mc_runs, (j + 1) * mc_runs)
        # The realness check covers every tracker of the point.
        last = first + len(cvars) * mc_runs
        xi_u = normalized_error(theta[rows, 1:], estimates[rows, :, 0])
        xi_k = normalized_error(theta[rows, 1:], estimates[rows, :, len(cvars) - 1])
        ratio = xi_k / xi_u
        results.append(RatioResult(
            snr_db=model.snr_db,
            rho_abs=model.rho_abs,
            runs=mc_runs,
            r_mean=float(ratio.mean()),
            r_stderr=_se(ratio),
            xi_uwlckf=float(xi_u.mean()),
            xi_uwlckf_se=_se(xi_u),
            xi_ukf=float(xi_k.mean()),
            xi_ukf_se=_se(xi_k),
            max_imag=float(max_imag[first:last].max()),
            seed=seed,
        ))
        first = last
    return results


def _shares(weights: list[int], count: int) -> list[list[int]]:
    """Indices of ``weights`` in ``count`` balanced shares, each in ascending order.

    The heaviest index goes first, each onto the lightest share so far (the
    first of equal ones).
    """
    shares, loads = [[] for _ in range(count)], [0] * count
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        lightest = loads.index(min(loads))
        shares[lightest].append(i)
        loads[lightest] += weights[i]
    return [sorted(share) for share in shares]


def improvement_ratios(points, mc_runs: int, horizon: int) -> list[RatioResult]:
    """:func:`improvement_ratio` at each (snr_db, rho_abs, seed) of ``points``.

    Consecutive points share an engine of at most ``_BLOCK_ROWS`` rows, and
    a block is freed before the next is simulated. The blocks are split by
    rows into balanced shares, one per CPU this process may run on (see the
    module docstring): this process runs share 0, and a forked child each
    other. Every result has the bits it has when its point runs alone. If
    blocks fail, the error of the first in order is raised, as it is when
    the blocks run one after another.
    """
    if mc_runs < 1:
        raise DimensionError("mc_runs must be >= 1")
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    specs = []
    for snr_db, rho_abs, seed in points:
        model = PhaseModel(snr_db=snr_db, rho_abs=rho_abs)
        # Rows assume the model's noise, then proper noise. On proper noise
        # the two are one computation, so it is tracked once.
        proper = replace(model, rho_abs=0.0)
        specs.append((model, seed, [model.noise_cvar] if proper == model else [model.noise_cvar, proper.noise_cvar]))
    sizes = [len(cvars) * mc_runs for _, _, cvars in specs]
    blocks = _blocks(sizes)
    jobs = [[specs[i] for i in block] for block in blocks]
    processes = min(len(jobs), parallel.cpu_count())
    shares = [range(len(jobs))] if processes < 2 else _shares([sum(sizes[i] for i in block) for block in blocks], processes)
    with parallel.shared(lambda b: _ratio_block(jobs[b], mc_runs, horizon), shares, ahead=True) as results:
        return [result for block in results for result in block]


def improvement_ratio(snr_db: float, rho_abs: float, mc_runs: int, horizon: int, seed: int) -> RatioResult:
    """Mean per-run error ratio of the baseline UKF over the widely linear tracker.

    Both trackers consume the same simulated measurements in every run, so
    the per-run ratio is paired; the reported standard errors are over runs.
    """
    return improvement_ratios([(snr_db, rho_abs, seed)], mc_runs, horizon)[0]
