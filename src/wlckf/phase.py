"""Phase demodulation with improper measurement noise.

A real first-order Markov phase modulates a unit complex carrier observed
in improper complex noise. Two trackers estimate the phase, both the
unscented widely linear filter: ``"uwlckf"`` runs it on the true noise
statistics, and the proper-assuming baseline ``"ukf"`` runs it on the
same model with the noise's complementary variance set to zero. The phase
is real, so the state statistics are maximally improper in both.

The Monte Carlo helpers run the tracker vectorized over runs, and
:func:`improvement_ratio` runs both trackers as one batch whose rows differ
only in the noise complementary variance they assume. The joint [phase,
drive noise, measurement noise] covariance is block diagonal over three
scalar variables, so the step builds its sigma points in closed form
instead of by an eigendecomposition, with the constant noise blocks
factored once. The measurement noise is additive, so only the 9 points
that move the phase or the drive pass through the carrier. The points carry
the moments of :func:`wlckf.unscented.complex_sigma_points` of the same
statistics, and the step is cross-checked against
:func:`wlckf.unscented.uwlckf_step` in the test suite. Simulation draws
each run from its own generator, in the order of a single-run simulation,
and runs the phase recursion across runs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# build_transform and sample are unused here; bench/spans.py still rebinds
# both names in this module.
from .augmented import build_transform  # noqa: F401
from .errors import DegenerateError, DimensionError
from .stats import SecondOrderStats, composite_factor, sample, substream  # noqa: F401
from .unscented import NonlinearModel, UTParams

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


def _simulate(model: PhaseModel, horizon: int, rngs: list[np.random.Generator]):
    """Trajectories (rows, horizon + 1) and measurements (rows, horizon).

    Row r is drawn from ``rngs[r]``: the initial phase, then the drive
    sequence, then the measurement noise. The noise factor is computed once
    and the phase recursion runs across rows.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    mu_z, factor = composite_factor(model.noise_stats())
    rows = len(rngs)
    theta = np.empty((rows, horizon + 1))
    w = np.empty((rows, horizon))
    noise = np.empty((rows, horizon), complex)
    for r, rng in enumerate(rngs):
        theta[r, 0] = model.init_mean + np.sqrt(model.init_var) * rng.standard_normal()
        w[r] = rng.standard_normal(horizon)
        z = mu_z + rng.standard_normal((horizon, 2)) @ factor.T
        noise[r] = z[:, 0] + 1j * z[:, 1]
    for t in range(1, horizon + 1):
        theta[:, t] = model.a * theta[:, t - 1] + model.b * w[:, t - 1]
    return theta, np.exp(1j * theta[:, 1:]) + noise


def simulate_phase(model: PhaseModel, horizon: int, rng: np.random.Generator):
    """Phase trajectory t = 0..horizon and measurements t = 1..horizon."""
    theta, y = _simulate(model, horizon, [rng])
    return theta[0], y[0]


def normalized_error(theta, theta_hat) -> float:
    """Squared error norm over squared phase norm."""
    theta = np.asarray(theta, float)
    theta_hat = np.asarray(theta_hat, float)
    if theta.shape != theta_hat.shape:
        raise DimensionError("sequences must have equal length")
    denom = float(theta @ theta)
    if denom == 0:
        raise DegenerateError("zero phase sequence")
    err = theta_hat - theta
    return float(err @ err) / denom


def _scalar_eigenpairs(var: np.ndarray, cvar: np.ndarray):
    """Closed-form factor of scalar complex variables.

    The composite covariance of a variable with Hermitian variance p and
    complementary variance pt has eigenvalues (p + |pt|)/2 and
    (p - |pt|)/2 along the complex directions exp(j phi) and j exp(j phi),
    phi = arg(pt)/2. Returns the eigenvalues and the unit directions, each
    of shape ``var.shape + (2,)``.
    """
    half_abs = 0.5 * np.abs(cvar)
    lam = np.stack([0.5 * var + half_abs, 0.5 * var - half_abs], axis=-1)
    rot = np.exp(0.5j * np.angle(cvar))[..., None] * np.array([1.0, 1j])
    return lam, rot


# Joint sigma points of [phase, drive noise, meas noise], in the order of
# :func:`wlckf.unscented.complex_sigma_points`: the centre, the centre plus
# the two axes of each variable in turn, then the centre minus them.
# _DISTINCT_POINT maps each of the 13 points to one of 9 that differ in the
# phase or the drive, ordered [centre, +phase, +drive, -phase, -drive]: the
# measurement-noise points leave both at the centre.
_DISTINCT_POINT = np.array([0, 1, 2, 3, 4, 0, 0, 5, 6, 7, 8, 0, 0])
# Default unscented weights of the 6-dimensional composite joint, merged
# onto the 9 distinct points, and the spread of its points.
_W_MEAN, _W_COV = (np.bincount(_DISTINCT_POINT, weights=w) for w in UTParams().weights(6))
_SPREAD = np.sqrt(6 + UTParams().lam(6))


class _BatchUWLCKF:
    """Widely linear phase tracker vectorized over rows.

    State per row: complex estimate, Hermitian variance, complementary
    variance. ``noise_cvar`` gives the measurement-noise complementary
    variance each row assumes, so rows with the model's value and rows
    with zero run the two trackers side by side.

    The joint [phase, drive noise, meas noise] covariance is block diagonal
    over scalar variables, so its sigma points are built in closed form:
    the constant noise eigenpairs are computed here, and each step factors
    the phase only. Eigenvalues below 1e-13 of a row's largest over all
    three variables are flushed to zero, as in
    :func:`wlckf.augmented.psd_sqrt`. The measurement-noise points share the
    centre's transition output and enter the measurement additively, so
    only the other 9 points pass through the carrier exp(j x); a +/- pair of
    noise points adds exactly its eigenvalue's share of the noise moments.
    """

    def __init__(self, model: PhaseModel, noise_cvar: np.ndarray):
        self.model = model
        rows = len(noise_cvar)
        self.est = np.full(rows, model.init_mean, dtype=complex)
        self.p = np.full(rows, float(model.init_var))
        self.pt = np.full(rows, complex(model.init_var))
        self.max_imag = np.zeros(rows)
        # Unit, maximally improper drive noise; per-row measurement noise.
        var = np.array([1.0, model.noise_var])
        cvar = np.stack([np.ones(rows, complex), np.asarray(noise_cvar, complex)], axis=1)
        self._noise_lam, rot = _scalar_eigenpairs(var, cvar)
        self._noise_top = np.clip(self._noise_lam[:, :, 0].max(axis=1), 0.0, None)
        self._drive_axes = _SPREAD * np.sqrt(np.clip(self._noise_lam[:, 0], 0.0, None)) * rot[:, 0]
        self._meas_dir = rot[:, 1, 0] ** 2

    def step(self, y: np.ndarray) -> None:
        a, b = self.model.a, self.model.b
        lam, rot = _scalar_eigenpairs(self.p, self.pt)
        threshold = 1e-13 * np.maximum(lam[:, 0], self._noise_top)
        phase_axes = _SPREAD * np.sqrt(np.where(lam > threshold[:, None], lam, 0.0)) * rot
        keep = self._noise_lam > threshold[:, None, None]
        drive_axes = np.where(keep[:, 0], self._drive_axes, 0.0)
        # The +/- pair along a noise eigenvector with eigenvalue l adds l to
        # the Hermitian noise variance and +/- l along exp(2j phi) to the
        # complementary one.
        meas_lam = np.where(keep[:, 1], self._noise_lam[:, 1], 0.0)
        r = meas_lam[:, 0] + meas_lam[:, 1]
        rt = (meas_lam[:, 0] - meas_lam[:, 1]) * self._meas_dir

        m = self.est[:, None]
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
        p_xy = (dx * np.conj(dy)) @ _W_COV
        pt_xy = (dx * dy) @ _W_COV

        det = s * s - np.abs(st) ** 2
        bad = det <= 1e-14 * np.maximum(s, 1e-300) ** 2
        det_safe = np.where(bad, 1.0, det)
        k1 = (p_xy * s - pt_xy * np.conj(st)) / det_safe
        k2 = (pt_xy * s - p_xy * st) / det_safe
        if np.any(bad):
            for i in np.nonzero(bad)[0]:
                s_full = np.array([[s[i], st[i]], [np.conj(st[i]), s[i]]])
                row = np.array([p_xy[i], pt_xy[i]]) @ np.linalg.pinv(s_full)
                k1[i], k2[i] = row

        nu = y - y_pred
        self.est = x_pred + k1 * nu + k2 * np.conj(nu)
        ksk = s * (np.abs(k1) ** 2 + np.abs(k2) ** 2) + 2 * np.real(k1 * np.conj(k2) * st)
        ksk_t = 2 * s * k1 * k2 + st * k1 * k1 + np.conj(st) * k2 * k2
        self.p = p_pred - ksk
        self.pt = pt_pred - ksk_t
        np.maximum(self.max_imag, np.abs(self.est.imag), out=self.max_imag)


def _track(model: PhaseModel, ys: np.ndarray, noise_cvars: list[complex]):
    """Track every row of ``ys`` once per assumed noise complementary variance.

    Row block i of the returned (len(noise_cvars) * runs, steps) estimates
    and variances assumes ``noise_cvars[i]``; the third value is each
    row's largest |Im(estimate)|.
    """
    runs, steps = ys.shape
    copies = len(noise_cvars)
    engine = _BatchUWLCKF(model, np.repeat(noise_cvars, runs))
    estimates = np.empty((copies * runs, steps))
    variances = np.empty((copies * runs, steps))
    for t in range(steps):
        engine.step(np.tile(ys[:, t], copies))
        estimates[:, t] = engine.est.real
        variances[:, t] = engine.p
    return estimates, variances, engine.max_imag


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
    assumed = model if tracker == "uwlckf" else replace(model, rho_abs=0.0)
    estimates, variances, max_imag = _track(model, ys, [assumed.noise_cvar])
    return TrackResult(estimates, variances, float(max_imag.max()))


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


def improvement_ratio(snr_db: float, rho_abs: float, mc_runs: int, horizon: int, seed: int) -> RatioResult:
    """Mean per-run error ratio of the baseline UKF over the widely linear tracker.

    Both trackers consume the same simulated measurements in every run, so
    the per-run ratio is paired; the reported standard errors are over runs.
    """
    if mc_runs < 1:
        raise DimensionError("mc_runs must be >= 1")
    model = PhaseModel(snr_db=snr_db, rho_abs=rho_abs)
    thetas, ys = simulate_phase_batch(model, horizon, mc_runs, seed)
    truth = thetas[:, 1:]
    # Both trackers run as one batch on the same measurements: the first
    # mc_runs rows assume the model's noise, the last mc_runs proper noise.
    # On proper noise the two are one computation, so it is tracked once.
    proper = replace(model, rho_abs=0.0)
    cvars = [model.noise_cvar] if proper == model else [model.noise_cvar, proper.noise_cvar]
    estimates, _, max_imag = _track(model, ys, cvars)
    denom = np.sum(truth * truth, axis=1)
    xi_u = np.sum((estimates[:mc_runs] - truth) ** 2, axis=1) / denom
    xi_k = np.sum((estimates[-mc_runs:] - truth) ** 2, axis=1) / denom
    ratio = xi_k / xi_u

    def se(x):
        return float(np.std(x, ddof=1) / np.sqrt(len(x))) if len(x) > 1 else 0.0

    return RatioResult(
        snr_db=snr_db,
        rho_abs=rho_abs,
        runs=mc_runs,
        r_mean=float(ratio.mean()),
        r_stderr=se(ratio),
        xi_uwlckf=float(xi_u.mean()),
        xi_uwlckf_se=se(xi_u),
        xi_ukf=float(xi_k.mean()),
        xi_ukf_se=se(xi_k),
        max_imag=float(max_imag[:mc_runs].max()),
        seed=seed,
    )
