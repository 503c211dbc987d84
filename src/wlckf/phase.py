"""Phase demodulation with improper measurement noise.

A real first-order Markov phase modulates a unit complex carrier observed
in improper complex noise. Two trackers estimate the phase, both the
unscented widely linear filter: ``"uwlckf"`` runs it on the true noise
statistics, and the proper-assuming baseline ``"ukf"`` runs it on the
same model with the noise's complementary variance set to zero. The phase
is real, so the state statistics are maximally improper in both.

The Monte Carlo helpers run the tracker vectorized over runs. The joint
[phase, drive noise, measurement noise] covariance is block diagonal over
three scalar variables, so the vectorized step builds its sigma points in
closed form instead of by an eigendecomposition. They carry the moments of
:func:`wlckf.unscented.complex_sigma_points` of the same statistics, and
the step is cross-checked against :func:`wlckf.unscented.uwlckf_step` in
the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Unused here; bench/spans.py still rebinds this name in this module.
from .augmented import build_transform  # noqa: F401
from .errors import DegenerateError, DimensionError
from .stats import SecondOrderStats, sample, substream
from .unscented import UTParams

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
    from .unscented import NonlinearModel

    return NonlinearModel(
        f=lambda x, w: model.a * x + model.b * w,
        h=lambda x, n: np.exp(1j * x) + n,
        drive_noise=SecondOrderStats(np.zeros(1), [[1.0]], [[1.0]]),
        meas_noise=model.noise_stats(),
        init=model.init_stats(),
    )


def simulate_phase(model: PhaseModel, horizon: int, rng: np.random.Generator):
    """Phase trajectory t = 0..horizon and measurements t = 1..horizon."""
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    theta = np.empty(horizon + 1)
    theta[0] = model.init_mean + np.sqrt(model.init_var) * rng.standard_normal()
    w = rng.standard_normal(horizon)
    for t in range(1, horizon + 1):
        theta[t] = model.a * theta[t - 1] + model.b * w[t - 1]
    noise = sample(model.noise_stats(), horizon, rng)[:, 0]
    y = np.exp(1j * theta[1:]) + noise
    return theta, y


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


def _scalar_sigma_points(mean: np.ndarray, var: np.ndarray, cvar: np.ndarray, params: UTParams):
    """Joint sigma points of independent scalar complex variables, in closed form.

    ``mean``, ``var`` and ``cvar`` are (B, k) means, Hermitian variances and
    complementary variances. The composite covariance of a variable with
    statistics (p, pt) has eigenvalues (p + |pt|)/2 and (p - |pt|)/2 along
    the complex directions exp(j phi) and j exp(j phi), phi = arg(pt)/2; a
    joint covariance that is block diagonal over the variables factors block
    by block. Eigenvalues below 1e-13 of a row's largest are flushed to zero,
    as in :func:`wlckf.augmented.psd_sqrt`. Returns points (B, 4k+1, k)
    ordered [mean, mean + offsets, mean - offsets], and the mean and
    covariance weights.
    """
    runs, k = mean.shape
    w_mean, w_cov = params.weights(2 * k)
    spread = np.sqrt(2 * k + params.lam(2 * k))
    half_abs = 0.5 * np.abs(cvar)
    lam = np.stack([0.5 * var + half_abs, 0.5 * var - half_abs], axis=-1)
    top = np.clip(lam[:, :, 0].max(axis=1), 0.0, None)
    lam = np.where(lam > 1e-13 * top[:, None, None], lam, 0.0)
    rot = np.exp(0.5j * np.angle(cvar))[:, :, None] * np.array([1.0, 1j])
    axes = (spread * np.sqrt(lam) * rot).reshape(runs, 2 * k)
    points = np.repeat(mean[:, None, :], 4 * k + 1, axis=1)
    col = np.arange(2 * k)  # axis col belongs to variable col // 2
    points[:, 1 + col, col // 2] += axes
    points[:, 1 + 2 * k + col, col // 2] -= axes
    return points, w_mean, w_cov


class _BatchUWLCKF:
    """Widely linear phase tracker vectorized over Monte Carlo runs.

    State per run: complex estimate, Hermitian variance, complementary
    variance. Each step draws the joint [phase, drive noise, meas noise]
    sigma points in closed form and runs the unscented cycle.
    """

    def __init__(self, model: PhaseModel, runs: int, params: UTParams):
        self.model = model
        self.params = params
        self.est = np.full(runs, model.init_mean, dtype=complex)
        self.p = np.full(runs, float(model.init_var))
        self.pt = np.full(runs, complex(model.init_var))
        # Joint statistics; the drive and measurement noise columns are constant.
        self._mean = np.zeros((runs, 3), dtype=complex)
        self._var = np.tile([0.0, 1.0, model.noise_var], (runs, 1))
        self._cvar = np.tile(np.array([0.0, 1.0, model.noise_cvar], dtype=complex), (runs, 1))
        self.max_imag = 0.0

    def step(self, y: np.ndarray) -> None:
        model = self.model
        self._mean[:, 0] = self.est
        self._var[:, 0] = self.p
        self._cvar[:, 0] = self.pt
        pts, wm, wc = _scalar_sigma_points(self._mean, self._var, self._cvar, self.params)

        x_next = model.a * pts[:, :, 0] + model.b * pts[:, :, 1]
        y_pts = np.exp(1j * x_next) + pts[:, :, 2]
        x_pred = x_next @ wm
        y_pred = y_pts @ wm
        dx = x_next - x_pred[:, None]
        dy = y_pts - y_pred[:, None]
        p_pred = np.real((wc * dx * np.conj(dx)).sum(axis=1))
        pt_pred = (wc * dx * dx).sum(axis=1)
        s = np.real((wc * dy * np.conj(dy)).sum(axis=1))
        st = (wc * dy * dy).sum(axis=1)
        p_xy = (wc * dx * np.conj(dy)).sum(axis=1)
        pt_xy = (wc * dx * dy).sum(axis=1)

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
        self.max_imag = max(self.max_imag, float(np.max(np.abs(self.est.imag), initial=0.0)))


@dataclass
class BatchTrackResult:
    """Per-run estimate and variance trajectories from a vectorized tracker."""

    estimates: np.ndarray
    variances: np.ndarray
    max_imag: float


def track_batch(
    model: PhaseModel,
    measurements: np.ndarray,
    tracker: str,
    params: UTParams = UTParams(),
) -> BatchTrackResult:
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
    engine = _BatchUWLCKF(assumed, runs, params)
    estimates = np.empty((runs, steps))
    variances = np.empty((runs, steps))
    for t in range(steps):
        engine.step(ys[:, t])
        estimates[:, t] = engine.est.real
        variances[:, t] = engine.p
    return BatchTrackResult(estimates, variances, engine.max_imag)


@dataclass
class TrackResult:
    """Single-trajectory tracker output."""

    estimates: np.ndarray
    variances: np.ndarray
    max_imag: float


def run_tracker(
    model: PhaseModel,
    measurements,
    tracker: str,
    params: UTParams = UTParams(),
) -> TrackResult:
    """Track one measurement sequence; returns per-step estimate and variance."""
    batch = track_batch(model, np.asarray(measurements, complex)[None, :], tracker, params)
    return TrackResult(batch.estimates[0], batch.variances[0], batch.max_imag)


def simulate_phase_batch(model: PhaseModel, horizon: int, runs: int, seed: int):
    """Independent seeded trajectories; run r uses substream (seed, r)."""
    thetas = np.empty((runs, horizon + 1))
    ys = np.empty((runs, horizon), complex)
    for r in range(runs):
        thetas[r], ys[r] = simulate_phase(model, horizon, substream(seed, r))
    return thetas, ys


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


def improvement_ratio(
    snr_db: float,
    rho_abs: float,
    mc_runs: int,
    horizon: int,
    seed: int,
    params: UTParams = UTParams(),
    model: PhaseModel | None = None,
) -> RatioResult:
    """Mean per-run error ratio of the baseline UKF over the widely linear tracker.

    Both trackers consume the same simulated measurements in every run, so
    the per-run ratio is paired; the reported standard errors are over runs.
    """
    if mc_runs < 1:
        raise DimensionError("mc_runs must be >= 1")
    if model is None:
        model = PhaseModel(snr_db=snr_db, rho_abs=rho_abs)
    thetas, ys = simulate_phase_batch(model, horizon, mc_runs, seed)
    truth = thetas[:, 1:]
    res_u = track_batch(model, ys, "uwlckf", params)
    # On proper noise the baseline is the same computation; track once.
    res_k = res_u if replace(model, rho_abs=0.0) == model else track_batch(model, ys, "ukf", params)
    denom = np.sum(truth * truth, axis=1)
    xi_u = np.sum((res_u.estimates - truth) ** 2, axis=1) / denom
    xi_k = np.sum((res_k.estimates - truth) ** 2, axis=1) / denom
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
        max_imag=res_u.max_imag,
        seed=seed,
    )
