"""Closed-form MSE analysis for the scalar widely linear model.

For the scalar state recursion x_t = a x_{t-1} + b w_{t-1} with
measurement y_t = c x_t + n_t and proper noises of variance N1 (driving)
and N2 (measurement), the posterior augmented covariance has eigenvalues
that evolve independently through the map

    step(lam) = N2 (|a|^2 lam + |b|^2 N1) / (|c|^2 (|a|^2 lam + |b|^2 N1) + N2)

so the widely linear MMSE at time t is the half-sum of the t-fold composed
map applied to the initial eigenvalues, while the strictly linear MMSE is
the composed map applied to the initial Hermitian variance alone. The
module also computes the convergent-MSE improvement of the widely linear
filter when the two noises are improper.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .augmented import eigenvalues_scalar_augmented
from .errors import DegenerateError, DimensionError, NotPSDError


def db_to_linear(db: float) -> float:
    """Power-ratio dB to linear scale."""
    return 10.0 ** (db / 10.0)


@dataclass
class ScalarModelParams:
    """Scalar model coefficients and second-order description.

    ``a``, ``b``, ``c`` may be complex scalars or per-step sequences
    (element t-1 of a sequence is used at step t). ``drive_var`` and
    ``meas_var`` are the Hermitian variances of the proper driving and
    measurement noise; ``init_var`` / ``init_cvar`` the Hermitian and
    complementary variance of the initial state.
    """

    a: complex | Sequence[complex] = 1.0
    b: complex | Sequence[complex] = 1.0
    c: complex | Sequence[complex] = 1.0
    drive_var: float = 1.0
    meas_var: float = 1.0
    init_var: float = 1.0
    init_cvar: complex = 0.0

    def __post_init__(self):
        if self.drive_var < 0 or self.meas_var < 0:
            raise NotPSDError("noise variances must be nonnegative")
        if abs(self.init_cvar) > self.init_var * (1 + 1e-12):
            raise NotPSDError("initial complementary variance exceeds the Hermitian variance")

    def coeff_at(self, t: int) -> tuple[complex, complex, complex]:
        def pick(value):
            if np.ndim(value) == 0:
                return complex(value)
            return complex(value[t - 1])

        return pick(self.a), pick(self.b), pick(self.c)

    def init_eigenvalues(self) -> tuple[float, float]:
        return eigenvalues_scalar_augmented(self.init_var, self.init_cvar)


def variance_step(lam, t: int, params: ScalarModelParams):
    """One predict-plus-update cycle applied to an error-variance eigenvalue.

    Increasing and concave in ``lam``; saturates at meas_var / |c|^2.
    Accepts scalar or array ``lam``.
    """
    a, b, c = params.coeff_at(t)
    predicted = abs(a) ** 2 * np.asarray(lam, dtype=float) + abs(b) ** 2 * params.drive_var
    den = abs(c) ** 2 * predicted + params.meas_var
    safe = np.where(den > 0, den, 1.0)
    # den == 0 only when both the measurement gain and noise vanish; the
    # measurement then carries no information and the predicted variance stands.
    return np.where(den > 0, params.meas_var * predicted / safe, predicted)[()]


def variance_after(lam0, t: int, params: ScalarModelParams):
    """t-fold composition of :func:`variance_step` starting from ``lam0``."""
    if t < 1:
        raise DimensionError("t must be >= 1")
    lam = np.asarray(lam0, dtype=float)
    for step in range(1, t + 1):
        lam = variance_step(lam, step, params)
    return lam[()]


def wl_mmse(params: ScalarModelParams, t: int) -> float:
    """Widely linear MMSE at time t: half-sum over the initial eigenvalue pair."""
    lam_hi, lam_lo = params.init_eigenvalues()
    return 0.5 * (variance_after(lam_hi, t, params) + variance_after(lam_lo, t, params))


def sl_mmse(params: ScalarModelParams, t: int) -> float:
    """Strictly linear MMSE at time t (complementary statistics unused)."""
    return float(variance_after(params.init_var, t, params))


def min_wl_mmse(params: ScalarModelParams, t: int) -> float:
    """Widely linear MMSE minimized over the complementary variance.

    The half-sum is Schur-concave in the eigenvalue pair, so the minimum
    over all splits with fixed Hermitian variance sits at the extreme
    split [2 init_var, 0], i.e. a maximally improper initial state.
    """
    p0 = params.init_var
    return 0.5 * (variance_after(2 * p0, t, params) + variance_after(0.0, t, params))


def min_mmse_ratio(params: ScalarModelParams, t: int) -> float:
    """Best-case widely linear MMSE over the strictly linear MMSE; in [1/2, 1]."""
    denom = sl_mmse(params, t)
    if denom <= 0:
        raise DegenerateError("strictly linear MMSE is zero; ratio undefined")
    return min_wl_mmse(params, t) / denom


@dataclass
class SplitScanResult:
    """Grid scan of the eigenvalue split objective at fixed Hermitian variance."""

    lam_high: np.ndarray
    values: np.ndarray
    argmin_split: tuple[float, float]
    argmax_split: tuple[float, float]
    min_at_extreme: bool
    max_at_equal: bool


def split_minimum_scan(params: ScalarModelParams, t: int, grid_points: int = 101) -> SplitScanResult:
    """Scan eigenvalue splits (lam, 2 p0 - lam) and locate the extremes.

    Exhaustive evaluation over the grid acts as the check that the extreme
    split minimizes the widely linear MMSE and the equal split maximizes it.
    """
    p0 = params.init_var
    lam_high = np.linspace(p0, 2 * p0, grid_points)
    values = np.array(
        [0.5 * (variance_after(lam, t, params) + variance_after(2 * p0 - lam, t, params)) for lam in lam_high]
    )
    i_min = int(np.argmin(values))
    i_max = int(np.argmax(values))
    return SplitScanResult(
        lam_high=lam_high,
        values=values,
        argmin_split=(float(lam_high[i_min]), float(2 * p0 - lam_high[i_min])),
        argmax_split=(float(lam_high[i_max]), float(2 * p0 - lam_high[i_max])),
        min_at_extreme=i_min == grid_points - 1,
        max_at_equal=i_max == 0,
    )


def scalar_posterior_cov_seq(params: ScalarModelParams, t_max: int) -> list[tuple[float, complex]]:
    """Posterior (Hermitian, complementary) variance for t = 1..t_max.

    Runs the 2x2 augmented information-form recursion
    P_post = [(|a|^2 P + |b|^2 Q)^-1 + |c|^2 R^-1]^-1 with proper noises.
    """
    p_bar = np.array(
        [[params.init_var, params.init_cvar], [np.conj(params.init_cvar), params.init_var]], dtype=complex
    )
    out: list[tuple[float, complex]] = []
    r_inv = _inv2(np.eye(2, dtype=complex) * params.meas_var)
    for t in range(1, t_max + 1):
        a, b, c = params.coeff_at(t)
        a_bar = np.array([[a, 0], [0, np.conj(a)]], dtype=complex)
        predicted = a_bar @ p_bar @ a_bar.conj().T + abs(b) ** 2 * params.drive_var * np.eye(2)
        p_bar = _inv2(_inv2(predicted) + abs(c) ** 2 * r_inv)
        out.append((float(p_bar[0, 0].real), complex(p_bar[0, 1])))
    return out


def _inv2(m: np.ndarray) -> np.ndarray:
    """Adjugate inverse of a 2x2; pseudo-inverse when singular."""
    scale = float(np.max(np.abs(m), initial=0.0))
    try:
        limit = 1e-14 * max(scale, 1e-300) ** 2
    except OverflowError:
        raise DegenerateError(f"2x2 entries of magnitude {scale:.3g} overflow when squared") from None
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= limit:
        return np.linalg.pinv(m)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / det


def min_mmse_ratio_sweep(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max: int) -> np.ndarray:
    """Vectorized best-case MMSE ratio over parameter draws and steps.

    All parameter arguments broadcast against each other; the result has
    shape (draws, t_max) with entry [i, t-1] the ratio for draw i at step t.
    """
    a2, b2, c2 = (np.abs(np.asarray(v, float)) ** 2 for v in (a_abs, b_abs, c_abs))
    n1 = np.asarray(drive_var, float)
    n2 = np.asarray(meas_var, float)
    p0 = np.asarray(init_var, float)
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


@dataclass
class ImproprietyGain:
    """Convergent-MSE ratio of the strictly linear filter over the widely linear one."""

    ratio: float
    wl_mse: float
    sl_mse: float
    iterations: int
    converged: bool


def noise_impropriety_gain(
    rho_w: complex,
    rho_n: complex,
    n1_db: float,
    n2_db: float,
    horizon: int = 10_000,
    tol: float = 1e-12,
) -> ImproprietyGain:
    """Steady-state MSE ratio when driving and measurement noise are improper.

    Unit coefficients and unit proper initial state; the driving noise has
    Hermitian variance 10^(n1_db/10) and complementary correlation rho_w,
    the measurement noise likewise with n2_db and rho_n. The widely linear
    recursion runs on the full 2x2 augmented covariance in covariance form
    (identical to the information form when the measurement covariance is
    invertible, and well defined when it is singular at |rho_n| = 1); the
    strictly linear one runs on the Hermitian variance alone. Both iterate
    until the MSE change drops below ``tol`` or the horizon caps the run.

    Noise powers too far apart for double precision raise DegenerateError:
    a measurement noise power that underflows to zero, matrix entries whose
    squares overflow, or a widely linear MSE that rounding drives to zero
    or below.
    """
    if abs(rho_w) > 1 or abs(rho_n) > 1:
        raise NotPSDError("correlation coefficient magnitudes must be <= 1")
    n1 = db_to_linear(n1_db)
    n2 = db_to_linear(n2_db)
    if n2 == 0:
        raise DegenerateError(f"measurement noise power of {n2_db} dB underflows to zero")
    q_bar = n1 * np.array([[1.0, rho_w], [np.conj(rho_w), 1.0]], dtype=complex)
    r_bar = n2 * np.array([[1.0, rho_n], [np.conj(rho_n), 1.0]], dtype=complex)
    p_bar = np.eye(2, dtype=complex)
    p_sl = 1.0
    wl_mse = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, horizon + 1):
        predicted = p_bar + q_bar
        gain = predicted @ _inv2(predicted + r_bar)
        p_bar = predicted - gain @ predicted
        p_bar = (p_bar + p_bar.conj().T) / 2
        wl_new = 0.5 * float(np.trace(p_bar).real)
        if not wl_new > 0:
            raise DegenerateError(
                f"widely linear MSE is {wl_new!r} at iteration {iterations}: noise powers of "
                f"{n1_db} dB and {n2_db} dB are too far apart for double precision"
            )
        p_sl_pred = p_sl + n1
        p_sl_new = 1.0 / (1.0 / p_sl_pred + 1.0 / n2)
        done = abs(wl_new - wl_mse) < tol and abs(p_sl_new - p_sl) < tol
        wl_mse, p_sl = wl_new, p_sl_new
        if done:
            converged = True
            break
    return ImproprietyGain(
        ratio=p_sl / wl_mse,
        wl_mse=wl_mse,
        sl_mse=p_sl,
        iterations=iterations,
        converged=converged,
    )
