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
filter when the two noises are improper, for one noise setting or for a
batch of them in one fixed-point loop.
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
        """The coefficients (a, b, c) at step ``t``; a sequence coefficient needs 1 <= t <= its length."""
        def pick(value):
            if np.ndim(value) == 0:
                return complex(value)
            if not 1 <= t <= len(value):
                raise DimensionError(f"step {t} is outside a coefficient sequence of length {len(value)}")
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


# Eigenvalue splits :func:`split_minimum_scan` evaluates.
SPLIT_GRID_POINTS = 101


def split_minimum_scan(params: ScalarModelParams, t: int) -> SplitScanResult:
    """Scan ``SPLIT_GRID_POINTS`` eigenvalue splits (lam, 2 p0 - lam) and locate the extremes.

    Exhaustive evaluation over the grid acts as the check that the extreme
    split minimizes the widely linear MMSE and the equal split maximizes it.
    """
    p0 = params.init_var
    lam_high = np.linspace(p0, 2 * p0, SPLIT_GRID_POINTS)
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
        min_at_extreme=i_min == SPLIT_GRID_POINTS - 1,
        max_at_equal=i_max == 0,
    )


# A 2x2 [[a, b], [c, d]] as the real parts (ar, ai, br, bi, cr, ci, dr, di):
# products of _DET_LEFT and _DET_RIGHT rows, with _DET_SIGN turning each
# difference into a sum, pair up into Re(ad), Im(ad), Re(bc), Im(bc).
_DET_LEFT = np.array([0, 1, 0, 1, 2, 3, 2, 3])
_DET_RIGHT = np.array([6, 7, 7, 6, 4, 5, 5, 4])
_DET_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0])[:, None]
# Entries in the order of the adjugate [[d, -b], [-c, a]], before the signs.
_ADJ = np.array([3, 1, 2, 0])
# Entries below this magnitude cannot overflow when squared.
_SQUARE_SAFE = 1e154
# A member's posterior P - K P has cancelled to rounding, and is taken as
# K R instead, when max |K P| exceeds max |P - K P| by this factor.
CANCEL = 1e6


def _largest_entries(m: np.ndarray) -> np.ndarray:
    """The largest |entry| of each 2x2 of a contiguous stack, as a flat array."""
    magnitude = np.abs(m.reshape(-1, 4))
    return np.maximum(np.maximum(magnitude[:, 0], magnitude[:, 1]), np.maximum(magnitude[:, 2], magnitude[:, 3]))


def _determinants(m: np.ndarray, scale: np.ndarray):
    """Determinants, shape (k, 1), of a contiguous (k, 4) stack of 2x2s with
    largest |entries| ``scale``, and whether each is negligible on that scale.
    """
    limit = np.square(np.maximum(scale, 1e-300))
    limit *= 1e-14
    parts = m.view(float).T
    products = parts[_DET_LEFT] * parts[_DET_RIGHT] * _DET_SIGN
    sums = products[0::2] + products[1::2]
    det = np.empty((len(m), 1), dtype=complex)
    np.subtract(sums[:2], sums[2:], out=det.view(float).T)
    return det, np.abs(det[:, 0]) <= limit


def _singular(m: np.ndarray) -> np.ndarray:
    """Whether each 2x2 of ``m[k, 2, 2]`` is singular by the criterion of :func:`_inv2`.

    Entries that overflow when squared give no answer of use; :func:`_inv2`
    rejects them.
    """
    m = np.ascontiguousarray(m, dtype=complex).reshape(-1, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        return _determinants(m, _largest_entries(m))[1]


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 in ``m[..., 2, 2]``: adjugate over determinant,
    pseudo-inverse for a matrix whose determinant is negligible on the
    scale of its entries.

    The determinant is formed from real and imaginary parts, each product
    rounded on its own as in scalar complex arithmetic (numpy's complex
    array multiply may fuse them), so every matrix of a stack gets the bits
    a lone 2x2 gets. Raises DegenerateError, with ``index`` the position in
    the stack of the first such matrix, when the entries of a matrix
    overflow when squared.
    """
    batch = np.shape(m)[:-2]
    m = np.ascontiguousarray(m, dtype=complex).reshape(-1, 4)
    k = len(m)
    scale = _largest_entries(m)
    if np.count_nonzero(scale < _SQUARE_SAFE) < k:
        with np.errstate(over="ignore"):
            overflow = np.isinf(np.maximum(scale, 1e-300) ** 2) & np.isfinite(scale)
        if np.count_nonzero(overflow):
            first = int(np.argmax(overflow))
            raise DegenerateError(
                f"2x2 entries of magnitude {scale[first]:.3g} overflow when squared", index=np.unravel_index(first, batch)
            )
    det, singular = _determinants(m, scale)
    adjugate = m[:, _ADJ]
    np.negative(adjugate[:, 1:3], out=adjugate[:, 1:3])
    if np.count_nonzero(singular):
        det[singular] = 1.0
        inverse = adjugate / det
        inverse[singular] = np.linalg.pinv(m[singular].reshape(-1, 2, 2)).reshape(-1, 4)
    else:
        inverse = adjugate / det
    return inverse.reshape(batch + (2, 2))


def min_mmse_ratio_sweep(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max: int) -> np.ndarray:
    """Vectorized best-case MMSE ratio over parameter draws and steps.

    All parameter arguments broadcast against each other; the result has
    shape (draws, t_max) with entry [i, t-1] the ratio for draw i at step t.
    Three eigenvalue branches start at the extreme split 2·p0 and 0 (the
    widely linear filter) and at p0 (the strictly linear one). Each step
    maps every branch through ``n2·pred / (c2·pred + n2)`` with
    ``pred = a2·lam + b2·n1``, then takes ``(hi + lo) / (2·mid)``. The
    updates run in place, through two work arrays allocated once, with the
    same elementwise operations in the same order as those expressions, so
    the bits are theirs. Beyond the result, memory is a few arrays of the
    broadcast shape, whatever ``t_max``.
    """
    a2, b2, c2 = (np.abs(np.asarray(v, float)) ** 2 for v in (a_abs, b_abs, c_abs))
    n1 = np.asarray(drive_var, float)
    n2 = np.asarray(meas_var, float)
    p0 = np.asarray(init_var, float)
    shape = np.broadcast_shapes(a2.shape, b2.shape, c2.shape, n1.shape, n2.shape, p0.shape)
    lam_hi = np.broadcast_to(2.0 * p0, shape).astype(float).copy()
    lam_lo = np.zeros(shape)
    lam_mid = np.broadcast_to(p0, shape).astype(float).copy()
    drive = b2 * n1
    pred, den = np.empty(shape), np.empty(shape)
    out = np.empty(shape + (t_max,))
    for t in range(t_max):
        for lam in (lam_hi, lam_lo, lam_mid):
            np.multiply(a2, lam, out=pred)
            np.add(pred, drive, out=pred)
            np.multiply(c2, pred, out=den)
            np.add(den, n2, out=den)
            np.multiply(n2, pred, out=lam)
            np.divide(lam, den, out=lam)
        np.add(lam_hi, lam_lo, out=pred)
        np.multiply(2.0, lam_mid, out=den)
        np.divide(pred, den, out=out[..., t])
    return out


@dataclass
class ImproprietyGain:
    """Convergent-MSE ratio of the strictly linear filter over the widely linear one."""

    ratio: float
    wl_mse: float
    sl_mse: float
    iterations: int
    converged: bool


@dataclass
class ImproprietyGains:
    """:class:`ImproprietyGain` fields as arrays over a batch of noise settings."""

    ratio: np.ndarray
    wl_mse: np.ndarray
    sl_mse: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


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
    This is the one-member call of :func:`noise_impropriety_gains`.

    The posterior is P - K P, except where that subtraction cancels: when
    the driving noise is far stronger than the measurement noise, P - K P
    is rounding left over from two nearly equal terms. So where max |K P|
    exceeds ``CANCEL`` times max |P - K P|, the posterior is the equal
    K R = P (P + R)^-1 R, which has no subtraction.

    Noise powers beyond double precision raise DegenerateError: a
    measurement noise power whose reciprocal overflows (zero, or subnormal
    below about 5.6e-309), matrix entries whose squares overflow, a widely
    linear MSE that rounding drives to zero or below, or a maximally
    improper driving noise (|rho_w| = 1, a singular augmented covariance Q)
    so much stronger than the posterior P that P + Q rounds to a singular
    matrix while P is regular, where the measurement noise's impropriety
    ties the lost part of P back into the recursion.
    """
    res = noise_impropriety_gains(rho_w, rho_n, n1_db, n2_db, horizon=horizon, tol=tol)
    return ImproprietyGain(
        ratio=float(res.ratio),
        wl_mse=float(res.wl_mse),
        sl_mse=float(res.sl_mse),
        iterations=int(res.iterations),
        converged=bool(res.converged),
    )


def _noise_covariances(power: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Augmented covariances power * [[1, rho], [conj(rho), 1]], one per member."""
    cov = np.empty((len(power), 2, 2), dtype=complex)
    cov[:, 0, 0] = cov[:, 1, 1] = 1.0
    cov[:, 0, 1], cov[:, 1, 0] = rho, np.conj(rho)
    cov *= power[:, None, None]
    return cov


def noise_impropriety_gains(rho_w, rho_n, n1_db, n2_db, horizon: int = 10_000, tol: float = 1e-12) -> ImproprietyGains:
    """:func:`noise_impropriety_gain` over a batch of noise settings at once.

    The four settings broadcast against each other, and each member of the
    broadcast shape gets the bits its one-member call gets: the members run
    the same covariance-form update on one ``(k, 2, 2)`` stack, each stops
    on its own iteration, and the stack shrinks only on iterations where
    some member stops. If any member fails, the call raises the error of
    the first failing member in order, with ``index`` naming it, once every
    member before it has finished.
    """
    rho_w, rho_n, n1_db, n2_db = np.broadcast_arrays(
        np.asarray(rho_w, dtype=complex), np.asarray(rho_n, dtype=complex), np.asarray(n1_db), np.asarray(n2_db)
    )
    shape = rho_w.shape
    rho_w, rho_n = rho_w.ravel(), rho_n.ravel()
    n1_db, n2_db = n1_db.ravel().tolist(), n2_db.ravel().tolist()
    n1 = np.array([db_to_linear(db) for db in n1_db])
    n2 = np.array([db_to_linear(db) for db in n2_db])
    k = len(n1)
    q, r = _noise_covariances(n1, rho_w), _noise_covariances(n2, rho_n)

    # The first member known to fail, as (member, error class, message).
    # Members after it no longer run: the call raises whatever they do.
    failure = None
    invalid = (np.abs(rho_w) > 1) | (np.abs(rho_n) > 1)
    # The recursion takes 1 / N2, which overflows below 1 / (largest double).
    unusable = invalid | (n2 < 1.0 / np.finfo(float).max)
    if np.count_nonzero(unusable):
        i = int(np.argmax(unusable))
        if invalid[i]:
            failure = (i, NotPSDError, "correlation coefficient magnitudes must be <= 1")
        else:
            failure = (i, DegenerateError, f"measurement noise power of {n2_db[i]} dB underflows: its reciprocal overflows")
    stop = k if failure is None else failure[0]
    # Widely and strictly linear MSE of every member, filled in as each one stops.
    result = np.ones((2, k))
    iterations = np.full(k, max(horizon, 0))
    converged = np.zeros(k, dtype=bool)
    # The working set: the members still iterating, their states and their MSE pairs.
    member = np.arange(stop)
    p_bar = np.broadcast_to(np.eye(2, dtype=complex), (stop, 2, 2)).copy()
    q, r, n1 = q[:stop], r[:stop], n1[:stop]
    inv_n2 = 1.0 / n2[:stop]
    # A singular driving-noise covariance Q can absorb the posterior: P + Q
    # rounds to the singular Q while P is regular, and the recursion loses
    # P along the null vector u of Q. That changes the fixed point only where
    # the measurement noise couples u to the range v of Q: u^H R v is
    # j N2 Im(conj(rho_w) rho_n), so a proper R or one of Q's orientation
    # keeps u apart, and P along u decays to zero whatever its start. The
    # members with a singular Q and a coupling R are checked on every
    # iteration; a batch with none skips the check.
    coupled = (np.conj(rho_w) * rho_n).imag != 0
    rank_one = _singular(q) & coupled[:stop]
    checking = bool(np.count_nonzero(rank_one))
    mse = result[:, :stop].copy()
    it = 0
    while it < horizon and len(member):
        predicted = p_bar + q
        try:
            gain = predicted @ _inv2(predicted + r)
        except DegenerateError as exc:
            j = exc.index[0]
            failure = (int(member[j]), DegenerateError, str(exc))
        else:
            j = None
            if checking and np.count_nonzero(rank_one):
                absorbed = np.zeros(len(member), dtype=bool)
                absorbed[rank_one] = _singular(predicted[rank_one]) & ~_singular(p_bar[rank_one])
                if np.count_nonzero(absorbed):
                    j = int(np.argmax(absorbed))
                    i = int(member[j])
                    failure = (
                        i, DegenerateError,
                        f"the singular driving-noise covariance absorbs the posterior at iteration {it + 1}: "
                        f"noise powers of {n1_db[i]} dB and {n2_db[i]} dB are too far apart for double precision",
                    )
        if j is not None:
            # Drop the member and all after it, and redo the iteration.
            member, p_bar, q, r, n1, inv_n2, rank_one = (a[:j] for a in (member, p_bar, q, r, n1, inv_n2, rank_one))
            mse = mse[:, :j]
            continue
        it += 1
        # K P and P - K P side by side, so one pass finds both scales.
        pair = np.empty((2, *predicted.shape), dtype=complex)
        kp, p_bar = pair
        np.matmul(gain, predicted, out=kp)
        np.subtract(predicted, kp, out=p_bar)
        kp_scale, p_bar_scale = _largest_entries(pair).reshape(2, -1)
        cancelled = kp_scale > CANCEL * p_bar_scale
        if np.count_nonzero(cancelled):
            p_bar[cancelled] = gain[cancelled] @ r[cancelled]
        p_bar = (p_bar + p_bar.conj().swapaxes(1, 2)) / 2
        new = np.empty_like(mse)
        wl, sl = new
        np.add(p_bar[:, 0, 0].real, p_bar[:, 1, 1].real, out=wl)
        wl *= 0.5
        np.add(mse[1], n1, out=sl)
        np.divide(1.0, sl, out=sl)
        sl += inv_n2
        np.divide(1.0, sl, out=sl)
        small = np.abs(new - mse) < tol
        done = small[0] & small[1]
        mse = new
        if np.count_nonzero(wl > 0) < len(member):
            j = int(np.argmin(wl > 0))
            i = int(member[j])
            failure = (
                i, DegenerateError,
                f"widely linear MSE is {float(wl[j])!r} at iteration {it}: noise powers of "
                f"{n1_db[i]} dB and {n2_db[i]} dB are too far apart for double precision",
            )
            done[j:] = True
        if np.count_nonzero(done):
            finished = member[done]
            result[:, finished] = mse[:, done]
            iterations[finished] = it
            converged[finished] = True
            keep = ~done
            member, p_bar, q, r, n1, inv_n2, rank_one = (a[keep] for a in (member, p_bar, q, r, n1, inv_n2, rank_one))
            mse = mse[:, keep]
    if failure is not None:
        i, error, message = failure
        raise error(message, index=np.unravel_index(i, shape))
    result[:, member] = mse
    wl_mse, sl_mse = result
    return ImproprietyGains(
        ratio=(sl_mse / wl_mse).reshape(shape),
        wl_mse=wl_mse.reshape(shape),
        sl_mse=sl_mse.reshape(shape),
        iterations=iterations.reshape(shape),
        converged=converged.reshape(shape),
    )
