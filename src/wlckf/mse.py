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
filter when the two noises are improper: in closed form, where a
congruence splits the steady-state equation into two such scalar channels,
and by a fixed-point loop over a batch of noise settings, whose value
stands where it converges to the closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .augmented import _first, _require, block_conjugate
from .errors import ConsistencyError, DegenerateError, DimensionError, NotPSDError


def db_to_linear(db: float) -> float:
    """Power-ratio dB to linear scale; inf where that overflows a double."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass
class ScalarModelParams:
    """Scalar model coefficients and second-order description.

    ``a``, ``b``, ``c`` may be complex scalars or per-step sequences
    (element t-1 of a sequence is used at step t). ``drive_var`` and
    ``meas_var`` are the Hermitian variances of the proper driving and
    measurement noise; ``init_var`` / ``init_cvar`` the Hermitian and
    complementary variance of the initial state. ConsistencyError, naming
    the field, rejects a NaN or infinite coefficient (or sequence entry)
    or variance, and a coefficient entry whose squared magnitude overflows.
    """

    a: complex | Sequence[complex] = 1.0
    b: complex | Sequence[complex] = 1.0
    c: complex | Sequence[complex] = 1.0
    drive_var: float = 1.0
    meas_var: float = 1.0
    init_var: float = 1.0
    init_cvar: complex = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "drive_var", "meas_var", "init_var", "init_cvar"):
            if not np.isfinite(np.asarray(getattr(self, name), dtype=complex)).all():
                raise ConsistencyError(f"{name} has non-finite entries")
        with np.errstate(over="ignore"):
            for name in ("a", "b", "c"):
                if not np.isfinite(np.square(np.abs(np.asarray(getattr(self, name), dtype=complex)))).all():
                    raise ConsistencyError(f"{name} has an entry whose squared magnitude overflows a double")
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
        """Eigenvalues (descending) of the initial augmented covariance [[p, pt], [pt*, p]]."""
        p = float(self.init_var)
        mag = abs(complex(self.init_cvar))
        slack = 1e-12 * max(1.0, p)
        if p < -slack or mag > p + slack:
            raise NotPSDError(f"scalar augmented matrix with p={p}, |pt|={mag} is not PSD")
        return p + mag, max(p - mag, 0.0)


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
# Below this magnitude, a number's reciprocal overflows.
_RECIPROCAL_SAFE = 1.0 / np.finfo(float).max
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


def _inv2(m: np.ndarray) -> np.ndarray:
    """Inverse of each 2x2 in ``m[..., 2, 2]``: adjugate over determinant,
    pseudo-inverse for a matrix whose determinant is negligible on the
    scale of its entries.

    The determinant is formed from real and imaginary parts, each product
    rounded on its own as in scalar complex arithmetic (numpy's complex
    array multiply may fuse them), so every matrix of a stack gets the bits
    a lone 2x2 gets. A matrix with no usable inverse gets NaN entries: one
    with an entry that is not finite or that overflows when squared, or
    with a determinant too small to divide by (entries near 1e-150 and
    below). No floating-point warning is emitted.
    """
    batch = np.shape(m)[:-2]
    m = np.ascontiguousarray(m, dtype=complex).reshape(-1, 4)
    scale = _largest_entries(m)
    overflow = None
    if np.count_nonzero(scale < _SQUARE_SAFE) < len(m):
        with np.errstate(over="ignore"):
            overflow = ~np.isfinite(np.square(scale))
        # Such a matrix stands in as the identity, whose determinant is
        # finite; its inverse is set to NaN below.
        m = np.where(overflow[:, None], [1, 0, 0, 1], m)
        scale = np.where(overflow, 1.0, scale)
    det, singular = _determinants(m, scale)
    unusable = (np.abs(det[:, 0]) < _RECIPROCAL_SAFE) & ~singular
    if overflow is not None:
        unusable |= overflow
    adjugate = m[:, _ADJ]
    np.negative(adjugate[:, 1:3], out=adjugate[:, 1:3])
    if np.count_nonzero(singular) or np.count_nonzero(unusable):
        det[singular | unusable] = 1.0
        inverse = adjugate / det
        if np.count_nonzero(singular):
            inverse[singular] = np.linalg.pinv(m[singular].reshape(-1, 2, 2)).reshape(-1, 4)
        inverse[unusable] = np.nan
    else:
        inverse = adjugate / det
    return inverse.reshape(batch + (2, 2))


def _ratio_steps(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max: int):
    """Yield the best-case MMSE ratio of every draw at steps 1 to ``t_max``, in turn.

    Three eigenvalue branches start at the extreme split 2·p0 and 0 (the
    widely linear filter) and at p0 (the strictly linear one). Each step
    maps every branch through ``n2·pred / (c2·pred + n2)`` with
    ``pred = a2·lam + b2·n1``, then takes ``(hi + lo) / (2·mid)``. The
    updates run in place, through work arrays allocated once, with the
    same elementwise operations in the same order as those expressions, so
    the bits are theirs. Every step's ratio is written into one buffer of
    the broadcast shape, which is yielded each time: a caller that keeps a
    step must copy it before asking for the next. As in
    :func:`variance_step`, a branch whose denominator is exactly 0 (no
    measurement noise, and no measurement gain or no predicted variance)
    keeps its predicted value.
    As in :func:`min_mmse_ratio`, a strictly linear branch that is exactly
    0 at a step leaves the ratio undefined and raises DegenerateError, whose
    ``index`` is the first such draw; a NaN parameter gives NaN ratios.
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
    pred, den, ratio = np.empty(shape), np.empty(shape), np.empty(shape)
    zero, live = np.empty(shape, bool), np.empty(shape, bool)
    for _ in range(t_max):
        for lam in (lam_hi, lam_lo, lam_mid):
            np.multiply(a2, lam, out=pred)
            np.add(pred, drive, out=pred)
            np.multiply(c2, pred, out=den)
            np.add(den, n2, out=den)
            np.multiply(n2, pred, out=lam)
            # The test is den == 0, not variance_step's den > 0, so that a
            # NaN denominator still gives NaN.
            np.equal(den, 0.0, out=zero)
            np.divide(lam, den, out=lam, where=np.logical_not(zero, out=live))
            np.copyto(lam, pred, where=zero)
        _require(lam_mid == 0, DegenerateError, "strictly linear MMSE is zero; ratio undefined")
        np.add(lam_hi, lam_lo, out=pred)
        np.multiply(2.0, lam_mid, out=den)
        np.divide(pred, den, out=ratio)
        yield ratio


def min_mmse_ratio_sweep(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max: int) -> np.ndarray:
    """Vectorized best-case MMSE ratio over parameter draws and steps.

    All parameter arguments broadcast against each other; the result has
    shape (draws, t_max) with entry [i, t-1] the ratio for draw i at step t,
    and is empty at ``t_max`` 0. It runs the recursion of
    :func:`min_mmse_ratio_bounds`, which writes every step into one reused
    buffer, and copies each step out of that buffer into the result. Beyond
    the result, memory is a few arrays of the broadcast shape, whatever
    ``t_max``. A draw whose strictly linear MMSE is exactly 0 at a step
    raises DegenerateError naming it in ``index``.
    """
    params = (a_abs, b_abs, c_abs, drive_var, meas_var, init_var)
    out = np.empty(np.broadcast_shapes(*map(np.shape, params)) + (t_max,))
    for t, ratio in enumerate(_ratio_steps(*params, t_max)):
        out[..., t] = ratio
    return out


def min_mmse_ratio_bounds(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max: int):
    """Smallest and largest best-case MMSE ratio of each draw over steps 1 to ``t_max``.

    The two arrays, of the parameters' broadcast shape, have the bits of
    ``min_mmse_ratio_sweep(...).min(-1)`` and ``.max(-1)``, NaN included,
    without the (draws, t_max) array: the steps come one at a time through
    one reused buffer and fold into running minima and maxima, so memory is
    a few arrays of the broadcast shape, whatever ``t_max``. A ``t_max``
    below 1 raises DimensionError; a draw whose strictly linear MMSE is
    exactly 0 at a step raises DegenerateError naming it in ``index``.
    """
    if t_max < 1:
        raise DimensionError("t_max must be >= 1")
    steps = _ratio_steps(a_abs, b_abs, c_abs, drive_var, meas_var, init_var, t_max)
    first = next(steps)
    lo, hi = first.copy(), first.copy()
    for ratio in steps:
        np.minimum(lo, ratio, out=lo)
        np.maximum(hi, ratio, out=hi)
    return lo, hi


@dataclass
class ImproprietyGain:
    """Convergent-MSE ratio of the strictly linear filter over the widely linear one.

    ``iterations`` is where the recursion converged, or 0 for the closed form.
    """

    ratio: float
    wl_mse: float
    sl_mse: float
    iterations: int


@dataclass
class ImproprietyGains:
    """:class:`ImproprietyGain` fields as arrays over a batch of noise settings."""

    ratio: np.ndarray
    wl_mse: np.ndarray
    sl_mse: np.ndarray
    iterations: np.ndarray


# A correlation magnitude within this distance of 1 is maximally improper:
# it absorbs the rounding of a unit |rho| e^{j phase}.
ON_CIRCLE = 4 * np.finfo(float).eps
# A converged member keeps the recursion's value only within this relative
# distance of the closed form.
AGREE = 1e-6
# A member leaves the recursion once its strictly linear MSE change, shrunk
# at the slowest rate the map allows until the horizon, stays above this
# many times ``tol``. The test runs every EXIT_EVERY iterations, which keeps
# its cost off the members that converge.
EXIT_MARGIN = 2.0
EXIT_EVERY = 8


def _posterior(q, r):
    """Steady posterior variance of a scalar channel with driving power q and measurement power r.

    The predicted variance m solves m - q = m r / (m + r), and the posterior
    m r / (m + r) = 2 r sqrt(q) / (sqrt(q) + sqrt(q + 4 r)) subtracts
    nothing. It is 0 where q or r is; the maximum keeps 0 / 0 at 0.
    """
    root = np.sqrt(q)
    return 2 * r * root / np.maximum(root + np.sqrt(q + 4 * r), np.finfo(float).tiny)


def _chord_shares(rho, on_circle, axis):
    """Shares (c+, c-), summing to 2, of the two ends of the chord through ``rho`` along ``axis``.

    With x the position of rho from the chord's midpoint and l its
    half-length, they are (l + x) / l and (l - x) / l; the smaller is taken
    as (1 - |rho|^2) / ((l + |x|) l), since l^2 = 1 - |rho|^2 + x^2.
    """
    x = (np.conj(axis) * rho).real
    mag = np.abs(rho)
    inside = np.where(on_circle, 0.0, (1 - mag) * (1 + mag))
    half = np.sqrt(inside + x * x)
    near, far = (half + np.abs(x)) / half, inside / (half + np.abs(x)) / half
    return np.where(x >= 0, near, far), np.where(x >= 0, far, near)


def steady_state_gains(rho_w, rho_n, n1_db, n2_db) -> ImproprietyGains:
    """Closed-form limit of :func:`noise_impropriety_gains`, with ``iterations`` 0.

    The steady predicted covariance M solves M - Q = M (M + R)^-1 R
    (Anderson & Moore, *Optimal Filtering*, 1979) for the augmented noise
    covariances Q = N1 [[1, rho_w], [conj(rho_w), 1]] and R likewise. Up to
    one unitary change of basis, a covariance N [[1, rho], [conj(rho), 1]]
    over its trace 2N is the point rho of the unit disk, and the rank-one
    ones lie on the unit circle (Schreier & Scharf, 2010). So Q and R are
    nonnegative combinations of the two rank-one covariances at the ends of
    the chord through rho_w and rho_n (:func:`_chord_shares`; equal rho take
    the diameter). Congruence to that pair splits the equation into two
    scalar channels, q_i = N1 c_i(rho_w) and r_i = N2 c_i(rho_n), and the
    widely linear MSE is half the sum of their posteriors; the strictly
    linear MSE is the channel q = N1, r = N2.

    Both are homogeneous of degree 1 in (N1, N2): they are computed with the
    larger power at 1, so the ratio depends only on N1 - N2 and the two rho,
    and ``wl_mse`` and ``sl_mse`` are then scaled by the larger power. A
    magnitude within ``ON_CIRCLE`` of 1 counts as 1. The settings broadcast
    against each other, and the call raises for the first failing member in
    order, with ``index`` naming it: NotPSDError for |rho| > 1 or a NaN rho;
    DegenerateError for powers whose linear ratio leaves the normal doubles,
    and for an unbounded ratio, where both noises are maximally improper in
    different orientations (one channel has q = 0 and the other r = 0).
    """
    rho_w, rho_n, n1_db, n2_db = np.broadcast_arrays(
        np.asarray(rho_w, dtype=complex), np.asarray(rho_n, dtype=complex),
        np.asarray(n1_db, dtype=float), np.asarray(n2_db, dtype=float),
    )
    mag_w, mag_n = np.abs(rho_w), np.abs(rho_n)
    # A NaN magnitude is neither inside the unit disk nor on its circle, so it is invalid.
    inside_w, inside_n = mag_w <= 1 + ON_CIRCLE, mag_n <= 1 + ON_CIRCLE
    on_w, on_n = inside_w & (mag_w >= 1 - ON_CIRCLE), inside_n & (mag_n >= 1 - ON_CIRCLE)
    rho_w = np.divide(rho_w, mag_w, out=rho_w.copy(), where=on_w)
    rho_n = np.divide(rho_n, mag_n, out=rho_n.copy(), where=on_n)
    gap = n1_db - n2_db
    weaker = 10.0 ** (-np.abs(gap) / 10.0)
    chord = rho_n - rho_w
    invalid = ~(inside_w & inside_n)
    too_far = ~(weaker >= np.finfo(float).tiny)
    unbounded = on_w & on_n & (chord != 0)
    index = _first(invalid | too_far | unbounded)
    if index is not None:
        if invalid[index]:
            raise NotPSDError("correlation coefficient magnitudes must be <= 1", index=index)
        if too_far[index]:
            raise DegenerateError(f"noise powers {gap[index]:g} dB apart leave the normal doubles", index=index)
        raise DegenerateError(
            "both noises are maximally improper, in different orientations: the MSE ratio is unbounded", index=index
        )
    axis = np.exp(1j * np.angle(np.where(chord != 0, chord, rho_w)))
    n1, n2 = np.where(gap >= 0, 1.0, weaker), np.where(gap >= 0, weaker, 1.0)
    (w_plus, w_minus), (n_plus, n_minus) = _chord_shares(rho_w, on_w, axis), _chord_shares(rho_n, on_n, axis)
    wl = 0.5 * (_posterior(n1 * w_plus, n2 * n_plus) + _posterior(n1 * w_minus, n2 * n_minus))
    sl = _posterior(n1, n2)
    with np.errstate(over="ignore"):
        scale = 10.0 ** (np.maximum(n1_db, n2_db) / 10.0)
    return ImproprietyGains(sl / wl, wl * scale, sl * scale, np.zeros(sl.shape, dtype=int))


def noise_impropriety_gain(
    rho_w: complex, rho_n: complex, n1_db: float, n2_db: float, horizon: int = 10_000, tol: float = 1e-12
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
    The posterior P - K P is taken as the equal K R where it cancels (see
    ``CANCEL``). The result stands where it converged within ``AGREE`` of
    :func:`steady_state_gains`, and is that closed form anywhere else. This
    is the one-member call of :func:`noise_impropriety_gains`.
    """
    res = noise_impropriety_gains(rho_w, rho_n, n1_db, n2_db, horizon=horizon, tol=tol)
    return ImproprietyGain(float(res.ratio), float(res.wl_mse), float(res.sl_mse), int(res.iterations))


def _noise_covariances(power: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Augmented covariances power * [[1, rho], [conj(rho), 1]], one per member."""
    return block_conjugate(np.ones((len(power), 1, 1)), rho[:, None, None]) * power[:, None, None]


def _cannot_converge(change, before, after, limit, n1, n2, steps_left: int, tol: float) -> np.ndarray:
    """Whether each member's strictly linear MSE change stays at or above ``tol`` for its ``steps_left`` more steps.

    That recursion is the map g(m) = 1 / (1 / (m + N1) + 1 / N2), increasing
    and concave, with g'(m) = (N2 / (m + N1 + N2))^2 < 1. Its iterates move
    monotonically to the fixed point ``limit``, so every later step changes
    the MSE by at least ``change`` times g' at max(``before``, ``after``,
    ``limit``) to the power of the steps between (the mean value theorem;
    Anderson & Moore, *Optimal Filtering*, 1979, ch. 4). The rounding of the
    float map, about 2 eps of the MSE a step, can take at most
    8 eps m / (1 - g') off that bound, which also covers a change that
    stalls below an ulp. A member whose bound, less that slack, exceeds
    ``EXIT_MARGIN`` times ``tol`` at the horizon can never pass ``tol`` before
    it, so it cannot stand and takes the closed form at once.
    """
    top = np.maximum(np.maximum(before, after), limit)
    # 1 - g' as (1 - s)(1 + s), with 1 - s = (m + N1) / (m + N1 + N2) for s = sqrt(g'),
    # stays accurate where g' is near 1.
    root_gap = (top + n1) / (top + n1 + n2)
    rate_gap = root_gap * (2.0 - root_gap)
    reach = change * np.exp(steps_left * np.log1p(-rate_gap))
    slack = 8 * np.finfo(float).eps * top / rate_gap
    return reach - slack > EXIT_MARGIN * tol


def noise_impropriety_gains(rho_w, rho_n, n1_db, n2_db, horizon: int = 10_000, tol: float = 1e-12) -> ImproprietyGains:
    """:func:`noise_impropriety_gain` over a batch of noise settings at once.

    The four settings broadcast against each other, and the closed form
    raises its errors first. A member whose two noises are both maximally
    improper (which the closed form admits only in one orientation) takes
    the closed form without iterating. The others run the same update on
    one ``(k, 2, 2)`` stack, each stops on its own iteration, and the stack
    shrinks only on iterations where some member stops, so each member gets
    the bits its one-member call gets. A member leaves for the closed form
    when it reaches the horizon, when its widely linear MSE is not a
    positive number (as where :func:`_inv2` finds no inverse of its 2x2,
    or a power overflows), when it cannot converge by the horizon
    (:func:`_cannot_converge`, tested at the first iteration and every
    ``EXIT_EVERY`` after), or when it converges farther than
    ``AGREE`` from the closed form; so the loop runs with numpy's
    floating-point warnings off.
    """
    closed = steady_state_gains(rho_w, rho_n, n1_db, n2_db)
    shape = closed.ratio.shape
    rho_w, rho_n, n1_db, n2_db = (
        np.broadcast_to(np.asarray(a, dtype=dtype), shape).ravel()
        for a, dtype in ((rho_w, complex), (rho_n, complex), (n1_db, float), (n2_db, float))
    )
    # Widely and strictly linear MSE of every member, and the iteration where it converged.
    result = np.ones((2, len(n1_db)))
    iterations = np.zeros(len(n1_db), dtype=int)
    # The working set: the members still iterating, their states and their MSE pairs.
    member = np.flatnonzero((np.abs(rho_w) < 1 - ON_CIRCLE) | (np.abs(rho_n) < 1 - ON_CIRCLE))
    n1, n2 = (np.array([db_to_linear(db) for db in dbs[member].tolist()]) for dbs in (n1_db, n2_db))
    p_bar = np.broadcast_to(np.eye(2, dtype=complex), (len(member), 2, 2)).copy()
    mse = np.ones((2, len(member)))
    # The strictly linear channel's fixed point, which bounds its remaining iterates.
    sl_limit = closed.sl_mse.ravel()[member]
    it = 0
    with np.errstate(all="ignore"):
        q, r = _noise_covariances(n1, rho_w[member]), _noise_covariances(n2, rho_n[member])
        inv_n2 = 1.0 / n2
        while it < horizon and len(member):
            it += 1
            predicted = p_bar + q
            gain = predicted @ _inv2(predicted + r)
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
            change = np.abs(new - mse)
            small = change < tol
            done = small[0] & small[1]
            leave = done | ~(wl > 0)
            if it % EXIT_EVERY == 1:
                leave |= _cannot_converge(change[1], mse[1], sl, sl_limit, n1, n2, horizon - it, tol)
            mse = new
            if np.count_nonzero(done):
                result[:, member[done]] = mse[:, done]
                iterations[member[done]] = it
            if np.count_nonzero(leave):
                keep = ~leave
                member, p_bar, q, r, n1, n2, inv_n2, sl_limit = (
                    a[keep] for a in (member, p_bar, q, r, n1, n2, inv_n2, sl_limit)
                )
                mse = mse[:, keep]
        wl_mse, sl_mse = result
        ratio = sl_mse / wl_mse
    # The recursion's value stands only where it converged within AGREE of the closed form.
    target = closed.ratio.ravel()
    stands = (iterations > 0) & (np.abs(ratio - target) <= AGREE * target)
    pairs = ((ratio, closed.ratio), (wl_mse, closed.wl_mse), (sl_mse, closed.sl_mse), (iterations, 0))
    return ImproprietyGains(*(np.where(stands, looped, np.ravel(exact)).reshape(shape) for looped, exact in pairs))
