"""Unscented filtering for improper complex states and noises.

The key construction: sigma points for a complex random vector are built
from the real composite factor of the full augmented covariance, the one
improper Gaussian sampling uses (:func:`wlckf.stats.composite_factor`), and
mapped back to complex points. The weighted point set carries the mean,
the Hermitian covariance and the complementary covariance, so propagating
it through a nonlinearity keeps the complete second-order description.
Sigma points built from the Hermitian covariance alone (the conventional
complex construction) drop the complementary part; that variant is kept as
a negative control. Every point set follows one rule, the Gaussian
lambda = 3 - L of Julier and Uhlmann: the points sit ``SPREAD`` = sqrt(3)
standard deviations from the mean, with the weights of :func:`weights`.

The filter step stacks state, driving noise and measurement noise into one
joint complex vector, generates its sigma points, pushes the state parts
through the transition and measurement maps, and forms all predicted,
innovation and cross covariances from one product of the weighted
deviations, completed and symmetrized by one gather that derives from
:func:`wlckf.augmented.block_conjugate`. The joint covariance is block
diagonal and its noise block is constant, so the points are built block
by block rather than through :func:`wlckf.stats.composite_factor`: the
noise block is checked and eigendecomposed once per run, and each step
eigendecomposes the 2n x 2n state composite alone. The PSD test and the
flush of :func:`wlckf.augmented.psd_sqrt` apply to the union of the two
spectra, which is the joint's, so the point set is the joint's up to
order; they read the state's extreme eigenvalues and the noise
spectrum's, which are constants of the run. The gain and the posterior
then come from the WLCKF's own widely linear update, its two halves
:func:`wlckf.linear.wl_gain` and :func:`wlckf.linear.wl_estimate`, in
the linear filter's form: the
estimate as its top half and the covariance as its full symmetrized
array. The posterior covariance stays P - K P_xy^H: the Joseph form the
linear filter uses needs a linear measurement map, which this model does
not have.
A proper-assuming unscented filter is the same step run on noise
statistics whose complementary covariances are set to zero.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .augmented import (
    FLUSH,
    PSD_TOL,
    AugmentedVector,
    _nonfinite,
    _psd_eigenvalues,
    _require,
    block_conjugate,
    check_covariance_blocks,
)
# psd_sqrt and solve_right are unused here; bench/spans.py still rebinds them in this module.
from .augmented import psd_sqrt, solve_right  # noqa: F401
from .errors import ConsistencyError, DimensionError, NotPSDError
from .linear import FilterState, StepReport, WLUpdate, _covariance, _h, _measurement_rows, wl_estimate, wl_gain
from .stats import SecondOrderStats, composite_factor, validate


# sqrt(L + lambda) with lambda = 3 - L: the distance of the sigma points from
# the mean along each factor column, whatever the dimension L.
SPREAD = np.sqrt(3.0)


def weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance weights of the 2L+1 sigma points of dimension L = ``dim``.

    The Gaussian rule lambda = 3 - L (alpha = 1, beta = 2, kappa = 3 - L),
    which matches fourth moments: every point but the centre weighs 1/6,
    and the centre weighs lambda/3 in the mean and lambda/3 + 2 in the
    covariance.
    """
    lam = 3.0 - dim
    w_mean = np.full(2 * dim + 1, 1.0 / 6.0)
    w_cov = w_mean.copy()
    w_mean[0] = lam / 3.0
    w_cov[0] = lam / 3.0 + 2.0
    return w_mean, w_cov


@dataclass
class SigmaPointSet:
    """Ordered points (count, dim) with mean and covariance weight sequences."""

    points: np.ndarray
    w_mean: np.ndarray
    w_cov: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points))
        self.w_mean = np.asarray(self.w_mean, dtype=float)
        self.w_cov = np.asarray(self.w_cov, dtype=float)
        if self.points.shape[0] != self.w_mean.shape[0] or self.points.shape[0] != self.w_cov.shape[0]:
            raise DimensionError("weights must match the number of points")

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _sigma_points(mu: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2L+1 points mu and mu +- SPREAD b_i over the columns b_i of a factor."""
    dim = mu.shape[0]
    points = np.empty((2 * dim + 1, dim))
    points[0] = mu
    points[1 : dim + 1] = mu + SPREAD * b.T
    points[dim + 1 :] = mu - SPREAD * b.T
    return points


def complex_sigma_points(stats: SecondOrderStats, preserve_complementary: bool = True) -> SigmaPointSet:
    """Sigma points of a complex random vector as complex points.

    With ``preserve_complementary`` the points come from the factor of
    :func:`wlckf.stats.composite_factor`, so their weighted moments match
    mean, Hermitian covariance and complementary covariance. Without it the
    statistics are validated, then their complementary covariance is treated
    as zero, reproducing the conventional proper-assuming points that carry
    the mean and Hermitian covariance only.
    """
    if not preserve_complementary:
        validate(stats)
        stats = SecondOrderStats(stats.mean, stats.hermitian_cov)
    points = _sigma_points(*composite_factor(stats))
    n = stats.n
    return SigmaPointSet(points[:, :n] + 1j * points[:, n:], *weights(2 * n))


def reconstruct_stats(sps: SigmaPointSet) -> SecondOrderStats:
    """Weighted mean and second moments of a complex sigma-point set."""
    if sps.count == 0:
        raise DimensionError("empty sigma point set")
    pts = np.asarray(sps.points, dtype=complex)
    mean = sps.w_mean @ pts
    d = pts - mean
    r = (sps.w_cov[:, None] * d).T @ np.conj(d)
    rt = (sps.w_cov[:, None] * d).T @ d
    return SecondOrderStats(mean, r, rt)


@dataclass
class NonlinearModel:
    """Complex nonlinear state-space model with arbitrary noise entry.

    ``f(state, drive_noise)`` advances the state; ``h(state, meas_noise)``
    produces the measurement. Both must accept arrays of points with the
    leading axis enumerating points. Noise and initial statistics carry
    the full (possibly improper) second-order description. Statistics with
    a NaN or infinite entry raise ConsistencyError naming their field, when
    the model is built and again at the start of each run, since a field
    may be reassigned.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    drive_noise: SecondOrderStats
    meas_noise: SecondOrderStats
    init: SecondOrderStats

    def __post_init__(self):
        for name in ("init", "drive_noise", "meas_noise"):
            stats = getattr(self, name)
            bad = _nonfinite(stats.mean, -1) | _nonfinite(stats.hermitian_cov) | _nonfinite(stats.complementary_cov)
            _require(bad, ConsistencyError, f"{name} has non-finite entries")

    @property
    def n(self) -> int:
        return self.init.n


def _pair_means(v: np.ndarray, terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(t[first] + t[second]) / 2 over t = [v, -v], for ``terms`` = (first, second) positions in t."""
    t = np.concatenate([v, -v])
    first, second = terms
    out = t[first]
    out += t[second]
    out /= 2
    return out


def _composite(top: np.ndarray) -> np.ndarray:
    """Real composite covariance of x = u + jv from its top block row [M1, M2], symmetrized.

    R_uu = Re(M1 + M2) / 2, R_vv = Re(M1 - M2) / 2, R_uv = -Im(M1 - M2) / 2
    and R_vu = Im(M1 + M2) / 2, assembled as [[R_uu, R_uv], [R_vu, R_vv]].
    """
    k = top.shape[0]
    m1, m2 = top[:, :k], top[:, k:]
    total, diff = m1 + m2, m1 - m2
    c = np.empty((2 * k, 2 * k))
    c[:k, :k] = total.real
    c[:k, k:] = -diff.imag
    c[k:, :k] = total.imag
    c[k:, k:] = diff.real
    return (c + c.T) / 4


@cache
def _moment_terms(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pair_means` positions of the step's second moments from the float view of the moment product g.

    g holds [P1, P2, X1, X2] in its first n rows and [., ., S1, S2] in the
    other m, unsymmetrized. The result is, flat and one after another, the
    full predicted and innovation covariances, each (F + F^H) / 2 for the
    completion F of its blocks as :func:`wlckf.linear._covariance` forms
    it, and the full cross covariance F as it stands (the mean of F with
    itself). Each entry of g is labelled re + j im, the float-view positions
    of its parts (the complex view of 0, 1, 2, ...), and :func:`block_conjugate`
    and :func:`wlckf.linear._h` move and conjugate the labels as they move
    numbers; a negative imaginary label points into -v.
    """
    g = np.arange(4 * (n + m) ** 2, dtype=float).view(complex).reshape(n + m, 2 * (n + m))
    p = block_conjugate(g[:n, :n], g[:n, n : 2 * n])
    s = block_conjugate(g[n:, 2 * n : 2 * n + m], g[n:, 2 * n + m :])
    cross = block_conjugate(g[:n, 2 * n : 2 * n + m], g[:n, 2 * n + m :])

    def positions(*blocks):
        labels = np.concatenate([block.ravel() for block in blocks]).view(float).astype(int)
        return np.where(labels < 0, 2 * g.size - labels, labels)  # -v starts at len(v) = 2 g.size

    return positions(p, s, cross), positions(_h(p), _h(s), cross)


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


class _JointPoints:
    """Sigma points of the joint [state; driving noise; measurement noise], block by block.

    The joint covariance is block diagonal, so its composite eigenpairs are
    those of the state block and of the noise block, embedded. The noise
    block never changes: it is checked and decomposed once here, its
    eigenvalues are kept as floats for the PSD test and the flush, and
    ``points`` keeps its entries, refilled only when the flush floor
    crosses one of its eigenvalues. Each :meth:`fill` decomposes the state
    block alone. The rows are the centre, then the centre plus and minus
    each state axis, then plus and minus each noise axis; every point but
    the centre has the same weight, so the set is the joint's up to order.
    """

    def __init__(self, model: NonlinearModel, state: FilterState):
        drive, meas = model.drive_noise, model.meas_noise
        for mean, m1, m2 in ((state.estimate.top, state.cov.m1, state.cov.m2),
                             (drive.mean, drive.hermitian_cov, drive.complementary_cov),
                             (meas.mean, meas.hermitian_cov, meas.complementary_cov)):
            _require(_nonfinite(mean, -1), ConsistencyError, "mean has non-finite entries")
            check_covariance_blocks(m1, m2)
        k = drive.n + meas.n
        noise = _full_covariance(_block_diag(drive.hermitian_cov, meas.hermitian_cov),
                                 _block_diag(drive.complementary_cov, meas.complementary_cov))
        w, v = np.linalg.eigh(_composite(noise[:k]))
        _psd_eigenvalues(w)
        self.model = model
        self.n = n = model.n
        # Eigenvalues of the noise composite, ascending, and its axes as complex directions over the noise entries, one a row.
        self.noise_w, self.noise_dirs = w, (v[:k] + 1j * v[k:]).T
        self._noise_values = w.tolist()
        # max(1, largest |eigenvalue|), the noise's share of the PSD test's scale.
        self._noise_scale = max(1.0, -self._noise_values[0], self._noise_values[-1])
        self.w_mean, self.w_cov = weights(2 * (n + k))
        self.w_cov_column = self.w_cov[:, None]
        self.points = pts = np.empty((4 * (n + k) + 1, n + k), dtype=complex)
        pts[:, n:] = np.concatenate([drive.mean, meas.mean])
        self.state_points, self.drive_points, self.meas_points = pts[:, :n], pts[:, n : n + drive.n], pts[:, n + drive.n :]
        # The state entries of the points as (point, entry, real or imaginary part).
        parts = pts.view(float).reshape(len(pts), n + k, 2)[:, :n]
        self._plus, self._minus = parts[1 : 2 * n + 1], parts[2 * n + 1 : 4 * n + 1]
        # How many noise eigenvalues the last fill flushed; None before the first.
        self._flushed = None

    def fill(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """The joint points at estimate top half ``x`` and full covariance ``p``, under :func:`psd_sqrt`'s rules on the joint.

        Reads the top block row ``p[:n]`` alone. The check for non-finite
        entries, which an overflow leaves in the state, and the PSD test
        stay on every call.
        """
        n, pts = self.n, self.points
        c = _composite(p[:n])
        if not (np.isfinite(x).all() and np.isfinite(c).all()):
            raise ConsistencyError("filter state has non-finite entries")
        w, v = np.linalg.eigh(c)
        # The joint's spectrum is the union of the blocks', so the PSD bound and the flush floor are the joint's;
        # eigh returns the eigenvalues in ascending order, so those at or below the floor lead.
        values = w.tolist()
        low, high = values[0], values[-1]
        bound = PSD_TOL * max(self._noise_scale, -low, high)
        lowest = min(low, self._noise_values[0])
        if lowest < -bound:
            raise NotPSDError(f"matrix has eigenvalue {lowest:.3e} below -{bound:.3e}", index=())
        floor = FLUSH * max(high, self._noise_values[-1], 0.0)
        w[: bisect_right(values, floor)] = 0.0
        b = SPREAD * v * np.sqrt(w)
        # Axis i's deviation has real parts b[:n, i] and imaginary parts b[n:, i].
        dev = b.reshape(2, n, 2 * n).T
        self.state_points[...] = x
        self._plus += dev
        self._minus -= dev
        flushed = bisect_right(self._noise_values, floor)
        if flushed != self._flushed:
            self._flushed = flushed
            noise_w = np.where(self.noise_w > floor, self.noise_w, 0.0)
            noise_dev = SPREAD * np.sqrt(noise_w)[:, None] * self.noise_dirs
            k = noise_w.shape[0]
            pts[4 * n + 1 :, n:] = pts[0, n:]
            pts[4 * n + 1 : 4 * n + 1 + k, n:] += noise_dev
            pts[4 * n + 1 + k :, n:] -= noise_dev
        return pts


def _full_covariance(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The full covariance of blocks (M1, M2), symmetrized by :func:`wlckf.linear._covariance`."""
    return _covariance(np.concatenate([m1, m2], axis=1))


def uwlckf_step(state: FilterState, y, model: NonlinearModel) -> StepReport:
    """One cycle of the unscented widely linear filter.

    Joint sigma points of [state; driving noise; measurement noise] are
    generated with the full augmented statistics, block by block
    (:class:`_JointPoints`), after the state and both noises are checked:
    finite, Hermitian M1 and symmetric M2, and PSD. The state parts pass
    through the transition and then the measurement map, and predicted,
    innovation and cross second moments are assembled as augmented
    arrays, symmetrized like the linear filter's. From there the update is
    :func:`wlckf.linear.wl_gain`, then :func:`wlckf.linear.wl_estimate`:
    the gain solves against the augmented innovation covariance (least
    squares when singular, flagged) and the posterior is P - K P_xy^H,
    symmetrized. The measurement is converted
    as the runs convert each of theirs, so a scalar is the measurement of
    a model with m = 1.
    """
    joint = _JointPoints(model, state)
    y = _measurement_rows([y])[0]
    return _step(joint, state.estimate.top, _full_covariance(state.cov.m1, state.cov.m2), y).report(state.t + 1)


def _step(joint: _JointPoints, x: np.ndarray, p: np.ndarray, y) -> WLUpdate:
    """:func:`uwlckf_step`'s update from estimate top half ``x`` and full covariance ``p``, on ``joint``'s points.

    Every moment comes from one product: the weighted deviations d of
    [f-outputs, h-outputs] from their mean against [dx*, dx, dy*, dy].
    Its blocks are the top block rows of the predicted and the innovation
    covariance and of the cross covariance, which one gather completes and
    symmetrizes as :func:`wlckf.linear._covariance` does (:func:`_moment_terms`).
    """
    n = joint.n
    model = joint.model
    joint.fill(x, p)
    xs_next = np.asarray(model.f(joint.state_points, joint.drive_points), dtype=complex)
    ys = np.asarray(model.h(xs_next, joint.meas_points), dtype=complex)
    m = ys.shape[1]
    z = np.concatenate([xs_next, ys], axis=1)
    mean = joint.w_mean @ z
    d = z - mean
    dx, dy = d[:, :n], d[:, n:]
    g = (joint.w_cov_column * d).T @ np.concatenate([np.conj(dx), dx, np.conj(dy), dy], axis=1)
    moments = _pair_means(g.view(float).ravel(), _moment_terms(n, m)).view(complex)
    p_end, s_end = 4 * n * n, 4 * (n * n + m * m)
    p = moments[:p_end].reshape(2 * n, 2 * n)
    s = moments[p_end:s_end].reshape(2 * m, 2 * m)
    cross = moments[s_end:].reshape(2 * n, 2 * m)
    k_top, p_post, singular = wl_gain(p, cross, s)
    innovation, x_post = wl_estimate(mean[:n], y, mean[n:], k_top)
    return WLUpdate(mean[:n], p, innovation, s, k_top, x_post, p_post, singular)


def uwlckf_run(model: NonlinearModel, measurements) -> list[StepReport]:
    """Run the unscented widely linear filter from ``model.init`` over a measurement sequence.

    The initial state and the noises are checked, and the noises
    decomposed, once per run (:class:`_JointPoints`); each step then
    decomposes the 2n x 2n state composite alone. The measurements are
    converted once: a sequence of scalars is one measurement a step, and
    a ragged sequence raises DimensionError.
    """
    init = model.init
    state = FilterState(AugmentedVector(init.mean), init.augmented_cov(), t=0)
    joint = _JointPoints(model, state)
    ys = _measurement_rows(measurements)
    x, p = state.estimate.top, _full_covariance(state.cov.m1, state.cov.m2)
    reports: list[StepReport] = []
    for t, y in enumerate(ys, start=1):
        update = _step(joint, x, p, y)
        reports.append(update.report(t))
        x, p = update.x_post, update.p_post
    return reports
