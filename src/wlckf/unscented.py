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
innovation and cross covariances as full augmented arrays, from one
product of the weighted deviations. The joint covariance is block
diagonal and its noise block is constant, so the points are built block
by block rather than through :func:`wlckf.stats.composite_factor`: the
noise block is checked and eigendecomposed once per run, and each step
eigendecomposes the 2n x 2n state composite alone. The PSD test and the
flush of :func:`wlckf.augmented.psd_sqrt` apply to the union of the two
spectra, which is the joint's, so the point set is the joint's up to
order. The gain and the posterior then come from the WLCKF's own widely
linear update, :func:`wlckf.linear.wl_update`. The posterior covariance
stays P - K P_xy^H: the Joseph form the linear filter uses needs a linear
measurement map, which this model does not have.
A proper-assuming unscented filter is the same step run on noise
statistics whose complementary covariances are set to zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .augmented import (
    AugmentedVector,
    _nonfinite,
    _psd_eigenvalues,
    _require,
    block_conjugate,
    check_covariance_blocks,
)
# psd_sqrt and solve_right are unused here; bench/spans.py still rebinds them in this module.
from .augmented import psd_sqrt, solve_right  # noqa: F401
from .errors import ConsistencyError, DimensionError
from .linear import FilterState, StepReport, _covariance, wl_update
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
    the full (possibly improper) second-order description.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray, np.ndarray], np.ndarray]
    drive_noise: SecondOrderStats
    meas_noise: SecondOrderStats
    init: SecondOrderStats

    @property
    def n(self) -> int:
        return self.init.n


def _composite(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Real composite covariance of x = u + jv from its blocks (M1, M2), symmetrized.

    R_uu = Re(M1 + M2) / 2, R_vv = Re(M1 - M2) / 2, R_uv = -Im(M1 - M2) / 2
    and R_vu = Im(M1 + M2) / 2, assembled as [[R_uu, R_uv], [R_vu, R_vv]].
    """
    k = m1.shape[0]
    total, diff = m1 + m2, m1 - m2
    c = np.empty((2 * k, 2 * k))
    c[:k, :k] = total.real
    c[:k, k:] = -diff.imag
    c[k:, :k] = total.imag
    c[k:, k:] = diff.real
    return (c + c.T) / 4


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
    block never changes: it is checked and decomposed once here, and
    ``points`` keeps its entries. Each :meth:`fill` decomposes the state
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
        w, v = np.linalg.eigh(_composite(_block_diag(drive.hermitian_cov, meas.hermitian_cov),
                                         _block_diag(drive.complementary_cov, meas.complementary_cov)))
        _psd_eigenvalues(w)
        k = drive.n + meas.n
        self.n = n = model.n
        # Eigenvalues of the noise composite, and its axes as complex directions over the noise entries, one a row.
        self.noise_w, self.noise_dirs = w, (v[:k] + 1j * v[k:]).T
        self.w_mean, self.w_cov = weights(2 * (n + k))
        self.points = np.empty((4 * (n + k) + 1, n + k), dtype=complex)
        self.points[:, n:] = np.concatenate([drive.mean, meas.mean])
        self._noise_flushed = None

    def fill(self, state: FilterState) -> np.ndarray:
        """The joint points at the state's estimate and covariance, under :func:`psd_sqrt`'s rules on the joint.

        The state covariance is not checked for symmetry here: a filter
        state comes from :func:`wlckf.linear._covariance`, which makes M1
        exactly Hermitian and M2 exactly symmetric, and :meth:`__init__`
        checks a given one. The check for non-finite entries, which a NaN
        measurement leaves in the estimate, and the PSD test stay on every
        call.
        """
        n, pts = self.n, self.points
        x = state.estimate.top
        c = _composite(state.cov.m1, state.cov.m2)
        if not (np.isfinite(x).all() and np.isfinite(c).all()):
            raise ConsistencyError("filter state has non-finite entries")
        w, v = np.linalg.eigh(c)
        # The joint's spectrum is the union of the blocks', so the PSD bound and the flush floor are the joint's.
        w = _psd_eigenvalues(np.concatenate([w, self.noise_w]))
        b = SPREAD * v * np.sqrt(w[: 2 * n])
        dev = (b[:n] + 1j * b[n:]).T
        pts[:, :n] = x
        pts[1 : 2 * n + 1, :n] += dev
        pts[2 * n + 1 : 4 * n + 1, :n] -= dev
        noise_w = w[2 * n :]
        if self._noise_flushed is None or not np.array_equal(noise_w, self._noise_flushed):
            self._noise_flushed = noise_w
            noise_dev = SPREAD * np.sqrt(noise_w)[:, None] * self.noise_dirs
            k = noise_w.shape[0]
            pts[4 * n + 1 :, n:] = pts[0, n:]
            pts[4 * n + 1 : 4 * n + 1 + k, n:] += noise_dev
            pts[4 * n + 1 + k :, n:] -= noise_dev
        return pts


def uwlckf_step(state: FilterState, y, model: NonlinearModel) -> StepReport:
    """One cycle of the unscented widely linear filter.

    Joint sigma points of [state; driving noise; measurement noise] are
    generated with the full augmented statistics, block by block
    (:class:`_JointPoints`), after the state and both noises are checked:
    finite, Hermitian M1 and symmetric M2, and PSD. The state parts pass
    through the transition and then the measurement map, and predicted,
    innovation and cross second moments are assembled as full augmented
    arrays, symmetrized like the linear filter's. From there the update is
    :func:`wlckf.linear.wl_update`: the gain solves against the augmented
    innovation covariance (least squares when singular, flagged) and the
    posterior is P - K P_xy^H, symmetrized.
    """
    return _step(_JointPoints(model, state), state, y, model)


def _step(joint: _JointPoints, state: FilterState, y, model: NonlinearModel) -> StepReport:
    """:func:`uwlckf_step` on points whose noise rows ``joint`` holds; it fills the state entries.

    Every moment comes from one product: the weighted deviations d of
    [f-outputs, h-outputs] from their mean against [dx*, dx, dy*, dy].
    Its blocks are the top block rows of the predicted and the innovation
    covariance and of the cross covariance.
    """
    n = model.n
    nw = model.drive_noise.n
    pts = joint.fill(state)
    xs_next = np.asarray(model.f(pts[:, :n], pts[:, n : n + nw]), dtype=complex)
    ys = np.asarray(model.h(xs_next, pts[:, n + nw :]), dtype=complex)
    m = ys.shape[1]
    z = np.concatenate([xs_next, ys], axis=1)
    mean = joint.w_mean @ z
    d = z - mean
    dx, dy = d[:, :n], d[:, n:]
    g = (joint.w_cov[:, None] * d).T @ np.concatenate([np.conj(dx), dx, np.conj(dy), dy], axis=1)
    cross = block_conjugate(g[:n, 2 * n : 2 * n + m], g[:n, 2 * n + m :])
    x = np.concatenate([mean[:n], np.conj(mean[:n])])
    return wl_update(x, _covariance(g[:n, : 2 * n]), y, mean[n:], cross, _covariance(g[n:, 2 * n :])).report(
        state.t + 1
    )


def uwlckf_run(model: NonlinearModel, measurements) -> list[StepReport]:
    """Run the unscented widely linear filter from ``model.init`` over a measurement sequence.

    The initial state and the noises are checked, and the noises
    decomposed, once per run (:class:`_JointPoints`); each step then
    decomposes the 2n x 2n state composite alone.
    """
    state = FilterState(AugmentedVector(model.init.mean), model.init.augmented_cov(), t=0)
    joint = _JointPoints(model, state)
    reports: list[StepReport] = []
    for y in measurements:
        report = _step(joint, state, np.atleast_1d(np.asarray(y, complex)), model)
        reports.append(report)
        state = report.state
    return reports
