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
innovation and cross covariances as full augmented arrays. The gain and
the posterior then come from the WLCKF's own widely linear update,
:func:`wlckf.linear.wl_update`. The posterior covariance stays P - K P_xy^H:
the Joseph form the linear filter uses needs a linear measurement map,
which this model does not have.
A proper-assuming unscented filter is the same step run on noise
statistics whose complementary covariances are set to zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .augmented import AugmentedVector, block_conjugate
# psd_sqrt and solve_right are unused here; bench/spans.py still rebinds them in this module.
from .augmented import psd_sqrt, solve_right  # noqa: F401
from .errors import DimensionError
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


def _sigma_points(mu: np.ndarray, b: np.ndarray) -> SigmaPointSet:
    """The 2L+1 points mu and mu +- SPREAD b_i over the columns b_i of a factor."""
    dim = mu.shape[0]
    points = np.empty((2 * dim + 1, dim))
    points[0] = mu
    points[1 : dim + 1] = mu + SPREAD * b.T
    points[dim + 1 :] = mu - SPREAD * b.T
    return SigmaPointSet(points, *weights(dim))


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
    composite = _sigma_points(*composite_factor(stats))
    n = stats.n
    complex_points = composite.points[:, :n] + 1j * composite.points[:, n:]
    return SigmaPointSet(complex_points, composite.w_mean, composite.w_cov)


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


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        k = m.shape[0]
        out[pos : pos + k, pos : pos + k] = m
        pos += k
    return out


def uwlckf_step(state: FilterState, y, model: NonlinearModel) -> StepReport:
    """One cycle of the unscented widely linear filter.

    Joint sigma points of [state; driving noise; measurement noise] are
    generated with the full augmented statistics, the state parts pass
    through the transition and then the measurement map, and predicted,
    innovation and cross second moments are assembled as full augmented
    arrays, symmetrized like the linear filter's. From there the update is
    :func:`wlckf.linear.wl_update`: the gain solves against the augmented
    innovation covariance (least squares when singular, flagged) and the
    posterior is P - K P_xy^H, symmetrized.
    """
    n = model.n
    nw = model.drive_noise.n
    joint_mean = np.concatenate([state.estimate.top, model.drive_noise.mean, model.meas_noise.mean])
    joint_r = _block_diag(state.cov.m1, model.drive_noise.hermitian_cov, model.meas_noise.hermitian_cov)
    joint_rt = _block_diag(state.cov.m2, model.drive_noise.complementary_cov, model.meas_noise.complementary_cov)
    joint = SecondOrderStats(joint_mean, joint_r, joint_rt)
    sps = complex_sigma_points(joint)
    xs = sps.points[:, :n]
    ws = sps.points[:, n : n + nw]
    ns = sps.points[:, n + nw :]

    xs_next = np.asarray(model.f(xs, ws), dtype=complex)
    ys = np.asarray(model.h(xs_next, ns), dtype=complex)

    wm = sps.w_mean
    wc = sps.w_cov
    x_pred = wm @ xs_next
    y_pred = wm @ ys
    dx = xs_next - x_pred
    dy = ys - y_pred
    wdx, wdy = wc[:, None] * dx, wc[:, None] * dy
    # Top block rows [M, M~] of the predicted and innovation covariances, and the full cross covariance.
    p_top = np.concatenate([wdx.T @ np.conj(dx), wdx.T @ dx], axis=1)
    s_top = np.concatenate([wdy.T @ np.conj(dy), wdy.T @ dy], axis=1)
    cross = block_conjugate(wdx.T @ np.conj(dy), wdx.T @ dy)

    x = np.concatenate([x_pred, np.conj(x_pred)])
    return wl_update(x, _covariance(p_top), y, y_pred, cross, _covariance(s_top)).report(state.t + 1)


def uwlckf_run(model: NonlinearModel, measurements) -> list[StepReport]:
    """Run the unscented widely linear filter from ``model.init`` over a measurement sequence."""
    state = FilterState(AugmentedVector(model.init.mean), model.init.augmented_cov(), t=0)
    reports: list[StepReport] = []
    for y in measurements:
        report = uwlckf_step(state, np.atleast_1d(np.asarray(y, complex)), model)
        reports.append(report)
        state = report.state
    return reports
