"""Second-order statistics of complex random vectors, and improper Gaussian sampling.

A complex random vector is characterized by its mean, Hermitian covariance
E(x-mu)(x-mu)^H and complementary covariance E(x-mu)(x-mu)^T. It is proper
when the complementary covariance vanishes. Sampling goes through the real
composite representation, which handles singular (maximally improper)
augmented covariances uniformly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmented import (
    CONJ_TOL,
    AugmentedMatrix,
    AugmentedVector,
    augmented_to_real,
    augmented_to_real_matrix,
    psd_sqrt,
)
from .errors import DegenerateError, DimensionError


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator derived from (seed, key).

    Streams for different keys are statistically independent and do not
    depend on the order in which they are created, so Monte Carlo runs
    can be dispatched in any order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class SecondOrderStats:
    """Mean, Hermitian covariance and complementary covariance of a complex vector."""

    mean: np.ndarray
    hermitian_cov: np.ndarray
    complementary_cov: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=complex))
        self.hermitian_cov = np.atleast_2d(np.asarray(self.hermitian_cov, dtype=complex))
        if self.complementary_cov is None:
            self.complementary_cov = np.zeros_like(self.hermitian_cov)
        self.complementary_cov = np.atleast_2d(np.asarray(self.complementary_cov, dtype=complex))
        n = self.mean.shape[0]
        if self.hermitian_cov.shape != (n, n) or self.complementary_cov.shape != (n, n):
            raise DimensionError("covariance shapes do not match the mean dimension")

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    def augmented_mean(self) -> AugmentedVector:
        return AugmentedVector(self.mean)

    def augmented_cov(self) -> AugmentedMatrix:
        return AugmentedMatrix(self.hermitian_cov, self.complementary_cov)

    def composite(self) -> tuple[np.ndarray, np.ndarray]:
        """Real composite mean and covariance of [Re x; Im x]."""
        mu = augmented_to_real(self.augmented_mean())
        cov = augmented_to_real_matrix(self.augmented_cov(), "covariance")
        return mu, cov

    @classmethod
    def from_composite(cls, mu_z, cov_z) -> "SecondOrderStats":
        from .augmented import real_matrix_to_augmented, real_to_augmented

        vec = real_to_augmented(mu_z)
        aug = real_matrix_to_augmented(cov_z, "covariance")
        return cls(vec.top, aug.m1, aug.m2)


def validate(stats: SecondOrderStats) -> SecondOrderStats:
    """Check the covariance invariants, naming the one that fails.

    Raises ConsistencyError for a non-Hermitian Hermitian covariance or a
    non-symmetric complementary covariance, NotPSDError when the assembled
    augmented covariance is indefinite (see ``AugmentedMatrix.check_covariance``).
    """
    stats.augmented_cov().check_covariance()
    return stats


def is_proper(stats: SecondOrderStats) -> bool:
    """True when the complementary covariance vanishes within ``CONJ_TOL`` (relative max norm)."""
    r_scale = max(1.0, float(np.max(np.abs(stats.hermitian_cov), initial=0.0)))
    return float(np.max(np.abs(stats.complementary_cov), initial=0.0)) <= CONJ_TOL * r_scale


def correlation_coefficient(stats: SecondOrderStats) -> complex:
    """Complex correlation between a scalar variable and its conjugate.

    Defined for scalar stats as complementary variance over Hermitian
    variance; magnitude 1 means the variable is maximally improper (a
    unimodular multiple of its own conjugate, e.g. real-valued).
    """
    if stats.n != 1:
        raise DimensionError("correlation coefficient is defined for scalar stats")
    r = stats.hermitian_cov[0, 0].real
    if r <= 0:
        raise DegenerateError("zero Hermitian variance")
    return complex(stats.complementary_cov[0, 0] / r)


def composite_factor(stats: SecondOrderStats) -> tuple[np.ndarray, np.ndarray]:
    """Validated real composite mean mu_z and factor B with B B^T the composite covariance.

    ``mu_z + B xi`` with xi standard normal is a draw of [Re x; Im x]; the
    factor is the PSD square root, so singular covariances are handled.
    Sampling and the complex sigma points both take this route. After the
    block checks, the one eigendecomposition in :func:`psd_sqrt` is both the
    factor and the PSD check, which is stricter than :func:`validate`'s.
    """
    stats.augmented_cov().check_blocks()
    mu_z, cov_z = stats.composite()
    return mu_z, psd_sqrt(cov_z)


def sample(stats: SecondOrderStats, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` complex Gaussian vectors with the given second-order stats.

    Sampling happens in the real composite domain: z = mu_z + B xi with
    B B^T the composite covariance and xi standard normal, then u + jv is
    assembled. Deterministic for a given generator state.

    Returns an array of shape (count, n).
    """
    if count < 1:
        raise DimensionError("count must be positive")
    mu_z, b = composite_factor(stats)
    xi = rng.standard_normal((count, 2 * stats.n))
    z = mu_z + xi @ b.T
    return z[:, : stats.n] + 1j * z[:, stats.n :]


def empirical_stats(samples) -> SecondOrderStats:
    """Sample mean and (count - 1)-normalized Hermitian/complementary covariances."""
    try:
        x = np.asarray(samples, dtype=complex)
    except ValueError as exc:
        raise DimensionError("samples must all have the same dimension") from exc
    if x.ndim != 2 or x.shape[0] == 0:
        raise DimensionError("samples must be a (count, n) array or a list of equal-length vectors")
    count = x.shape[0]
    if count < 2:
        raise DimensionError("need at least two samples")
    mean = x.mean(axis=0)
    d = x - mean
    r = d.T @ d.conj() / (count - 1)
    rt = d.T @ d / (count - 1)
    return SecondOrderStats(mean, r, rt)
