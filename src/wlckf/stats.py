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
    AugmentedMatrix,
    _nonfinite,
    _require,
    block_conjugate,
    check_covariance_blocks,
    full_to_real_matrix,
    psd_sqrt,
)
# augmented_to_real_matrix is unused here; bench/spans.py still rebinds it in this module.
from .augmented import augmented_to_real_matrix  # noqa: F401
from .errors import ConsistencyError, DimensionError


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator derived from (seed, key).

    Streams for different keys are statistically independent and do not
    depend on the order in which they are created, so Monte Carlo runs
    can be dispatched in any order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass
class SecondOrderStats:
    """Mean, Hermitian covariance and complementary covariance of a complex vector.

    Leading axes of the mean and of the two covariances are batch axes: a
    stack of statistics of one size, as :func:`composite_factor` and
    :func:`sample_batch` take.
    """

    mean: np.ndarray
    hermitian_cov: np.ndarray
    complementary_cov: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=complex))
        self.hermitian_cov = np.atleast_2d(np.asarray(self.hermitian_cov, dtype=complex))
        if self.complementary_cov is None:
            self.complementary_cov = np.zeros_like(self.hermitian_cov)
        self.complementary_cov = np.atleast_2d(np.asarray(self.complementary_cov, dtype=complex))
        shape = self.mean.shape + self.mean.shape[-1:]
        if self.hermitian_cov.shape != shape or self.complementary_cov.shape != shape:
            raise DimensionError("covariance shapes do not match the mean dimension")

    @property
    def n(self) -> int:
        return self.mean.shape[-1]

    def augmented_cov(self) -> AugmentedMatrix:
        return AugmentedMatrix(self.hermitian_cov, self.complementary_cov)


def validate(stats: SecondOrderStats) -> SecondOrderStats:
    """Check the covariance invariants, naming the one that fails.

    Raises ConsistencyError for a non-Hermitian Hermitian covariance or a
    non-symmetric complementary covariance, NotPSDError when the assembled
    augmented covariance fails sampling's PSD test (see ``AugmentedMatrix.check_covariance``).
    """
    stats.augmented_cov().check_covariance()
    return stats


def composite_factor(stats: SecondOrderStats) -> tuple[np.ndarray, np.ndarray]:
    """Validated real composite mean mu_z and factor B with B B^T the composite covariance.

    ``mu_z + B xi`` with xi standard normal is a draw of [Re x; Im x]; the
    factor is the PSD square root, so singular covariances are handled. A
    NaN or infinite entry in the mean or a covariance raises ConsistencyError.
    Sampling and the complex sigma points both take this route. After the
    block checks, the one eigendecomposition in :func:`psd_sqrt` is both the
    factor and the PSD check, :func:`validate`'s; only its symmetry check on the composite, at
    ``PSD_TOL``, is stricter than :func:`validate`'s block checks at ``CONJ_TOL``.

    Batched statistics give stacks of means and factors, one ``eigh`` call
    for the stack, and each member's bits; an error names the first
    failing member in its ``index``.
    """
    _require(_nonfinite(stats.mean, -1), ConsistencyError, "mean has non-finite entries")
    check_covariance_blocks(stats.hermitian_cov, stats.complementary_cov)
    mu_z = np.concatenate([stats.mean.real, stats.mean.imag], axis=-1)
    cov_z = full_to_real_matrix(block_conjugate(stats.hermitian_cov, stats.complementary_cov), "covariance")
    return mu_z, psd_sqrt(cov_z)


def sample(stats: SecondOrderStats, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` complex Gaussian vectors with the given second-order stats.

    Sampling happens in the real composite domain: z = mu_z + B xi with
    B B^T the composite covariance and xi standard normal, then u + jv is
    assembled. Deterministic for a given generator state. It is
    :func:`sample_batch` on a batch of one: batched statistics raise DimensionError.

    Returns an array of shape (count, n).
    """
    one = SecondOrderStats(stats.mean[None], stats.hermitian_cov[None], stats.complementary_cov[None])
    return sample_batch(one, count, [rng])[0]


def sample_batch(stats: SecondOrderStats, count: int, rngs) -> np.ndarray:
    """:func:`sample` over statistics with one leading batch axis, member i from ``rngs[i]``.

    Returns an array of shape (batch, count, n) whose member i equals
    ``sample`` on member i's statistics and ``rngs[i]`` bit for bit: each
    generator draws what it draws there, and the stack is factored in one
    call.
    """
    if count < 1:
        raise DimensionError("count must be positive")
    if stats.mean.ndim != 2 or stats.mean.shape[0] != len(rngs):
        raise DimensionError("batched statistics need one leading axis with one generator per member")
    mu_z, b = composite_factor(stats)
    xi = np.empty((len(rngs), count, 2 * stats.n))
    for rng, out in zip(rngs, xi):
        rng.standard_normal(out=out)
    z = mu_z[..., None, :] + xi @ b.swapaxes(-1, -2)
    return z[..., : stats.n] + 1j * z[..., stats.n :]


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
