"""Complex-augmented linear algebra kernel.

Conversions between dual real channels and the complex augmented domain,
block-structured augmented matrices, and the numeric helpers the filters
rely on (PSD matrix square root, the singular-safe right solve).

A complex vector x = u + jv has the augmented form [x; x*], related to the
real composite [u; v] by the transform returned by :func:`build_transform`.
It is stored as x alone, and augmented matrices, which carry the
block-conjugate pattern [[M1, M2], [M2*, M1*]], as the (M1, M2) pair, so
both patterns hold by construction; :func:`_expand` is the one expansion
of a vector and :func:`block_conjugate` the one completion of a pair.
Composite-space results are C-contiguous real arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConsistencyError, DimensionError, NotPSDError

# Relative tolerance for conjugate-symmetry and realness consistency checks.
CONJ_TOL = 1e-9
# Relative tolerance of psd_sqrt's symmetry and negative-eigenvalue checks.
PSD_TOL = 1e-10
# Smallest-to-largest singular value ratio at or below which a matrix is singular.
RCOND = 1e-12
# Eigenvalues at or below this fraction of a PSD matrix's largest are flushed to zero.
FLUSH = 1e-13


def block_conjugate(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """The full array [[M1, M2], [M2*, M1*]] of the block pair (M1, M2).

    Leading axes of ``m1`` and ``m2`` are batch axes: each slice is completed.
    """
    rows, cols = m1.shape[-2:]
    full = np.empty((*m1.shape[:-2], 2 * rows, 2 * cols), dtype=complex)
    full[..., :rows, :cols] = m1
    full[..., :rows, cols:] = m2
    np.conjugate(m2, out=full[..., rows:, :cols])
    np.conjugate(m1, out=full[..., rows:, cols:])
    return full


def _expand(x: np.ndarray) -> np.ndarray:
    """The augmented vectors [x; x*] of top halves x along the last axis."""
    return np.concatenate([x, np.conj(x)], axis=-1)


@cache
def build_transform(n: int) -> np.ndarray:
    """Return the 2n x 2n real-to-augmented map [[I, jI], [I, -jI]].

    Unitary within a factor of 2: T @ T.conj().T == 2 I. Built once per
    ``n`` and shared, so the array is read-only.
    """
    if n < 1:
        raise DimensionError(f"transform size must be >= 1, got {n}")
    eye = np.eye(n)
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    t[:n, :n] = t[n:, :n] = eye
    t[:n, n:] = 1j * eye
    t[n:, n:] = -1j * eye
    t.flags.writeable = False
    return t


@dataclass
class AugmentedVector:
    """Stack [x; x*] stored as x, so the bottom half is conj(x) by construction."""

    top: np.ndarray

    def __post_init__(self):
        self.top = np.asarray(self.top, dtype=complex)
        if self.top.ndim != 1:
            raise DimensionError("augmented vector must be built from a 1-d complex vector")

    @property
    def bottom(self) -> np.ndarray:
        return np.conj(self.top)

    @property
    def n(self) -> int:
        return self.top.shape[0]

    def full(self) -> np.ndarray:
        """The stack [x; x*], by :func:`_expand`."""
        return _expand(self.top)


@dataclass
class AugmentedMatrix:
    """Block-conjugate matrix [[M1, M2], [M2*, M1*]] stored as (M1, M2).

    The pattern is an invariant of the representation, not something to
    re-verify: all algebra below stays inside the pattern. Blocks may be
    rectangular (M1, M2 of shape rows x cols), as for gains.
    """

    m1: np.ndarray
    m2: np.ndarray

    def __post_init__(self):
        self.m1 = np.asarray(self.m1, dtype=complex)
        self.m2 = np.asarray(self.m2, dtype=complex)
        if self.m1.shape != self.m2.shape or self.m1.ndim != 2:
            raise DimensionError("augmented blocks must be 2-d and equal shape")

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.m1.shape

    def full(self) -> np.ndarray:
        return block_conjugate(self.m1, self.m2)

    def __matmul__(self, other):
        if isinstance(other, AugmentedMatrix):
            return AugmentedMatrix(
                self.m1 @ other.m1 + self.m2 @ np.conj(other.m2),
                self.m1 @ other.m2 + self.m2 @ np.conj(other.m1),
            )
        if isinstance(other, AugmentedVector):
            return AugmentedVector(self.m1 @ other.top + self.m2 @ other.bottom)
        return NotImplemented

    def check_covariance(self) -> "AugmentedMatrix":
        """Require Hermitian M1, symmetric M2, and a PSD full matrix, all within ``CONJ_TOL``."""
        check_covariance_blocks(self.m1, self.m2)
        w = np.linalg.eigvalsh(self.full())
        if w[0] < -CONJ_TOL * max(1.0, float(abs(w[-1]))):
            raise NotPSDError("augmented covariance is not positive semidefinite")
        return self


def _first(bad: np.ndarray) -> tuple | None:
    """Position over the batch axes of the first True member of ``bad``, or None if none is."""
    if not np.count_nonzero(bad):
        return None
    return np.unravel_index(int(bad.argmax()), bad.shape)


def _require(bad: np.ndarray, error: type, message: str) -> None:
    """Raise ``error(message)`` naming the first True member of ``bad`` in its ``index``."""
    index = _first(bad)
    if index is not None:
        raise error(message, index=index)


def _nonfinite(a: np.ndarray, axes: int | tuple = (-2, -1)) -> np.ndarray:
    """Whether each member of ``a`` over the trailing ``axes`` holds a NaN or an infinite entry."""
    return ~np.isfinite(a).all(axis=axes)


def check_covariance_blocks(m1: np.ndarray, m2: np.ndarray) -> None:
    """Require finite blocks, Hermitian M1 and symmetric M2 within ``CONJ_TOL``, relative to max(1, largest |entry|).

    Leading axes are batch axes, and each member is checked against its
    own scale; an error names the first failing member in its ``index``.
    """
    _require(_nonfinite(m1) | _nonfinite(m2), ConsistencyError, "covariance blocks have non-finite entries")
    scale = np.maximum(np.abs(m1).max(axis=(-2, -1), initial=1.0), np.abs(m2).max(axis=(-2, -1), initial=1.0))
    tol = CONJ_TOL * scale
    m1_defect = np.abs(m1 - m1.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    _require(m1_defect > tol, ConsistencyError, "covariance block M1 is not Hermitian")
    m2_defect = np.abs(m2 - m2.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    _require(m2_defect > tol, ConsistencyError, "covariance block M2 is not symmetric")


def augmented_to_real(x: AugmentedVector) -> np.ndarray:
    """The real composite [Re x; Im x] of an augmented vector."""
    return np.concatenate([x.top.real, x.top.imag])


def _check_mode(mode: str) -> None:
    if mode not in ("system", "covariance"):
        raise ValueError(f"mode must be 'system' or 'covariance', got {mode!r}")


def real_matrix_to_augmented(m, mode: str) -> AugmentedMatrix:
    """Lift a real matrix on composite space to the augmented domain.

    System matrices (state/measurement maps) use T M T^H / 2; covariances
    use T M T^H. The two scalings are mutual inverses of the corresponding
    modes of :func:`augmented_to_real_matrix`. Rectangular maps between
    composite spaces of different sizes are supported. A NaN or infinite
    entry raises ConsistencyError.
    """
    _check_mode(mode)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise DimensionError("composite matrix dimensions must be even")
    if not np.isfinite(m).all():
        raise ConsistencyError("composite matrix has non-finite entries")
    rows, cols = m.shape[0] // 2, m.shape[1] // 2
    full = build_transform(rows) @ m @ build_transform(cols).conj().T
    if mode == "system":
        full = full / 2
    return AugmentedMatrix(full[:rows, :cols], full[:rows, cols:])


def augmented_to_real_matrix(m: AugmentedMatrix, mode: str) -> np.ndarray:
    """Drop an augmented matrix back to composite space; result must be real.

    An imaginary residue above ``CONJ_TOL`` (relative) means the input did
    not come from a real composite matrix and raises ConsistencyError. The
    result is a C-contiguous real array.
    """
    return full_to_real_matrix(m.full(), mode)


def full_to_real_matrix(full: np.ndarray, mode: str) -> np.ndarray:
    """Composite-space form of full augmented arrays; leading axes are batch axes.

    The array form of :func:`augmented_to_real_matrix`: each matrix's
    imaginary residue is checked against ``CONJ_TOL`` relative to its own
    largest entry. The result is C-contiguous, not a strided view of the
    complex product, so every consumer's matmul takes the same loop on it.
    """
    _check_mode(mode)
    rows, cols = full.shape[-2] // 2, full.shape[-1] // 2
    out = build_transform(rows).conj().T @ full @ build_transform(cols)
    out = out / 2 if mode == "system" else out / 4
    scale = np.abs(out).max(axis=(-2, -1), initial=1.0)
    if np.count_nonzero(np.abs(out.imag).max(axis=(-2, -1), initial=0.0) > CONJ_TOL * scale):
        raise ConsistencyError("imaginary residue too large; matrix has no real composite form")
    return np.ascontiguousarray(out.real)


def psd_sqrt(m) -> np.ndarray:
    """Factor real symmetric PSD matrices as B @ B.T == m.

    Uses a symmetric eigendecomposition with eigenvalues floored at zero,
    so rank-deficient inputs (maximally improper noise gives these) succeed
    where a strict Cholesky would fail. A NaN or infinite entry raises
    ConsistencyError. Eigenvalues below -PSD_TOL * norm raise NotPSDError.
    Tiny positive eigenvalues (at or below ``FLUSH`` relative) are flushed
    to zero so near-null directions produce exactly zero columns.

    Leading axes are batch axes: each member is checked on its own scale,
    an error names the first failing member in its ``index``, and one
    ``eigh`` call factors the stack, so each member gets the bits it gets
    alone.

    Parameters
    ----------
    m : array_like (..., k, k), real symmetric within ``PSD_TOL``

    Returns
    -------
    B : ndarray with B @ B.T reconstructing ``m`` to relative 1e-10
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError("psd_sqrt needs a square matrix")
    _require(_nonfinite(m), ConsistencyError, "psd_sqrt needs finite entries")
    m_t = m.swapaxes(-1, -2)
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)
    _require(np.abs(m - m_t).max(axis=(-2, -1), initial=0.0) > PSD_TOL * scale, ConsistencyError,
             "psd_sqrt needs a symmetric matrix")
    w, v = np.linalg.eigh((m + m_t) / 2)
    return v * np.sqrt(_psd_eigenvalues(w))[..., None, :]


def _psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """:func:`psd_sqrt`'s rules on each matrix's eigenvalues, along the last axis in any order.

    Raises NotPSDError when the smallest is below -PSD_TOL * max(1, largest
    |w|), and flushes to zero every eigenvalue at or below ``FLUSH`` times
    max(largest, 0). The unscented filter applies them to the union of its
    joint's block eigenvalues, which is the joint's own spectrum.
    """
    bound = PSD_TOL * np.abs(w).max(axis=-1, initial=1.0)
    low = w.min(axis=-1)
    index = _first(low < -bound)
    if index is not None:
        raise NotPSDError(f"matrix has eigenvalue {low[index]:.3e} below -{bound[index]:.3e}", index=index)
    floor = FLUSH * np.maximum(w.max(axis=-1, keepdims=True), 0.0)
    return np.where(w > floor, w, 0.0)


def solve_right(b_top: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve X @ a == b for augmented X; least-squares fallback when a is singular.

    ``b_top`` is the top block row [B1, B2] of ``b`` and ``a`` the full
    augmented array, which must be exactly Hermitian (an innovation
    covariance, symmetrized). Returns the top block row [X1, X2] of X and
    whether the least-squares fallback was used. Solving for the top block
    row alone keeps X on the block pattern exactly; :func:`block_conjugate`
    completes it.

    Leading axes of ``b_top`` and ``a`` are batch axes, and the flag has
    their shape. A member of the batch counts as singular when its
    smallest singular value is at most ``RCOND`` times its largest; for a
    Hermitian matrix these are its smallest and largest eigenvalue
    magnitudes, which ``eigvalsh`` gives. The others are solved in one LU
    call, and each singular member alone by least squares, so every member
    gets the bits it would get unbatched.
    """
    sv = np.abs(np.linalg.eigvalsh(a))
    largest = sv.max(axis=-1)
    singular = (largest == 0) | (sv.min(axis=-1) <= RCOND * largest)
    a_t, b_t = a.swapaxes(-1, -2), b_top.swapaxes(-1, -2)
    if not singular.any():
        return np.linalg.solve(a_t, b_t).swapaxes(-1, -2), singular
    a_t = a_t.reshape(-1, *a_t.shape[-2:])
    b_t = b_t.reshape(-1, *b_t.shape[-2:])
    flags = singular.reshape(-1)
    xt = np.empty(b_t.shape, dtype=np.result_type(a_t, b_t))
    if not flags.all():
        xt[~flags] = np.linalg.solve(a_t[~flags], b_t[~flags])
    for i in np.flatnonzero(flags):
        xt[i] = np.linalg.lstsq(a_t[i], b_t[i], rcond=None)[0]
    return xt.swapaxes(-1, -2).reshape(b_top.shape), singular
