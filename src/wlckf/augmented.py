"""Complex-augmented linear algebra kernel.

Conversions between dual real channels and the complex augmented domain,
block-structured augmented matrices, and the two numeric helpers the
filters rely on (PSD matrix square root, scalar augmented eigenvalues).

A complex vector x = u + jv has the augmented form [x; x*], related to the
real composite [u; v] by the transform returned by :func:`build_transform`.
It is stored as x alone, and augmented matrices, which carry the
block-conjugate pattern [[M1, M2], [M2*, M1*]], as the (M1, M2) pair, so
both patterns hold by construction; :func:`block_conjugate` fills the full
array of a pair. Composite-space results are C-contiguous real arrays.
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
        return np.concatenate([self.top, self.bottom])

    def __add__(self, other: "AugmentedVector") -> "AugmentedVector":
        return AugmentedVector(self.top + other.top)

    def __sub__(self, other: "AugmentedVector") -> "AugmentedVector":
        return AugmentedVector(self.top - other.top)


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

    @classmethod
    def eye(cls, n: int) -> "AugmentedMatrix":
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), complex))

    @classmethod
    def diagonal(cls, scalar: complex) -> "AugmentedMatrix":
        """The 1x1-block strictly linear map [[s, 0], [0, s*]]."""
        return cls(np.array([[scalar]], complex), np.zeros((1, 1), complex))

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.m1.shape

    def full(self) -> np.ndarray:
        return block_conjugate(self.m1, self.m2)

    def __add__(self, other: "AugmentedMatrix") -> "AugmentedMatrix":
        return AugmentedMatrix(self.m1 + other.m1, self.m2 + other.m2)

    def __sub__(self, other: "AugmentedMatrix") -> "AugmentedMatrix":
        return AugmentedMatrix(self.m1 - other.m1, self.m2 - other.m2)

    def __mul__(self, scalar: float) -> "AugmentedMatrix":
        # Only real scalars keep the block-conjugate pattern.
        if isinstance(scalar, complex) and scalar.imag != 0:
            raise ConsistencyError("complex scalar would break the block pattern")
        return AugmentedMatrix(self.m1 * scalar, self.m2 * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, AugmentedMatrix):
            return AugmentedMatrix(
                self.m1 @ other.m1 + self.m2 @ np.conj(other.m2),
                self.m1 @ other.m2 + self.m2 @ np.conj(other.m1),
            )
        if isinstance(other, AugmentedVector):
            return AugmentedVector(self.m1 @ other.top + self.m2 @ other.bottom)
        return NotImplemented

    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.m1), initial=0.0), np.max(np.abs(self.m2), initial=0.0)))

    def check_blocks(self) -> "AugmentedMatrix":
        """Require the covariance block symmetries, Hermitian M1 and symmetric M2, within ``CONJ_TOL``."""
        scale = max(1.0, self.max_abs())
        if np.max(np.abs(self.m1 - self.m1.conj().T), initial=0.0) > CONJ_TOL * scale:
            raise ConsistencyError("covariance block M1 is not Hermitian")
        if np.max(np.abs(self.m2 - self.m2.T), initial=0.0) > CONJ_TOL * scale:
            raise ConsistencyError("covariance block M2 is not symmetric")
        return self

    def check_covariance(self) -> "AugmentedMatrix":
        """Require Hermitian M1, symmetric M2, and a PSD full matrix, all within ``CONJ_TOL``."""
        w = np.linalg.eigvalsh(self.check_blocks().full())
        if w[0] < -CONJ_TOL * max(1.0, float(abs(w[-1]))):
            raise NotPSDError("augmented covariance is not positive semidefinite")
        return self


def real_to_augmented(z) -> AugmentedVector:
    """Map a real composite vector [u; v] to the augmented stack of u + jv."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] % 2:
        raise DimensionError("composite vector must be 1-d with even length")
    n = z.shape[0] // 2
    return AugmentedVector(z[:n] + 1j * z[n:])


def augmented_to_real(x: AugmentedVector) -> np.ndarray:
    """Inverse of :func:`real_to_augmented`: the composite [Re x; Im x]."""
    return np.concatenate([x.top.real, x.top.imag])


def full_to_real(x: np.ndarray) -> np.ndarray:
    """Real composite [u; v] of full augmented vectors [x; x*] along the last axis.

    Leading axes are batch axes. A vector whose bottom half deviates from
    the conjugate of its top half by more than ``CONJ_TOL`` (relative to
    max(1, max |top|)) raises ConsistencyError.
    """
    n = x.shape[-1] // 2
    top = x[..., :n]
    scale = np.maximum(1.0, np.max(np.abs(top), axis=-1, initial=0.0))
    defect = np.max(np.abs(x[..., n:] - np.conj(top)), axis=-1, initial=0.0)
    if np.any(defect > CONJ_TOL * scale):
        raise ConsistencyError("augmented vector is not conjugate symmetric")
    return np.concatenate([top.real, top.imag], axis=-1)


def _check_mode(mode: str) -> None:
    if mode not in ("system", "covariance"):
        raise ValueError(f"mode must be 'system' or 'covariance', got {mode!r}")


def real_matrix_to_augmented(m, mode: str) -> AugmentedMatrix:
    """Lift a real matrix on composite space to the augmented domain.

    System matrices (state/measurement maps) use T M T^H / 2; covariances
    use T M T^H. The two scalings are mutual inverses of the corresponding
    modes of :func:`augmented_to_real_matrix`. Rectangular maps between
    composite spaces of different sizes are supported.
    """
    _check_mode(mode)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise DimensionError("composite matrix dimensions must be even")
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
    scale = np.maximum(1.0, np.max(np.abs(out), axis=(-2, -1), initial=0.0))
    if np.any(np.max(np.abs(out.imag), axis=(-2, -1), initial=0.0) > CONJ_TOL * scale):
        raise ConsistencyError("imaginary residue too large; matrix has no real composite form")
    return np.ascontiguousarray(out.real)


def psd_sqrt(m) -> np.ndarray:
    """Factor a real symmetric PSD matrix as B @ B.T == m.

    Uses a symmetric eigendecomposition with eigenvalues floored at zero,
    so rank-deficient inputs (maximally improper noise gives these) succeed
    where a strict Cholesky would fail. Eigenvalues below -PSD_TOL * norm
    raise NotPSDError. Tiny positive eigenvalues (below 1e-13 relative) are
    flushed to zero so near-null directions produce exactly zero columns.

    Parameters
    ----------
    m : array_like, real symmetric within ``PSD_TOL``

    Returns
    -------
    B : ndarray with B @ B.T reconstructing ``m`` to relative 1e-10
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("psd_sqrt needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if np.max(np.abs(m - m.T), initial=0.0) > PSD_TOL * scale:
        raise ConsistencyError("psd_sqrt needs a symmetric matrix")
    w, v = np.linalg.eigh((m + m.T) / 2)
    bound = PSD_TOL * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if w[0] < -bound:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below -{bound:.3e}")
    floor = 1e-13 * max(w[-1], 0.0)
    w = np.where(w > floor, w, 0.0)
    return v * np.sqrt(w)


def eigenvalues_scalar_augmented(p: float, p_tilde: complex) -> tuple[float, float]:
    """Eigenvalues (descending) of [[p, pt], [pt*, p]] for real p >= 0."""
    p = float(p)
    mag = abs(complex(p_tilde))
    slack = 1e-12 * max(1.0, p)
    if p < -slack or mag > p + slack:
        raise NotPSDError(f"scalar augmented matrix with p={p}, |pt|={mag} is not PSD")
    return p + mag, max(p - mag, 0.0)


def solve_right(b_top: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve X @ a == b for augmented X; least-squares fallback when a is singular.

    ``b_top`` is the top block row [B1, B2] of ``b`` and ``a`` the full
    augmented array. Returns the top block row [X1, X2] of X and whether
    the least-squares fallback was used. Solving for the top block row
    alone keeps X on the block pattern exactly; :func:`block_conjugate`
    completes it.

    Leading axes of ``b_top`` and ``a`` are batch axes, and the flag has
    their shape. A member of the batch counts as singular when its
    smallest singular value is at most ``RCOND`` times its largest; the
    others are solved in one LU call, and each singular member alone by
    least squares, so every member gets the bits it would get unbatched.
    """
    sv = np.linalg.svd(a, compute_uv=False)
    singular = (sv[..., 0] == 0) | (sv[..., -1] <= RCOND * sv[..., 0])
    a_t, b_t = np.swapaxes(a, -1, -2), np.swapaxes(b_top, -1, -2)
    if not singular.any():
        return np.swapaxes(np.linalg.solve(a_t, b_t), -1, -2), singular
    a_t = a_t.reshape(-1, *a_t.shape[-2:])
    b_t = b_t.reshape(-1, *b_t.shape[-2:])
    flags = singular.reshape(-1)
    xt = np.empty(b_t.shape, dtype=np.result_type(a_t, b_t))
    if not flags.all():
        xt[~flags] = np.linalg.solve(a_t[~flags], b_t[~flags])
    for i in np.flatnonzero(flags):
        xt[i] = np.linalg.lstsq(a_t[i], b_t[i], rcond=None)[0]
    return np.swapaxes(xt, -1, -2).reshape(b_top.shape), singular
