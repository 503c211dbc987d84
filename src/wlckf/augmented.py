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

# Relative tolerance of the checks that a matrix is Hermitian, symmetric or real.
CONJ_TOL = 1e-9
# Relative tolerance of the one PSD test (:func:`_require_psd`) and of psd_sqrt's symmetry check.
PSD_TOL = 1e-10
# Smallest-to-largest singular value ratio at or below which a matrix is singular.
RCOND = 1e-12
# solve_right's certificate: the shift, in units of the trace, that a member must
# stay positive definite under; the largest size its proof covers; and the range
# of traces inside which the proof's rounding terms hold.
_SHIFT = 2 * RCOND
_CERTIFIED_SIZE = 29
_TRACE_RANGE = (2.0**-480, 2.0**480)
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
        """Require finite blocks, Hermitian M1 and symmetric M2 within ``CONJ_TOL``, and PSD by psd_sqrt's test."""
        check_covariance_blocks(self.m1, self.m2)
        _require_psd(np.linalg.eigvalsh(self.full()) / 2)
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
    _require_psd(w)
    floor = FLUSH * np.maximum(w.max(axis=-1, keepdims=True), 0.0)
    return v * np.sqrt(np.where(w > floor, w, 0.0))[..., None, :]


def _require_psd(w: np.ndarray) -> None:
    """The one PSD test, on each matrix's eigenvalues along the last axis, in any order.

    Raises NotPSDError, naming the first failing member in its ``index``,
    when the smallest is below -PSD_TOL * max(1, largest |w|).
    :func:`psd_sqrt` applies it before its flush, the unscented filter to
    the union of its joint's block eigenvalues (the joint's spectrum), and
    :meth:`AugmentedMatrix.check_covariance` to a covariance's.
    """
    bound = PSD_TOL * np.abs(w).max(axis=-1, initial=1.0)
    low = w.min(axis=-1)
    index = _first(low < -bound)
    if index is not None:
        raise NotPSDError(f"matrix has eigenvalue {low[index]:.3e} below -{bound[index]:.3e}", index=index)


@cache
def _identity(size: int) -> np.ndarray:
    """The read-only identity of a size, built once."""
    eye = np.eye(size)
    eye.flags.writeable = False
    return eye


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

    ``eigvalsh`` runs only where :func:`_certified_regular` cannot prove
    that it would flag no member of the stack. Its failures, a NaN or
    infinite entry, a trace outside ``_TRACE_RANGE`` and a size above
    ``_CERTIFIED_SIZE`` all leave the whole stack to ``eigvalsh``. The
    proof, for a member A of size k with trace t (t^ as computed), where
    eps = 2^-53, g_j = j eps / (1 - j eps) and kappa = ``_SHIFT`` =
    2 RCOND:

    1. A single 2 x 2 [[p, z*], [z, q]], read from the lower triangle as
       ``eigvalsh`` reads it, passes when p > 0, q > 0 and
       pq - |z|^2 > kappa t^^2 in floats. Rounding moves pq - |z|^2 by at
       most 3.01 eps pq <= eps t^2, and underflow by less than eps t^2 for
       t^ in range, so det A > (kappa (1 - 5 eps) - 2 eps) t^2. Both
       eigenvalues are then positive, lambda_max <= t, and
       lambda_min = det A / lambda_max >= det A / t.
    2. Any other stack with k <= ``_CERTIFIED_SIZE`` passes when every t^
       is in range and ``np.linalg.cholesky(A - kappa t^ I)`` succeeds with
       a finite diagonal. A NaN or infinite entry of A stops the
       factorization or leaves a pivot non-finite, since every entry of a
       row enters its pivot. Every pivot was positive, so every a_ii
       exceeds the shift s, t^ >= t (1 - g_(k-1)) and s >= kappa t
       (1 - g_k). The computed factor R satisfies R^H R = B + dB, where B
       is the computed A - s I and |dB| <= g |R^H| |R| with
       g = g_(3(k+1)): Higham, *Accuracy and Stability of Numerical
       Algorithms*, 2nd ed., Theorem 10.3, whose proof needs only that
       the factorization completes and whose g_(k+1) holds for any order
       of the inner products (Lemma 8.4), hence for LAPACK's recursive
       and blocked forms; each complex product adds at most
       sqrt(2) g_2 < g_3 (section 3.6). No value of a factorization that
       completes exceeds a few t, so none overflows. By Cauchy-Schwarz,
       ||dB||_2 <= g tr(R^H R) <= g tr(B) / (1 - g) <= g t / (1 - g). B
       differs from A - s I by at most eps t on the diagonal, and the at
       most k^3 underflows, each below 2^-1022, sum to less than eps t.
       As R^H R is positive semidefinite, Weyl's inequality gives
       lambda_min(A) >= theta t, theta = kappa (1 - g_k) - g / (1 - g) -
       2 eps. Route 1's margin, kappa (1 - 5 eps) - 2 eps, exceeds theta
       at k = 2, so route 1 gives lambda_min(A) >= theta t too.
    3. Either way A is positive definite, so ||A||_2 = lambda_max <= t.
       LAPACK's Hermitian eigensolver returns the exact eigenvalues of
       A + E with ||E||_2 <= p(k) eps ||A||_2, for a modestly growing p
       that LAPACK leaves unstated (LAPACK Users' Guide, 3rd ed., section
       4.7.1). The proof takes p(k) = eta / eps = 10 k^2: the k^2 growth
       of the worst-case bound for Householder tridiagonalization, with a
       factor of 10 for the tridiagonal solver and the constants. By Weyl
       the computed eigenvalues lie in [(theta - eta) t, (1 + eta) t], all
       positive, so ``eigvalsh``'s rule flags A only if theta - eta <=
       RCOND (1 + eps) (1 + eta), once ``RCOND * largest`` is rounded.
       In exact rationals that fails for every k up to 29 and holds from
       k = 30 on, hence ``_CERTIFIED_SIZE``.
    """
    a_t, b_t = a.swapaxes(-1, -2), b_top.swapaxes(-1, -2)
    if _certified_regular(a):
        singular = np.zeros(a.shape[:-2], dtype=bool)[()]
    else:
        sv = np.abs(np.linalg.eigvalsh(a))
        largest = sv.max(axis=-1)
        singular = (largest == 0) | (sv.min(axis=-1) <= RCOND * largest)
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


def _certified_regular(a: np.ndarray) -> bool:
    """Whether :func:`solve_right`'s certificate proves that ``eigvalsh`` would flag no member of ``a``.

    Routes 1 and 2 of the proof in :func:`solve_right`; False where the
    certificate fails or does not apply, never where ``eigvalsh`` would
    flag a member.
    """
    low, high = _TRACE_RANGE
    if a.shape == (2, 2):
        (p, _), (z, q) = a.tolist()
        p, q = p.real, q.real
        t = p + q
        return p > 0 and q > 0 and low <= t <= high and p * q - (z.real * z.real + z.imag * z.imag) > _SHIFT * t * t
    k = a.shape[-1]
    if k > _CERTIFIED_SIZE:
        return False
    t = a.diagonal(0, -2, -1).real.sum(axis=-1)
    if not ((t >= low) & (t <= high)).all():
        return False
    try:
        factor = np.linalg.cholesky(a - (_SHIFT * t)[..., None, None] * _identity(k))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor.diagonal(0, -2, -1)).all())
