"""Widely linear complex state-space models and the three linear filters.

The model is the augmented-domain image of a dual-channel real linear
system: state and measurement updates act on a complex vector and its
conjugate together, so real-channel coupling of any kind is representable.
Three filters operate on it:

* ``wlckf_run``: the widely linear complex Kalman filter on the augmented
  representation. Equivalent, step by step, to the dual-channel real KF.
* ``ckf_run``: the strictly linear complex KF baseline, which ignores all
  complementary covariance: the widely linear filter on the model's proper
  part (``WidelyLinearModel.proper_part``). Only defined for models whose
  conjugate blocks A2, B2, C2 vanish.
* ``real_kf_run``: a textbook real Kalman filter on the composite
  dual-channel model, written directly in real arithmetic.

The widely linear filter runs on full 2n x 2n augmented arrays: the
model's arrays (A, A^H, B Q B^H, C, C^H, R) are formed once per run. The
measurement update has two halves, both shared with the unscented filter:
:func:`wl_gain`, given the cross covariance P_xy and the innovation
covariance S, forms the widely linear gain K S = P_xy and the posterior
covariance, and :func:`wl_estimate` forms the innovation and the
estimate. A step of :func:`_wl_filter` has one body: a covariance half
(:func:`_covariance_step`), which reads no measurement and for a
time-invariant model converges to the steady-state filter (Anderson &
Moore, *Optimal Filtering*, 1979, ch. 4), so the loop stops it once the
posterior covariance repeats bit for bit; then an estimate half, which
runs at every step. For a linear
model the posterior covariance is the Joseph form
(I - K C) P (I - K C)^H + K R K^H, which stays positive semidefinite under
rounding; the unscented filter, which has no linear measurement map, keeps
P - K P_xy^H. ``real_kf_run`` uses the Joseph form too, in its own code.
Both filters hand the update one form: an estimate travels as its top
half x, expanded to [x; x*] only where a product needs it, and a
covariance as its full array, symmetrized by :func:`_covariance`. A step
report packs the top halves and the blocks of the top block rows of a
step's arrays into one complex array, so the block-conjugate pattern
holds exactly and no full array is kept; its fields are read-only and
wrap views of that array.

Every kernel accepts leading batch axes. Each filter has one
predict/update loop, a generator over steps: ``wlckf_run`` runs it on one
model and builds step reports from it, and ``wlckf_batch`` runs it on
models of one size stacked along a batch axis and yields the posterior at
each step as the loop carries it, as do ``ckf_batch`` and
``real_kf_batch``. A batch member gets the same bits as its single run.

Conventions: the innovation is measurement minus prediction, the run
starts from a posterior at t = 0 (zero mean, initial covariance), and each
measurement triggers predict-then-update, so the first measurement is the
one at t = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import prod
from typing import Iterator, NamedTuple

import numpy as np

from . import augmented
from .augmented import (
    AugmentedMatrix,
    AugmentedVector,
    _expand,
    _nonfinite,
    _require,
    block_conjugate,
    real_matrix_to_augmented,
)
# solve_right is called through the module: a batched update returns one
# flag per member, which bench/spans.py's tracer, rebinding this name,
# cannot read. The name stays bound here for the tracer.
from .augmented import solve_right  # noqa: F401
from .errors import ConsistencyError, DimensionError, UnsupportedModelError
from .stats import SecondOrderStats, sample, sample_batch


@dataclass
class WidelyLinearModel:
    """Augmented system matrices, noise covariances and initial covariance.

    ``A``, ``B``, ``C`` are the augmented state, noise-gain and measurement
    maps; ``Q``, ``R`` the augmented driving/measurement noise covariances;
    ``Pi0`` the initial augmented state covariance. Driving and
    measurement noise are uncorrelated. A non-finite entry raises ConsistencyError.
    """

    A: AugmentedMatrix
    B: AugmentedMatrix
    C: AugmentedMatrix
    Q: AugmentedMatrix
    R: AugmentedMatrix
    Pi0: AugmentedMatrix

    def __post_init__(self):
        n = self.A.block_shape[0]
        m = self.C.block_shape[0]
        if self.A.block_shape != (n, n):
            raise DimensionError("state map must be square")
        if self.B.block_shape[0] != n:
            raise DimensionError("noise gain rows must match the state dimension")
        nw = self.B.block_shape[1]
        if self.C.block_shape != (m, n):
            raise DimensionError("measurement map columns must match the state dimension")
        if self.Q.block_shape != (nw, nw):
            raise DimensionError("driving-noise covariance must match the noise gain")
        if self.R.block_shape != (m, m):
            raise DimensionError("measurement-noise covariance must match the measurement dimension")
        if self.Pi0.block_shape != (n, n):
            raise DimensionError("initial covariance must match the state dimension")
        for name in ("A", "B", "C"):
            if not np.isfinite(getattr(self, name).full()).all():
                raise ConsistencyError(f"{name} has non-finite entries")
        for name in ("Q", "R", "Pi0"):
            getattr(self, name).check_covariance()

    @property
    def n(self) -> int:
        return self.A.block_shape[0]

    @property
    def m(self) -> int:
        return self.C.block_shape[0]

    def is_strictly_linear(self, tol: float = 0.0) -> bool:
        """True when the conjugate blocks A2, B2, C2 all vanish."""
        worst = max(
            float(np.max(np.abs(self.A.m2), initial=0.0)),
            float(np.max(np.abs(self.B.m2), initial=0.0)),
            float(np.max(np.abs(self.C.m2), initial=0.0)),
        )
        return worst <= tol

    def proper_part(self) -> "WidelyLinearModel":
        """The same model with the complementary blocks of Q, R and Pi0 set to zero.

        This is the model a filter that ignores complementary covariance
        assumes; the system maps are kept as they are.
        """
        return replace(
            self, Q=_hermitian_part(self.Q), R=_hermitian_part(self.R), Pi0=_hermitian_part(self.Pi0)
        )


def _hermitian_part(cov: AugmentedMatrix) -> AugmentedMatrix:
    return AugmentedMatrix(cov.m1, np.zeros_like(cov.m1))


@dataclass
class FilterState:
    """Augmented estimate and error covariance at a time index."""

    estimate: AugmentedVector
    cov: AugmentedMatrix
    t: int = 0


class StepReport:
    """Everything one predict/update cycle produced, packed in one complex array.

    The array holds, each block C-contiguous and in this order: the
    predicted estimate's top half and covariance blocks (M1, M2), the
    posterior's, the top half of the innovation, the innovation
    covariance blocks and the gain blocks. ``predicted``, ``innovation``,
    ``innovation_cov``, ``gain`` and ``state`` are read-only: each access
    builds new :class:`FilterState`, :class:`AugmentedVector` and
    :class:`AugmentedMatrix` objects around views of the array, so writing
    into their arrays changes the report and rebinding their attributes
    does not. ``t`` and ``singular_innovation`` are read-only too.
    :meth:`WLUpdate.report` builds a report.
    """

    __slots__ = ("_data", "_n", "_m", "_t", "_singular")

    def __init__(self, data: np.ndarray, n: int, m: int, t: int, singular_innovation: bool = False):
        if data.shape != (_report_layout(n, m)[-1][1],):
            raise DimensionError("packed report size does not match the state and measurement dimensions")
        self._data, self._n, self._m, self._t, self._singular = data, n, m, t, singular_innovation

    def __reduce__(self):
        return StepReport, (self._data, self._n, self._m, self._t, self._singular)

    def __repr__(self) -> str:
        return f"StepReport(t={self._t}, n={self._n}, m={self._m}, singular_innovation={self._singular})"

    def _views(self, first: int, count: int) -> list[np.ndarray]:
        """Views of ``count`` blocks of the packed array, from block ``first`` on."""
        blocks = _report_layout(self._n, self._m)[first : first + count]
        return [self._data[start:stop].reshape(shape) for start, stop, shape in blocks]

    @property
    def t(self) -> int:
        return self._t

    @property
    def singular_innovation(self) -> bool:
        return self._singular

    def _filter_state(self, first: int) -> FilterState:
        x, m1, m2 = self._views(first, 3)
        return FilterState(AugmentedVector(x), AugmentedMatrix(m1, m2), self._t)

    @property
    def predicted(self) -> FilterState:
        return self._filter_state(0)

    @property
    def state(self) -> FilterState:
        return self._filter_state(3)

    @property
    def innovation(self) -> AugmentedVector:
        return AugmentedVector(*self._views(6, 1))

    @property
    def innovation_cov(self) -> AugmentedMatrix:
        return AugmentedMatrix(*self._views(7, 2))

    @property
    def gain(self) -> AugmentedMatrix:
        return AugmentedMatrix(*self._views(9, 2))


@cache
def _report_layout(n: int, m: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each block of a packed :class:`StepReport`, in packing order."""
    shapes = [(n,), (n, n), (n, n), (n,), (n, n), (n, n), (m,), (m, m), (m, m), (n, m), (n, m)]
    layout, start = [], 0
    for shape in shapes:
        stop = start + prod(shape)
        layout.append((start, stop, shape))
        start = stop
    return tuple(layout)


def model_from_real(e, f, g, q_real, r_real, pi_real) -> WidelyLinearModel:
    """Build the augmented model from a dual-channel real specification.

    System matrices lift with the system-mode transform, noise covariances
    with the covariance mode, so the induced widely linear model matches
    the real model exactly.
    """
    return WidelyLinearModel(
        A=real_matrix_to_augmented(e, "system"),
        B=real_matrix_to_augmented(f, "system"),
        C=real_matrix_to_augmented(g, "system"),
        Q=real_matrix_to_augmented(q_real, "covariance"),
        R=real_matrix_to_augmented(r_real, "covariance"),
        Pi0=real_matrix_to_augmented(pi_real, "covariance"),
    )


def _check_one_size(models) -> None:
    if len({(model.n, model.m, model.B.block_shape[1]) for model in models}) != 1:
        raise DimensionError("batched models must all have the same dimensions")


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for stacks of matrices and vectors; the same BLAS call per member as a 2-d @ 1-d product."""
    return (a @ x[..., None])[..., 0]


class _Maps(NamedTuple):
    """A linear model's augmented arrays, formed once per run; leading axes are batch axes.

    The full arrays A^H, C, C^H and R, and the top block rows of A, B Q B^H,
    C and R, which are all that a step reads of those arrays.
    """

    a_top: np.ndarray
    a_h: np.ndarray
    bqb_top: np.ndarray
    c: np.ndarray
    c_top: np.ndarray
    c_h: np.ndarray
    r: np.ndarray
    r_top: np.ndarray

    @classmethod
    def of(cls, model: WidelyLinearModel) -> "_Maps":
        return cls._build(lambda name: getattr(model, name).full())

    @classmethod
    def stack(cls, models) -> "_Maps":
        """The arrays of models of one size, stacked along a leading batch axis."""
        _check_one_size(models)
        return cls._build(lambda name: np.stack([getattr(model, name).full() for model in models]))

    @classmethod
    def _build(cls, full) -> "_Maps":
        a, b, c, r = full("A"), full("B"), full("C"), full("R")
        n, m = a.shape[-1] // 2, c.shape[-2] // 2
        bqb_h = b @ full("Q") @ _h(b)
        return cls(a[..., :n, :], _h(a), bqb_h[..., :n, :], c, c[..., :m, :], _h(c), r, r[..., :m, :])


def _covariance(top: np.ndarray) -> np.ndarray:
    """Full covariance from a computed top block row [M1, M2], symmetrized.

    The one symmetrization of both filters' covariances: the Hermitian
    part (F + F^H) / 2 of the completion F = :func:`block_conjugate` of
    [M1, M2], where M1 becomes (M1 + M1^H) / 2 and M2 becomes
    (M2 + M2^T) / 2, and the pattern holds. The unscented filter's moment
    gather runs the same completion on labels. Leading axes are batch axes.
    """
    n = top.shape[-2]
    full = block_conjugate(top[..., :n], top[..., n:])
    full += _h(full)
    full /= 2
    return full


@cache
def _identity(size: int) -> np.ndarray:
    """The read-only identity of a size, built once."""
    eye = np.eye(size)
    eye.flags.writeable = False
    return eye


def _covariance_step(p: np.ndarray, maps: _Maps, t: int) -> tuple[np.ndarray, ...]:
    """Covariance half of the step at time ``t``: predicted P = A P A^H + B Q B^H, S = C P C^H + R, :func:`wl_gain`.

    Returns P and S, symmetrized, and wl_gain's three results. A
    non-finite S raises ConsistencyError before the gain solve, naming
    ``t`` and, in ``index``, the first such member of a batch.
    """
    p = _covariance(maps.a_top @ p @ maps.a_h + maps.bqb_top)
    # (C P) C^H, the association real_kf_run uses; C (P C^H) rounds apart
    # from it by more than the equivalence gate on one stiff-family model.
    s = _covariance(maps.c_top @ p @ maps.c_h + maps.r_top)
    if not np.isfinite(s).all():
        _require(_nonfinite(s), ConsistencyError, f"innovation covariance at t = {t} has non-finite entries")
    return (p, s, *wl_gain(p, p @ maps.c_h, s, joseph=(maps.c, maps.r)))


class WLUpdate(NamedTuple):
    """The arrays of one widely linear measurement update (leading axes are batch axes).

    ``x``, ``p``: predicted estimate (top half) and full covariance;
    ``innovation``: the top half of the augmented innovation; ``s``: full
    innovation covariance; ``gain``: top block row of the gain;
    ``x_post``, ``p_post``: posterior top half and full symmetrized
    covariance; ``singular``: whether the gain took the least-squares
    fallback.
    """

    x: np.ndarray
    p: np.ndarray
    innovation: np.ndarray
    s: np.ndarray
    gain: np.ndarray
    x_post: np.ndarray
    p_post: np.ndarray
    singular: np.ndarray

    def report(self, t: int, like: StepReport | None = None) -> StepReport:
        """The step report of an unbatched update at time ``t``.

        One copy packs the top halves and the blocks of the top block rows
        into the report's array, so the block-conjugate pattern holds
        exactly and no full array is kept. ``like`` is the report of an
        update with these same covariance and gain arrays (a step that
        :func:`_wl_filter` reused): its array is copied, and only the
        estimate blocks are written.
        """
        n, m = self.gain.shape[0], self.innovation.shape[0]
        if like is not None:
            data = like._data.copy()
            layout = _report_layout(n, m)
            for block, value in ((0, self.x), (3, self.x_post), (6, self.innovation)):
                start, stop, _ = layout[block]
                data[start:stop] = value
            return StepReport(data, n, m, t, bool(self.singular))
        blocks = (
            self.x, _block_pair(self.p[:n]), self.x_post, _block_pair(self.p_post[:n]),
            self.innovation, _block_pair(self.s[:m]), _block_pair(self.gain),
        )
        return StepReport(np.concatenate(blocks, axis=None, dtype=complex), n, m, t, bool(self.singular))


def _block_pair(top: np.ndarray) -> np.ndarray:
    """The blocks M1, M2 of a top block row [M1, M2], stacked along a new first axis; a view of a C-contiguous row."""
    rows, cols = top.shape[0], top.shape[1] // 2
    return top.reshape(rows, 2, cols).swapaxes(0, 1)


def wl_gain(
    p: np.ndarray,
    cross: np.ndarray,
    s: np.ndarray,
    joseph: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain and covariance half of the widely linear update, shared by the linear and unscented filters.

    ``p`` is the predicted full covariance, ``cross`` the full
    state/measurement cross covariance P_xy and ``s`` the full innovation
    covariance S, which must be exactly Hermitian. The gain solves
    K S = P_xy for the top block row of K (least squares when S is
    singular, flagged). Only the posterior covariance's formula depends on
    the filter. With ``joseph = (C, R)``, the measurement map and noise of
    a linear model, it is the Joseph form (I - K C) P (I - K C)^H +
    K R K^H, which stays positive semidefinite under rounding and needs
    the full K that :func:`wlckf.augmented.block_conjugate` completes;
    without it (the unscented filter, whose measurement map is not linear)
    it is P - K P_xy^H, from the top block row of K alone. Returns the top
    block row of the gain, the posterior's full covariance, symmetrized by
    :func:`_covariance`, and the least-squares flag. No measurement is
    read: :func:`wl_estimate` is the other half.

    Leading axes of every array are batch axes: a batch of models runs
    through the same arithmetic, and each member gets the bits it would
    get alone.
    """
    n = cross.shape[-2] // 2
    gain, singular = augmented.solve_right(cross[..., :n, :], s)
    if joseph is None:
        # C-contiguous like the full gain's top rows, so the products keep their bits.
        k_top = np.ascontiguousarray(gain)
        cov_top = p[..., :n, :] - k_top @ _h(cross)
    else:
        c, r = joseph
        m = s.shape[-1] // 2
        k = block_conjugate(gain[..., :m], gain[..., m:])
        k_top = k[..., :n, :]
        i_kc = _identity(2 * n) - k @ c
        cov_top = i_kc[..., :n, :] @ p @ _h(i_kc) + k_top @ r @ _h(k)
    return k_top, _covariance(cov_top), singular


def wl_estimate(x: np.ndarray, y, y_pred: np.ndarray, k_top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimate half of the widely linear update: the innovation and the posterior's top half.

    ``x`` is the top half of the predicted estimate, ``y_pred`` the
    predicted measurement and ``k_top`` the top block row of the gain
    (:func:`wl_gain`). A measurement of another shape than ``y_pred``
    raises DimensionError, and one with a NaN or infinite entry
    ConsistencyError, naming the first such member of a batch. Returns the
    innovation's top half y - y_pred and x + K [nu; nu*].
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != y_pred.shape:
        raise DimensionError("measurement dimension does not match the model")
    if not np.isfinite(y).all():
        _require(_nonfinite(y, -1), ConsistencyError, "measurement has non-finite entries")
    innovation = y - y_pred
    return innovation, x + _matvec(k_top, _expand(innovation))


def default_init(model: WidelyLinearModel) -> FilterState:
    return FilterState(
        AugmentedVector(np.zeros(model.n, complex)),
        model.Pi0,
        t=0,
    )


def _measurement_rows(measurements) -> np.ndarray:
    """A run's measurements as one complex array, one row per step.

    A sequence of scalars is one measurement a step; a ragged sequence
    raises DimensionError.
    """
    try:
        ys = np.asarray(measurements if isinstance(measurements, np.ndarray) else list(measurements), dtype=complex)
    except ValueError as exc:
        raise DimensionError("measurement dimension does not match the model") from exc
    return ys[:, None] if ys.ndim == 1 else ys


def _wl_filter(maps: _Maps, x: np.ndarray, p: np.ndarray, measurements, t0: int = 0) -> Iterator[WLUpdate]:
    """The widely linear filter's predict/update loop; yields every step's update.

    It starts from the posterior's top half ``x`` and full covariance
    ``p`` at time ``t0``. ``measurements`` iterates over steps; each item,
    like ``x`` and ``p``, may carry leading batch axes, which the
    arithmetic keeps.

    A step has one body: the covariance half (:func:`_covariance_step`),
    which reads no measurement, then the estimate half, A [x; x*] and
    :func:`wl_estimate` against C [x; x*]. Once a step's posterior
    covariance equals, bit for bit, the one the step started from, every
    later covariance half would give the same arrays, so the loop skips it
    and yields that step's arrays again, read-only. A batch is fixed only
    when its whole stack is, so each member keeps the bits of its single
    run. The bits are compared as integers, since -0.0 == 0.0.

    Each step's arithmetic runs with numpy's floating-point warnings off;
    instead a non-finite innovation covariance (before the gain solve), or
    a non-finite posterior top half or covariance diagonal, raises
    ConsistencyError naming the step and, in ``index``, the first such
    member of a batch. Every yielded posterior is read-only.
    """
    fixed = False
    for t, y in enumerate(measurements, start=t0 + 1):
        with np.errstate(all="ignore"):
            if not fixed:
                p_pred, s, gain, p_post, singular = _covariance_step(p, maps, t)
            x = _matvec(maps.a_top, _expand(x))
            innovation, x_post = wl_estimate(x, y, _matvec(maps.c_top, _expand(x)), gain)
        if not (np.isfinite(x_post).all() and (fixed or np.isfinite(np.diagonal(p_post, 0, -2, -1)).all())):
            bad = _nonfinite(x_post, -1) | _nonfinite(np.diagonal(p_post, 0, -2, -1), -1)
            _require(bad, ConsistencyError, f"posterior at t = {t} has non-finite entries")
        x_post.flags.writeable = False
        if not fixed:
            p_post.flags.writeable = False
            # Equal first entries are a cheap first test: equal bits need them.
            fixed = p_post.item(0) == p.item(0) and np.array_equal(p_post.view(np.int64), p.view(np.int64))
            if fixed:
                for reused in (p_pred, s, gain):
                    reused.flags.writeable = False
        yield WLUpdate(x, p_pred, innovation, s, gain, x_post, p_post, singular)
        x, p = x_post, p_post


def wlckf_run(model: WidelyLinearModel, measurements, init: FilterState | None = None) -> list[StepReport]:
    """Run the widely linear filter over a measurement sequence.

    ``measurements[k]`` is the measurement at time ``t0 + k + 1``, where
    ``t0`` is the time of ``init`` (0 by default): each is preceded by a
    prediction. The measurements are converted once: a sequence of
    scalars is one measurement a step, and a ragged sequence raises
    DimensionError. Once the covariance recursion reaches its bit-exact
    fixed point, later steps reuse its covariances and gain and compute
    only the estimate (:func:`_wl_filter`), and each of their reports is
    the previous one's array with the estimate blocks rewritten; the
    reports are the same bits either way. A non-finite posterior raises
    ConsistencyError naming the step.
    """
    state = init if init is not None else default_init(model)
    if state.estimate.n != model.n:
        raise DimensionError("state dimension does not match the model")
    steps = _wl_filter(_Maps.of(model), state.estimate.top, state.cov.full(), _measurement_rows(measurements), state.t)
    reports: list[StepReport] = []
    gain = None
    for t, update in enumerate(steps, start=state.t + 1):
        # A reused step carries the previous step's gain and covariances, so it copies their packed blocks.
        reports.append(update.report(t, reports[-1] if update.gain is gain else None))
        gain = update.gain
    return reports


def wlckf_batch(models, measurements) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The widely linear filter on a batch of models of one size, from their default initial states.

    ``measurements`` has shape (batch, steps, m): row i is the sequence
    ``wlckf_run`` would take for ``models[i]``. Yields, at each step, the
    posterior as the loop carries it: top halves of shape (batch, n) and
    full covariances of shape (batch, 2n, 2n). Both are read-only, and once
    the whole stack's covariance recursion is at its bit-exact fixed
    point, each later step yields the same covariance array again. It runs
    ``wlckf_run``'s loop, and member i equals
    ``wlckf_run(models[i], measurements[i])``. A non-finite posterior
    raises ConsistencyError naming the step and, in ``index``, the member.
    """
    maps = _Maps.stack(models)
    x = np.zeros((len(models), models[0].n), complex)
    p = np.stack([model.Pi0.full() for model in models])
    for update in _wl_filter(maps, x, p, np.moveaxis(np.asarray(measurements), -2, 0)):
        yield update.x_post, update.p_post


def _check_strictly_linear(model: WidelyLinearModel) -> None:
    if not model.is_strictly_linear():
        raise UnsupportedModelError("strictly linear filtering needs zero conjugate blocks A2, B2, C2")


def ckf_run(model: WidelyLinearModel, measurements, init: FilterState | None = None) -> list[StepReport]:
    """Strictly linear complex KF: the widely linear filter on the model's proper part.

    Rejects models with nonzero conjugate blocks, where strictly linear
    filtering is undefined. Complementary covariances of the model and of
    ``init`` are ignored.
    """
    _check_strictly_linear(model)
    if init is not None:
        init = replace(init, cov=_hermitian_part(init.cov))
    return wlckf_run(model.proper_part(), measurements, init)


def ckf_batch(models, measurements) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`ckf_run` on a batch of models of one size: :func:`wlckf_batch` on their proper parts.

    Every model must be strictly linear. Yields top halves and full covariances.
    """
    for model in models:
        _check_strictly_linear(model)
    return wlckf_batch([model.proper_part() for model in models], measurements)


@dataclass
class RealKFStep:
    """One cycle of the dual-channel real Kalman filter."""

    innovation: np.ndarray
    innovation_cov: np.ndarray
    gain: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    t: int


def _real_kf(e, f, g, q_real, r_real, x, p, measurements_real) -> Iterator[RealKFStep]:
    """The real filter's predict/update loop; leading axes of every array are batch axes.

    A member whose innovation covariance is singular (smallest singular
    value at most 1e-12 times the largest) gets its gain by least squares,
    alone; the others share one LU solve. The covariance is symmetrized
    before the test, so it is exactly symmetric and its singular values
    are its eigenvalue magnitudes, which ``eigvalsh`` gives.
    """

    def tr(a):
        return a.swapaxes(-1, -2)

    def mv(a, v):
        return (a @ v[..., None])[..., 0]

    e = np.asarray(e, float)
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    q = np.asarray(q_real, float)
    r = np.asarray(r_real, float)
    dim = e.shape[-1]
    if e.shape[-2] != dim or g.shape[-1] != dim or f.shape[-2] != dim:
        raise DimensionError("inconsistent composite model dimensions")
    fqf = f @ q @ tr(f)
    eye = np.eye(dim)
    for t, psi in enumerate(measurements_real, start=1):
        psi = np.asarray(psi, float)
        x = mv(e, x)
        p = e @ p @ tr(e) + fqf
        p = (p + tr(p)) / 2
        s = g @ p @ tr(g) + r
        s = (s + tr(s)) / 2
        sv = np.abs(np.linalg.eigvalsh(s))
        largest = sv.max(axis=-1)
        singular = (largest == 0) | (sv.min(axis=-1) <= 1e-12 * largest)
        s_t, pg_t = tr(s), tr(p @ tr(g))
        if singular.any():
            kt = np.empty(pg_t.shape)
            if not singular.all():
                kt[~singular] = np.linalg.solve(s_t[~singular], pg_t[~singular])
            for i in np.ndindex(singular.shape):
                if singular[i]:
                    kt[i] = np.linalg.lstsq(s_t[i], pg_t[i], rcond=None)[0]
        else:
            kt = np.linalg.solve(s_t, pg_t)
        gain = tr(kt)
        nu = psi - mv(g, x)
        x = x + mv(gain, nu)
        i_kg = eye - gain @ g
        p = i_kg @ p @ tr(i_kg) + gain @ r @ tr(gain)
        p = (p + tr(p)) / 2
        yield RealKFStep(nu, s, gain, x, p, t)


def real_kf_run(
    e,
    f,
    g,
    q_real,
    r_real,
    pi_real,
    measurements_real,
    init_mean=None,
) -> list[RealKFStep]:
    """Textbook real-valued Kalman filter on the composite dual-channel model.

    Written directly in real arithmetic with no shared code with the
    augmented filter, so the two can check each other. As that independent
    oracle it checks only dimensions: a non-finite or indefinite input is
    carried through, not rejected. The posterior covariance is in Joseph
    form, (I - K G) P (I - K G)^T + K R K^T. A singular innovation
    covariance gets its gain by least squares. The loop is the one
    :func:`real_kf_batch` runs on a stack of models.
    """
    dim = np.shape(e)[0]
    x = np.zeros(dim) if init_mean is None else np.asarray(init_mean, float).copy()
    p = np.asarray(pi_real, float).copy()
    return list(_real_kf(e, f, g, q_real, r_real, x, p, measurements_real))


def real_kf_batch(e, f, g, q_real, r_real, pi_real, measurements_real) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`real_kf_run` on a batch of composite models of one size, stacked along a leading axis.

    ``measurements_real`` has shape (batch, steps, 2m). Yields, at each
    step, the posterior means (batch, 2n) and covariances (batch, 2n, 2n).
    It runs ``real_kf_run``'s loop, and member i equals ``real_kf_run`` on
    the i-th slices bit for bit.
    """
    p = np.asarray(pi_real, float).copy()
    x = np.zeros(p.shape[:-1])
    for step in _real_kf(e, f, g, q_real, r_real, x, p, np.moveaxis(np.asarray(measurements_real), -2, 0)):
        yield step.mean, step.cov


def _zero_mean(m1: np.ndarray, m2: np.ndarray) -> SecondOrderStats:
    """Zero-mean statistics with covariance blocks (M1, M2); leading axes are batch axes."""
    return SecondOrderStats(np.zeros(m1.shape[:-1]), m1, m2)


def simulate_linear(model: WidelyLinearModel, horizon: int, rng: np.random.Generator):
    """Draw a state/measurement trajectory obeying the model.

    Returns (states, measurements) with states of shape (horizon + 1, n)
    covering t = 0..horizon and measurements of shape (horizon, m) for
    t = 1..horizon, aligned with what the default filter run consumes.
    ``rng`` draws the initial state, then the driving noise, then the
    measurement noise. It is :func:`simulate_linear_batch` on a batch of one.
    """
    states, measurements = simulate_linear_batch([model], horizon, [rng])
    return states[0], measurements[0]


def simulate_linear_batch(models, horizon: int, rngs):
    """:func:`simulate_linear` on a batch of models of one size, model i drawing from ``rngs[i]``.

    Returns states of shape (batch, horizon + 1, n) and measurements of
    shape (batch, horizon, m). Each model's statistics are factored in one
    call per noise for the whole batch, the recursion runs once over the
    stack, and member i has the bits of the batch of one,
    ``simulate_linear(models[i], horizon, rngs[i])``. Only the state map's
    terms are recursive: the noise terms and the measurements are formed
    for every step at once, each matvec the BLAS call a single step makes,
    and added in the order of x_t = A1 x + A2 x* + B1 w + B2 w* and
    y_t = C1 x_t + C2 x_t* + n.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    _check_one_size(models)

    def blocks(name):
        return tuple(np.stack([getattr(getattr(model, name), part) for model in models]) for part in ("m1", "m2"))

    x0 = sample_batch(_zero_mean(*blocks("Pi0")), 1, rngs)[:, 0]
    # The noise at t = 1..horizon, time first, as the recursion runs.
    ws = np.moveaxis(sample_batch(_zero_mean(*blocks("Q")), horizon, rngs), 1, 0)
    ns = np.moveaxis(sample_batch(_zero_mean(*blocks("R")), horizon, rngs), 1, 0)
    (a1, a2), (b1, b2), (c1, c2) = blocks("A"), blocks("B"), blocks("C")
    drive_1, drive_2 = _matvec(b1, ws), _matvec(b2, np.conj(ws))
    states = np.empty((horizon + 1, *x0.shape), complex)
    states[0] = x0
    for t in range(1, horizon + 1):
        prev = states[t - 1]
        states[t] = _matvec(a1, prev) + _matvec(a2, np.conj(prev)) + drive_1[t - 1] + drive_2[t - 1]
    measurements = _matvec(c1, states[1:]) + _matvec(c2, np.conj(states[1:])) + ns
    return np.moveaxis(states, 0, 1), np.moveaxis(measurements, 0, 1)
