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
model's arrays (A, A^H, B Q B^H, C, C^H, R) are formed once per run, and
each step is one predict kernel and one update kernel. The measurement
update is :func:`wl_update`, shared with the unscented filter: given the
predicted measurement, the cross covariance P_xy and the innovation
covariance S, it forms the widely linear gain K S = P_xy and the estimate.
For a linear model the posterior covariance is the Joseph form
(I - K C) P (I - K C)^H + K R K^H, which stays positive semidefinite under
rounding; the unscented filter, which has no linear measurement map, keeps
P - K P_xy^H. ``real_kf_run`` uses the Joseph form too, in its own code.
Every covariance is symmetrized, and the reports hold the top block rows
of the arrays, so the block-conjugate pattern holds exactly.

Every kernel accepts leading batch axes. Each filter has one
predict/update loop, a generator over steps: ``wlckf_run`` runs it on one
model and builds step reports from it, and ``wlckf_batch`` runs it on
models of one size stacked along a batch axis and yields the posterior at
each step, as do ``ckf_batch`` and ``real_kf_batch``. A batch member gets
the same bits as its single run.

Conventions: the innovation is measurement minus prediction, the run
starts from a posterior at t = 0 (zero mean, initial covariance), and each
measurement triggers predict-then-update, so the first measurement is the
one at t = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import augmented
from .augmented import (
    AugmentedMatrix,
    AugmentedVector,
    block_conjugate,
    real_matrix_to_augmented,
)
# solve_right is called through the module: a batched update returns one
# flag per member, which bench/spans.py's tracer, rebinding this name,
# cannot read. The name stays bound here for the tracer.
from .augmented import solve_right  # noqa: F401
from .errors import DimensionError, UnsupportedModelError
from .stats import SecondOrderStats, sample, sample_batch


@dataclass
class WidelyLinearModel:
    """Augmented system matrices, noise covariances and initial covariance.

    ``A``, ``B``, ``C`` are the augmented state, noise-gain and measurement
    maps; ``Q``, ``R`` the augmented driving/measurement noise covariances;
    ``Pi0`` the initial augmented state covariance. Driving and
    measurement noise are uncorrelated.
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


@dataclass
class StepReport:
    """Everything one predict/update cycle produced."""

    predicted: FilterState
    innovation: AugmentedVector
    innovation_cov: AugmentedMatrix
    gain: AugmentedMatrix
    state: FilterState
    singular_innovation: bool = False


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
    return np.swapaxes(a.conj(), -1, -2)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for stacks of matrices and vectors; the same BLAS call per member as a 2-d @ 1-d product."""
    return (a @ x[..., None])[..., 0]


class _Maps(NamedTuple):
    """A linear model's full augmented arrays, formed once per run; leading axes are batch axes."""

    a: np.ndarray
    a_h: np.ndarray
    bqb_h: np.ndarray
    c: np.ndarray
    c_h: np.ndarray
    r: np.ndarray

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
        a, b, c = full("A"), full("B"), full("C")
        return cls(a, _h(a), b @ full("Q") @ _h(b), c, _h(c), full("R"))


def _covariance(top: np.ndarray) -> np.ndarray:
    """Full covariance from a computed top block row [M1, M2], symmetrized.

    The Hermitian part of the block-conjugate completion: M1 becomes
    (M1 + M1^H) / 2 and M2 becomes (M2 + M2^T) / 2, and the pattern holds.
    Leading axes are batch axes.
    """
    n = top.shape[-2]
    full = block_conjugate(top[..., :n], top[..., n:])
    return (full + _h(full)) / 2


def _blocks(top: np.ndarray) -> AugmentedMatrix:
    """Copies of the blocks of a top block row [M1, M2], so a report keeps no full array."""
    cols = top.shape[1] // 2
    return AugmentedMatrix(top[:, :cols].copy(), top[:, cols:].copy())


def _state(x: np.ndarray, p: np.ndarray, t: int) -> FilterState:
    """Filter state holding copies of the top half of x and the top block row of p."""
    n = x.shape[0] // 2
    return FilterState(AugmentedVector(x[:n].copy()), _blocks(p[:n]), t)


def _predict(x: np.ndarray, p: np.ndarray, maps: _Maps) -> tuple[np.ndarray, np.ndarray]:
    """Time update on full arrays: A x and A P A^H + B Q B^H, symmetrized."""
    n = x.shape[-1] // 2
    a_top = maps.a[..., :n, :]
    top = _matvec(a_top, x)
    cov = _covariance(a_top @ p @ maps.a_h + maps.bqb_h[..., :n, :])
    return np.concatenate([top, np.conj(top)], axis=-1), cov


def _update(x: np.ndarray, p: np.ndarray, y, maps: _Maps) -> "WLUpdate":
    """Measurement update on full arrays: P_xy = P C^H and S = C P C^H + R, then :func:`wl_update`."""
    m = maps.c.shape[-2] // 2
    c_top = maps.c[..., :m, :]
    # (C P) C^H, the association real_kf_run uses; C (P C^H) rounds apart
    # from it by more than the equivalence gate on one stiff-family model.
    s = _covariance(c_top @ p @ maps.c_h + maps.r[..., :m, :])
    return wl_update(x, p, y, _matvec(c_top, x), p @ maps.c_h, s, joseph=(maps.c, maps.r))


class WLUpdate(NamedTuple):
    """The arrays of one widely linear measurement update (leading axes are batch axes).

    ``x``, ``p``: predicted estimate and covariance; ``innovation``: the
    top half of the augmented innovation; ``s``: innovation covariance;
    ``gain``: top block row of the gain; ``x_post``, ``p_post``: posterior;
    ``singular``: whether the gain took the least-squares fallback.
    """

    x: np.ndarray
    p: np.ndarray
    innovation: np.ndarray
    s: np.ndarray
    gain: np.ndarray
    x_post: np.ndarray
    p_post: np.ndarray
    singular: np.ndarray

    def report(self, t: int) -> StepReport:
        """The step report of an unbatched update at time ``t``.

        It holds copies of the top block rows of the arrays, so the
        block-conjugate pattern holds exactly.
        """
        m = self.innovation.shape[0]
        return StepReport(
            predicted=_state(self.x, self.p, t),
            innovation=AugmentedVector(self.innovation),
            innovation_cov=_blocks(self.s[:m]),
            gain=_blocks(self.gain),
            state=_state(self.x_post, self.p_post, t),
            singular_innovation=bool(self.singular),
        )


def wl_update(
    x: np.ndarray,
    p: np.ndarray,
    y,
    y_pred: np.ndarray,
    cross: np.ndarray,
    s: np.ndarray,
    joseph: tuple[np.ndarray, np.ndarray] | None = None,
) -> WLUpdate:
    """Widely linear measurement update shared by the linear and unscented filters.

    Works on full augmented arrays: ``x`` and ``p`` are the predicted
    estimate [x; x*] and covariance, ``y_pred`` the predicted
    measurement, ``cross`` the state/measurement cross covariance P_xy and
    ``s`` the innovation covariance S. The gain solves K S = P_xy for the
    top block row of K (least squares when S is singular, flagged),
    which :func:`wlckf.augmented.block_conjugate` completes. With
    ``joseph = (C, R)``, the measurement map and noise of a linear model,
    the posterior covariance is the Joseph form
    (I - K C) P (I - K C)^H + K R K^H, which stays positive semidefinite
    under rounding; without it (the unscented filter, whose measurement map
    is not linear) it is P - K P_xy^H. Either is symmetrized.

    Leading axes of every array are batch axes: a batch of models runs
    through the same arithmetic, and each member gets the bits it would
    get alone. Returns the arrays only; :meth:`WLUpdate.report` builds the
    step report of an unbatched update.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != y_pred.shape:
        raise DimensionError("measurement dimension does not match the model")
    n, m = x.shape[-1] // 2, y.shape[-1]
    gain, singular = augmented.solve_right(cross[..., :n, :], s)
    k = block_conjugate(gain[..., :m], gain[..., m:])
    k_top = k[..., :n, :]
    innovation = y - y_pred
    top = x[..., :n] + _matvec(k_top, np.concatenate([innovation, np.conj(innovation)], axis=-1))
    if joseph is None:
        cov_top = p[..., :n, :] - k_top @ _h(cross)
    else:
        c, r = joseph
        i_kc = np.eye(2 * n) - k @ c
        cov_top = i_kc[..., :n, :] @ p @ _h(i_kc) + k_top @ r @ _h(k)
    x_post = np.concatenate([top, np.conj(top)], axis=-1)
    return WLUpdate(x, p, innovation, s, k_top, x_post, _covariance(cov_top), singular)


def default_init(model: WidelyLinearModel) -> FilterState:
    return FilterState(
        AugmentedVector(np.zeros(model.n, complex)),
        model.Pi0,
        t=0,
    )


def _wl_filter(maps: _Maps, x: np.ndarray, p: np.ndarray, measurements) -> Iterator[WLUpdate]:
    """The widely linear filter's predict/update loop; yields every step's update.

    ``measurements`` iterates over steps; each item, like ``x`` and ``p``,
    may carry leading batch axes, which the arithmetic keeps.
    """
    for y in measurements:
        x, p = _predict(x, p, maps)
        update = _update(x, p, y, maps)
        yield update
        x, p = update.x_post, update.p_post


def wlckf_run(model: WidelyLinearModel, measurements, init: FilterState | None = None) -> list[StepReport]:
    """Run the widely linear filter over a measurement sequence.

    ``measurements[k]`` is the measurement at time ``t0 + k + 1``, where
    ``t0`` is the time of ``init`` (0 by default): each is preceded by a
    prediction.
    """
    state = init if init is not None else default_init(model)
    if state.estimate.n != model.n:
        raise DimensionError("state dimension does not match the model")
    steps = _wl_filter(_Maps.of(model), state.estimate.full(), state.cov.full(), measurements)
    return [update.report(state.t + 1 + k) for k, update in enumerate(steps)]


def wlckf_batch(models, measurements) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The widely linear filter on a batch of models of one size, from their default initial states.

    ``measurements`` has shape (batch, steps, m): row i is the sequence
    ``wlckf_run`` would take for ``models[i]``. Yields, at each step, the
    posterior estimates [x; x*] of shape (batch, 2n) and covariances of
    shape (batch, 2n, 2n). It runs ``wlckf_run``'s loop, and member i
    equals ``wlckf_run(models[i], measurements[i])`` bit for bit.
    """
    maps = _Maps.stack(models)
    x = np.zeros((len(models), 2 * models[0].n), complex)
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

    Every model must be strictly linear.
    """
    for model in models:
        _check_strictly_linear(model)
    return wlckf_batch([model.proper_part() for model in models], measurements)


@dataclass
class RealKFStep:
    """One cycle of the dual-channel real Kalman filter."""

    predicted_mean: np.ndarray
    predicted_cov: np.ndarray
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
    alone; the others share one LU solve.
    """

    def tr(a):
        return np.swapaxes(a, -1, -2)

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
        x_pred, p_pred = x, p
        s = g @ p @ tr(g) + r
        s = (s + tr(s)) / 2
        sv = np.linalg.svd(s, compute_uv=False)
        singular = (sv[..., 0] == 0) | (sv[..., -1] <= 1e-12 * sv[..., 0])
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
        yield RealKFStep(x_pred, p_pred, nu, s, gain, x, p, t)


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
    augmented filter, so the two can check each other. The posterior
    covariance is in Joseph form, (I - K G) P (I - K G)^T + K R K^T. A
    singular innovation covariance gets its gain by least squares. The
    loop is the one :func:`real_kf_batch` runs on a stack of models.
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


def _trajectory(a, b, c, x0: np.ndarray, ws: np.ndarray, ns: np.ndarray):
    """The state/measurement recursion on drawn noise; time is the first axis of the results.

    ``a``, ``b`` and ``c`` are the (M1, M2) block pairs of the state, noise
    gain and measurement maps. ``ws`` and ``ns`` hold the noise at t =
    1..horizon along their first axis. Leading axes of the blocks and of
    ``x0``, and the axes after time of the noise, are batch axes. Only the
    state map's terms are recursive: the noise terms and the measurements
    are formed for every step at once, each matvec the BLAS call a single
    step makes, and added in the order of x_t = A1 x + A2 x* + B1 w + B2 w*
    and y_t = C1 x_t + C2 x_t* + n.
    """
    (a1, a2), (b1, b2), (c1, c2) = a, b, c
    drive_1, drive_2 = _matvec(b1, ws), _matvec(b2, np.conj(ws))
    states = np.empty((len(ws) + 1, *x0.shape), complex)
    states[0] = x0
    for t in range(1, len(ws) + 1):
        prev = states[t - 1]
        states[t] = _matvec(a1, prev) + _matvec(a2, np.conj(prev)) + drive_1[t - 1] + drive_2[t - 1]
    return states, _matvec(c1, states[1:]) + _matvec(c2, np.conj(states[1:])) + ns


def _zero_mean(m1: np.ndarray, m2: np.ndarray) -> SecondOrderStats:
    """Zero-mean statistics with covariance blocks (M1, M2); leading axes are batch axes."""
    return SecondOrderStats(np.zeros(m1.shape[:-1]), m1, m2)


def simulate_linear(
    model: WidelyLinearModel,
    horizon: int,
    rng: np.random.Generator,
    x0=None,
):
    """Draw a state/measurement trajectory obeying the model.

    Returns (states, measurements) with states of shape (horizon + 1, n)
    covering t = 0..horizon and measurements of shape (horizon, m) for
    t = 1..horizon, aligned with what the default filter run consumes.
    ``rng`` draws the initial state (unless ``x0`` is given), then the
    driving noise, then the measurement noise. The recursion is the one
    :func:`simulate_linear_batch` runs on a stack of models.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    if x0 is None:
        x0 = sample(_zero_mean(model.Pi0.m1, model.Pi0.m2), 1, rng)[0]
    else:
        x0 = np.asarray(x0, dtype=complex)
    ws = sample(_zero_mean(model.Q.m1, model.Q.m2), horizon, rng)
    ns = sample(_zero_mean(model.R.m1, model.R.m2), horizon, rng)
    blocks = ((m.m1, m.m2) for m in (model.A, model.B, model.C))
    return _trajectory(*blocks, x0, ws, ns)


def simulate_linear_batch(models, horizon: int, rngs):
    """:func:`simulate_linear` on a batch of models of one size, model i drawing from ``rngs[i]``.

    Returns states of shape (batch, horizon + 1, n) and measurements of
    shape (batch, horizon, m). Each model's statistics are factored in one
    call per noise for the whole batch, the recursion runs once over the
    stack, and member i equals ``simulate_linear(models[i], horizon,
    rngs[i])`` bit for bit.
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    _check_one_size(models)

    def blocks(name):
        return tuple(np.stack([getattr(getattr(model, name), part) for model in models]) for part in ("m1", "m2"))

    x0 = sample_batch(_zero_mean(*blocks("Pi0")), 1, rngs)[:, 0]
    ws = sample_batch(_zero_mean(*blocks("Q")), horizon, rngs)
    ns = sample_batch(_zero_mean(*blocks("R")), horizon, rngs)
    states, measurements = _trajectory(
        blocks("A"), blocks("B"), blocks("C"), x0, np.moveaxis(ws, 1, 0), np.moveaxis(ns, 1, 0)
    )
    return np.moveaxis(states, 0, 1), np.moveaxis(measurements, 0, 1)
