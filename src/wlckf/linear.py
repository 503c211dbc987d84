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

The measurement update is :func:`wl_update`, shared with the unscented
filter: given the predicted measurement, the cross covariance P_xy and the
innovation covariance S, it forms the widely linear gain K S = P_xy and the
posterior covariance P - K P_xy^H.

Conventions: the innovation is measurement minus prediction, the run
starts from a posterior at t = 0 (zero mean, initial covariance), and each
measurement triggers predict-then-update. Passing ``initial_update=True``
instead applies the first measurement to the initial state at t = 0
before any prediction, for models whose measurements start at time zero.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .augmented import (
    AugmentedMatrix,
    AugmentedVector,
    real_matrix_to_augmented,
    solve_right,
)
from .errors import DimensionError, UnsupportedModelError
from .stats import SecondOrderStats, sample


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


def wlckf_predict(state: FilterState, model: WidelyLinearModel) -> FilterState:
    """Time update: propagate estimate and covariance through the state map."""
    if state.estimate.n != model.n:
        raise DimensionError("state dimension does not match the model")
    est = model.A @ state.estimate
    cov = model.A @ state.cov @ model.A.conj_t() + model.B @ model.Q @ model.B.conj_t()
    return FilterState(est, cov.symmetrized(), state.t + 1)


def wl_update(predicted: FilterState, y, y_pred, cross: AugmentedMatrix, s_cov: AugmentedMatrix) -> StepReport:
    """Widely linear measurement update shared by the linear and unscented filters.

    ``y_pred`` is the predicted measurement, ``cross`` the augmented
    state/measurement cross covariance P_xy and ``s_cov`` the augmented
    innovation covariance S. The gain solves K S = P_xy (least squares when
    S is singular, flagged on the report) and the posterior covariance is
    P - K P_xy^H, symmetrized.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != y_pred.shape:
        raise DimensionError("measurement dimension does not match the model")
    gain, singular = solve_right(cross, s_cov)
    innovation = AugmentedVector.from_complex(y - y_pred)
    estimate = predicted.estimate + gain @ innovation
    cov = (predicted.cov - gain @ cross.conj_t()).symmetrized()
    return StepReport(
        predicted=predicted,
        innovation=innovation,
        innovation_cov=s_cov,
        gain=gain,
        state=FilterState(estimate, cov, predicted.t),
        singular_innovation=singular,
    )


def wlckf_update(predicted: FilterState, y, model: WidelyLinearModel) -> StepReport:
    """Measurement update in the augmented domain.

    The cross covariance is P C^H and the innovation covariance
    C P C^H + R; :func:`wl_update` forms the gain and the posterior
    P - K (P C^H)^H = (I - K C) P. A singular innovation covariance
    (maximally improper measurements) is handled by a least-squares solve
    and flagged on the report.
    """
    cross = predicted.cov @ model.C.conj_t()
    s_cov = (model.C @ predicted.cov @ model.C.conj_t() + model.R).symmetrized()
    return wl_update(predicted, y, (model.C @ predicted.estimate).top, cross, s_cov)


def default_init(model: WidelyLinearModel) -> FilterState:
    return FilterState(
        AugmentedVector.from_complex(np.zeros(model.n, complex)),
        model.Pi0,
        t=0,
    )


def wlckf_run(
    model: WidelyLinearModel,
    measurements,
    init: FilterState | None = None,
    initial_update: bool = False,
) -> list[StepReport]:
    """Run the widely linear filter over a measurement sequence.

    ``measurements[k]`` is the measurement at time ``t0 + k + 1`` by
    default; with ``initial_update`` the first one is absorbed into the
    initial state at ``t0`` by an update-only step.
    """
    state = init if init is not None else default_init(model)
    reports: list[StepReport] = []
    for k, y in enumerate(measurements):
        if k == 0 and initial_update:
            predicted = state
        else:
            predicted = wlckf_predict(state, model)
        report = wlckf_update(predicted, y, model)
        reports.append(report)
        state = report.state
    return reports


def ckf_run(
    model: WidelyLinearModel,
    measurements,
    init: FilterState | None = None,
    initial_update: bool = False,
) -> list[StepReport]:
    """Strictly linear complex KF: the widely linear filter on the model's proper part.

    Rejects models with nonzero conjugate blocks, where strictly linear
    filtering is undefined. Complementary covariances of the model and of
    ``init`` are ignored.
    """
    if not model.is_strictly_linear():
        raise UnsupportedModelError("strictly linear filtering needs zero conjugate blocks A2, B2, C2")
    if init is not None:
        init = replace(init, cov=_hermitian_part(init.cov))
    return wlckf_run(model.proper_part(), measurements, init, initial_update)


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


def real_kf_run(
    e,
    f,
    g,
    q_real,
    r_real,
    pi_real,
    measurements_real,
    init_mean=None,
    init_cov=None,
    initial_update: bool = False,
) -> list[RealKFStep]:
    """Textbook real-valued Kalman filter on the composite dual-channel model.

    Written directly in real arithmetic with no shared code with the
    augmented filter, so the two can check each other.
    """
    e = np.asarray(e, float)
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    q = np.asarray(q_real, float)
    r = np.asarray(r_real, float)
    dim = e.shape[0]
    if e.shape != (dim, dim) or g.shape[1] != dim or f.shape[0] != dim:
        raise DimensionError("inconsistent composite model dimensions")
    x = np.zeros(dim) if init_mean is None else np.asarray(init_mean, float).copy()
    p = np.asarray(pi_real, float).copy() if init_cov is None else np.asarray(init_cov, float).copy()
    t = 0
    steps: list[RealKFStep] = []
    for k, psi in enumerate(measurements_real):
        psi = np.asarray(psi, float)
        if not (k == 0 and initial_update):
            x = e @ x
            p = e @ p @ e.T + f @ q @ f.T
            p = (p + p.T) / 2
            t += 1
        x_pred, p_pred = x.copy(), p.copy()
        s = g @ p @ g.T + r
        s = (s + s.T) / 2
        sv = np.linalg.svd(s, compute_uv=False)
        if sv[0] == 0 or sv[-1] <= 1e-12 * sv[0]:
            kt, *_ = np.linalg.lstsq(s.T, (p @ g.T).T, rcond=None)
            gain = kt.T
        else:
            gain = np.linalg.solve(s.T, (p @ g.T).T).T
        nu = psi - g @ x
        x = x + gain @ nu
        p = p - gain @ g @ p
        p = (p + p.T) / 2
        steps.append(RealKFStep(x_pred, p_pred, nu, s, gain, x.copy(), p.copy(), t))
    return steps


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
    """
    if horizon < 1:
        raise DimensionError("horizon must be >= 1")
    n, m = model.n, model.m
    nw = model.B.block_shape[1]
    w_stats = SecondOrderStats(np.zeros(nw), model.Q.m1, model.Q.m2)
    n_stats = SecondOrderStats(np.zeros(m), model.R.m1, model.R.m2)
    if x0 is None:
        x0_stats = SecondOrderStats(np.zeros(n), model.Pi0.m1, model.Pi0.m2)
        x0 = sample(x0_stats, 1, rng)[0]
    else:
        x0 = np.asarray(x0, dtype=complex)
    ws = sample(w_stats, horizon, rng)
    ns = sample(n_stats, horizon, rng)
    a1, a2 = model.A.m1, model.A.m2
    b1, b2 = model.B.m1, model.B.m2
    c1, c2 = model.C.m1, model.C.m2
    states = np.empty((horizon + 1, n), complex)
    measurements = np.empty((horizon, m), complex)
    states[0] = x0
    for t in range(1, horizon + 1):
        prev = states[t - 1]
        w = ws[t - 1]
        states[t] = a1 @ prev + a2 @ np.conj(prev) + b1 @ w + b2 @ np.conj(w)
        measurements[t - 1] = c1 @ states[t] + c2 @ np.conj(states[t]) + ns[t - 1]
    return states, measurements


# --- model (de)serialization -------------------------------------------------

def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]


def _decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def model_to_dict(model: WidelyLinearModel) -> dict:
    """JSON-ready dict with complex entries as [re, im] pairs, row-major."""
    return {
        "n": model.n,
        "m": model.m,
        "A1": _encode_matrix(model.A.m1),
        "A2": _encode_matrix(model.A.m2),
        "B1": _encode_matrix(model.B.m1),
        "B2": _encode_matrix(model.B.m2),
        "C1": _encode_matrix(model.C.m1),
        "C2": _encode_matrix(model.C.m2),
        "Q": _encode_matrix(model.Q.m1),
        "Qtilde": _encode_matrix(model.Q.m2),
        "R": _encode_matrix(model.R.m1),
        "Rtilde": _encode_matrix(model.R.m2),
        "Pi0": _encode_matrix(model.Pi0.m1),
        "Pi0tilde": _encode_matrix(model.Pi0.m2),
    }


def model_from_dict(data: dict) -> WidelyLinearModel:
    model = WidelyLinearModel(
        A=AugmentedMatrix(_decode_matrix(data["A1"]), _decode_matrix(data["A2"])),
        B=AugmentedMatrix(_decode_matrix(data["B1"]), _decode_matrix(data["B2"])),
        C=AugmentedMatrix(_decode_matrix(data["C1"]), _decode_matrix(data["C2"])),
        Q=AugmentedMatrix(_decode_matrix(data["Q"]), _decode_matrix(data["Qtilde"])),
        R=AugmentedMatrix(_decode_matrix(data["R"]), _decode_matrix(data["Rtilde"])),
        Pi0=AugmentedMatrix(_decode_matrix(data["Pi0"]), _decode_matrix(data["Pi0tilde"])),
    )
    if model.n != int(data["n"]) or model.m != int(data["m"]):
        raise DimensionError("declared dimensions do not match the matrices")
    return model


def save_model(model: WidelyLinearModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2)


def load_model(path) -> WidelyLinearModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
