"""Machine-speed probe for normalizing timings on a shared, drifting machine.

On a machine shared with other tenants the speed of the same code drifts by
tens of percent over tens of seconds, so raw wall times of runs made minutes
apart are not comparable. The probe times a fixed kernel that does not use
wlckf on a timer while the workload runs. It mixes the three kinds of work
the package does: small dense products and solves in a Python loop, a
batched symmetric eigendecomposition, and complex elementwise arithmetic on
a (runs, points) array; phase-demod, whose work is batched over runs, gets
a kernel shaped like its batched step instead. Against recorded slowdowns of
the workloads' operations these tracked better than any single part. A time
measured while the kernel took ``k`` seconds is reported as
``raw * reference / k``: seconds at the reference speed, the speed at which
the kernel takes ``reference``. Raw times are reported beside them. In a
traced run the probe's time falls inside whichever span is open (about 1%).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25

# Bound at import, before a tracer replaces the numpy functions, so that the
# probe's own calls are never counted in a traced run.
_solve = np.linalg.solve
_eigh = np.linalg.eigh

_A = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
_B = _A.T + 6.0 * np.eye(6)
_M = np.linspace(-1.0, 1.0, 50 * 36).reshape(50, 6, 6)
_M = _M + _M.transpose(0, 2, 1) + 8.0 * np.eye(6)
_C = np.exp(1j * np.linspace(0.0, 1.0, 200 * 13)).reshape(200, 13)
_T = np.block([[np.eye(3), 1j * np.eye(3)], [np.eye(3), -1j * np.eye(3)]])
_F = np.zeros((200, 6, 6), complex)
_F[:, range(6), range(6)] = 1.0 + np.linspace(0.0, 1.0, 200)[:, None]
_X = np.linspace(0.1, 1.0, 200)


def mixed_kernel() -> None:
    """Small solves in a Python loop, batched eigh, complex elementwise work."""
    x = _A
    for _ in range(60):
        x = (_A @ x) * 0.1 + _B
        x = _solve(_B, x)
    for _ in range(3):
        _eigh(_M)
    c = _C
    for _ in range(10):
        c = c * np.conj(c) * 0.5 + np.exp(1j * c.real)


def batched_kernel() -> None:
    """The shape of a batched tracker step: 200 runs of 6x6 transforms and eigh."""
    x = _X
    for _ in range(4):
        composite = (0.25 * (_T.conj().T @ _F @ _T)).real
        w, v = _eigh(composite)
        points = v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
        z = points[:, :, 0] + 1j * points[:, :, 3]
        y = np.exp(1j * (0.98 * z)) + x[:, None]
        d = y - y.mean(axis=1)[:, None]
        x = np.real((d * np.conj(d)).sum(axis=1)) + _X


# Kernel per workload, and its time at the reference speed (a unit, close to
# the kernel's median on a 2-vCPU x86-64 sandbox).
KERNELS = {
    "phase-demod": (batched_kernel, 3.0e-3),
    "single-trajectory": (mixed_kernel, 3.0e-3),
    "mse-analysis": (mixed_kernel, 3.0e-3),
}


def sample(workload: str) -> float:
    kernel, _ = KERNELS[workload]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(workload: str, samples: list[float]) -> float:
    """Reference-speed seconds per raw second for these kernel samples."""
    return KERNELS[workload][1] / statistics.median(samples)


class Probe:
    """Samples the kernel every ``INTERVAL_S`` on SIGALRM while started.

    ``spent`` accumulates the time the handler took, so that callers can
    subtract it from the intervals they time.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample(self.workload))
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
