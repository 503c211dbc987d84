#!/usr/bin/env python3
"""Minimal walkthrough: one random dual-channel model, two filters.

Builds a coupled two-channel real model, lifts it to the widely linear
complex form, runs the widely linear filter on complex measurements and
the textbook real filter on the stacked channels, and prints how far the
two trajectories are apart (they agree to rounding), the tracking error
and the final posterior covariance trace. The strictly linear filter is
not run: the coupled model has nonzero conjugate blocks, where it is
undefined.
"""
import numpy as np

from wlckf import (
    augmented_to_real,
    augmented_to_real_matrix,
    model_from_real,
    real_kf_run,
    simulate_linear,
    wlckf_run,
)
from wlckf.stats import substream

rng = substream(2024)
n = m = 2
e = rng.standard_normal((2 * n, 2 * n))
e *= 0.9 / max(abs(np.linalg.eigvals(e)))
f = rng.standard_normal((2 * n, 2 * n))
g = rng.standard_normal((2 * m, 2 * n))


def cov(k):
    a = rng.standard_normal((2 * k, 2 * k))
    return a @ a.T / (2 * k) + 0.1 * np.eye(2 * k)


q, r, pi = cov(n), cov(m), cov(n)
model = model_from_real(e, f, g, q, r, pi)
states, measurements = simulate_linear(model, 200, substream(2024, 1))

wl = wlckf_run(model, measurements)
real_steps = real_kf_run(e, f, g, q, r, pi, [np.concatenate([y.real, y.imag]) for y in measurements])

worst = 0.0
for rep, ref in zip(wl, real_steps):
    worst = max(
        worst,
        float(np.max(np.abs(augmented_to_real(rep.state.estimate) - ref.mean))),
        float(np.max(np.abs(augmented_to_real_matrix(rep.state.cov, "covariance") - ref.cov))),
    )
print(f"widely linear vs dual-channel real filter, 200 steps: max deviation {worst:.3e}")

err = np.array([np.linalg.norm(rep.state.estimate.top - x) for rep, x in zip(wl, states[1:])])
print(f"mean tracking error of the widely linear filter: {err.mean():.4f}")
print(f"final posterior Hermitian covariance trace: {np.trace(wl[-1].state.cov.m1).real:.4f}")
