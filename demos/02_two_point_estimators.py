"""Two-point gradient estimation from function values only.

The estimator probes f at x +- delta*w for a random unit direction w. Its
mean is the gradient of the smoothed surrogate f_delta, its second moment
is dimension-dependent, and mini-batching cuts the variance by 1/b. The
quadratic ||x||^2 is the reference case: sphere symmetry forces
f_delta(x) = ||x||^2 + delta^2 exactly, so the surrogate gradient is 2x.
"""

import numpy as np

from dgfm import (
    QuadraticTest,
    SmoothingParams,
    minibatch_estimate,
    sample_batch,
    sample_sphere,
    sigma_squared,
    substream,
    two_point_estimate,
)

d, delta = 5, 0.05
obj = QuadraticTest(dim=d)
params = SmoothingParams(delta=delta, dim=d)
x = np.array([1.0, 0.0, -0.5, 0.0, 2.0])
rng = substream(0, 0)

print("=== unbiasedness: Monte Carlo mean vs exact surrogate gradient ===")
for n in (100, 1_000, 10_000, 100_000):
    acc = np.zeros(d)
    for _ in range(n):
        acc += two_point_estimate(obj, x, params, sample_sphere(d, rng), 0)
    err = np.linalg.norm(acc / n - obj.smoothed_grad(x))
    print(f"n = {n:6d}: ||mean - 2x|| = {err:.4f}   (expect ~1/sqrt(n) decay)")

print("\n=== second moment grows linearly with dimension ===")
for dim in (1, 5, 28):
    p = SmoothingParams(delta=0.01, dim=dim)
    c = np.zeros(dim)
    c[0] = 1.0

    class Linear:
        n_samples = 1
        def eval(self, x, xi):
            return float(c @ x)

    total = 0.0
    n = 20_000
    for _ in range(n):
        g = two_point_estimate(Linear(), np.zeros(dim), p, sample_sphere(dim, rng), 0)
        total += float(g @ g)
    print(f"d = {dim:2d}: empirical E||g||^2 = {total / n:8.2f}   "
          f"bound = {sigma_squared(dim, 1.0):8.2f}")

print("\n=== mini-batch variance: 1/b ===")
reps = 1000
for b in (1, 4, 16, 64):
    total = 0.0
    for _ in range(reps):
        batch = sample_batch(np.arange(1), b, d, rng)
        g = minibatch_estimate(obj, x, params, batch)
        total += float(((g - obj.smoothed_grad(x)) ** 2).sum())
    print(f"b = {b:2d}: mean squared deviation = {total / reps:8.3f}")
