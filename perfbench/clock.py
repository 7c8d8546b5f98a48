"""A calibrated clock for a shared machine whose speed drifts.

On a small shared VM the host's speed swings by up to 2x over minutes, and
every layer of a run slows together. Each timed section is therefore
bracketed by a fixed calibration kernel, and its wall time is rescaled by
how long the kernel took, relative to a reference time:

    calibrated_s = wall_s * reference_s / kernel_s

where kernel_s averages the kernel bursts just before and just after the
section. The kernel does a dgfm iteration's kind of work at the workload's
shapes using numpy alone (a counter-based stream built per draw, a sphere
direction, a probe, a sparse-row gather, the capped-L1 penalty and, once per
m draws, an (m, m) x (m, d) product), so a change to the ``dgfm`` package
never changes it and shows in full.
"""

import time

import numpy as np

DRAWS = 1200


class Clock:
    """Kernel bursts between timed sections; ``reference_s`` is the burst's
    wall time at the reference speed, so calibrated seconds are seconds on a
    machine running at that speed."""

    def __init__(self, d, m, nnz, reference_s):
        self.reference_s = reference_s
        rng = np.random.default_rng(0)
        self._x = 0.01 * rng.standard_normal(d)
        self._cols = np.sort(rng.choice(d, size=min(int(round(nnz)), d), replace=False))
        self._vals = np.ones(self._cols.shape[0])
        self._weights = np.full((m, m), 1.0 / m)
        self._stack = rng.standard_normal((m, d))
        self._m = m
        self.kernel_s = [self.kernel()]

    def kernel(self):
        """Wall time of one fixed calibration burst."""
        x, acc = self._x, 0.0
        t0 = time.perf_counter()
        for i in range(DRAWS):
            g = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, i])))
            w = g.standard_normal(x.shape[0])
            w /= np.linalg.norm(w)
            p = x + 1e-3 * w
            acc += max(1.0 - float(np.dot(self._vals, p[self._cols])), 0.0)
            acc += float(np.minimum(np.abs(p), 2.0).sum())
            if i % self._m == 0:
                acc += float((self._weights @ self._stack)[0, 0])
        return time.perf_counter() - t0

    def factor(self):
        """Calibrated over wall seconds for the section that ended just now.

        Runs the next kernel burst, which also opens the next section.
        """
        before, after = self.kernel_s[-1], self.kernel()
        self.kernel_s.append(after)
        return self.reference_s / (0.5 * (before + after))
