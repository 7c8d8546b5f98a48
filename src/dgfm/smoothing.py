"""Two-point randomized-smoothing gradient estimators.

The only oracle available anywhere in this package is a function value
f(x; xi). The estimator here probes it at x + delta*w and x - delta*w along
a direction w drawn uniformly from the unit sphere and rescales the
difference:

    g = (d / (2 delta)) * (f(x + delta*w; xi) - f(x - delta*w; xi)) * w.

Its expectation over (w, xi) is the gradient of the smoothed surrogate
f_delta(x) = E_w[f(x + delta*w)], which is what the optimizers actually
descend; its second moment is bounded by ``sigma_squared(d, L_f)`` for an
L_f-Lipschitz objective. Mini-batches average independent pairs, and the
variance-reduced methods difference two estimates that share the *same*
batch, which this module makes structurally impossible to get wrong: a
:class:`SampleBatch` is sampled once and applied to both points.

Both probes of one pair always share the same sample index xi; only the
sign of the perturbation differs. `sample_batch` is the one sampler of
pairs: the optimizers draw from an agent's shard, and the stationarity
proxy in :mod:`dgfm.metrics` draws from the whole objective.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParameter, ShapeError

__all__ = [
    "OracleCounter",
    "SampleBatch",
    "SmoothingParams",
    "minibatch_estimate",
    "sample_batch",
    "sample_sphere",
    "sigma_squared",
    "spider_difference",
    "surrogate_smoothness",
    "two_point_estimate",
]

UNIT_NORM_TOL = 1e-12


@dataclass
class OracleCounter:
    """Running count of zeroth-order oracle evaluations."""

    count: int = 0

    def add(self, n):
        self.count += n


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing radius delta (> 0, same units as x) and dimension d."""

    delta: float
    dim: int

    def __post_init__(self):
        if not self.delta > 0.0:
            # No limiting finite-difference fallback: delta = 0 is rejected.
            raise InvalidParameter(f"smoothing radius must be positive, got {self.delta}")
        if self.dim < 1:
            raise InvalidParameter(f"dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class SampleBatch:
    """Paired sample indices and unit directions, applied together.

    Attributes
    ----------
    xis : ndarray, shape (b,)
        Sample indices, one per pair.
    ws : ndarray, shape (b, d)
        Unit-norm directions, one row per pair.
    """

    xis: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        xis = np.asarray(self.xis)
        ws = np.asarray(self.ws, dtype=float)
        if xis.ndim != 1 or ws.ndim != 2 or xis.shape[0] != ws.shape[0]:
            raise ShapeError(
                f"batch needs xis (b,) and ws (b, d), got {xis.shape} and {ws.shape}"
            )
        if xis.shape[0] == 0:
            raise EmptyBatch("batch must contain at least one (sample, direction) pair")
        norms = np.linalg.norm(ws, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > UNIT_NORM_TOL:
            raise InvalidParameter(f"directions must be unit norm, worst error {worst:.3e}")
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "ws", ws)

    @property
    def size(self):
        return self.xis.shape[0]


def sample_sphere(d, rng):
    """Uniform draw from the unit sphere in R^d (normalized Gaussian)."""
    if d < 1:
        raise ShapeError(f"dimension must be >= 1, got {d}")
    while True:
        w = rng.standard_normal(d)
        norm = np.linalg.norm(w)
        if norm > 0.0:  # zero draw has probability 0 but would divide by 0
            return w / norm


def sample_batch(indices, b, d, rng):
    """Draw b (xi, w) pairs, xi uniform over ``indices``, w uniform on the sphere.

    Draws are interleaved pair by pair (index then direction), so a batch of
    size 1 consumes the stream exactly like a single-pair sampler. This is
    what makes the single-agent/centralized degenerations bit-identical.
    """
    if b < 1:
        raise EmptyBatch(f"batch size must be >= 1, got {b}")
    indices = np.asarray(indices)
    xis = np.empty(b, dtype=indices.dtype)
    ws = np.empty((b, d))
    for j in range(b):
        xis[j] = indices[rng.integers(indices.shape[0])]
        ws[j] = sample_sphere(d, rng)
    return SampleBatch(xis=xis, ws=ws)


def two_point_estimate(obj, x, params, w, xi, counter=None):
    """Single-pair estimator (d / 2 delta) (f(x+delta w; xi) - f(x-delta w; xi)) w.

    Costs exactly two oracle evaluations; ``counter`` (if given) is
    incremented by 2. Both evaluations share the same sample index xi.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (params.dim,):
        raise ShapeError(f"x must have shape ({params.dim},), got {x.shape}")
    delta = params.delta
    diff = obj.eval(x + delta * w, xi) - obj.eval(x - delta * w, xi)
    if counter is not None:
        counter.add(2)
    return (params.dim / (2.0 * delta)) * diff * w


def minibatch_estimate(obj, x, params, batch, counter=None):
    """Arithmetic mean of `two_point_estimate` over the batch (2b oracle calls)."""
    acc = two_point_estimate(obj, x, params, batch.ws[0], batch.xis[0], counter)
    for j in range(1, batch.size):
        acc += two_point_estimate(obj, x, params, batch.ws[j], batch.xis[j], counter)
    return acc / batch.size


def spider_difference(obj, x_new, x_old, params, batch, counter=None):
    """Paired difference g(x_new; S) - g(x_old; S) with the identical batch S.

    Both estimates reuse the same (xi, w) pairs; sharing the directions as
    well as the indices is what keeps the mean-square smoothness of the
    difference at the (d L_f / delta)^2 ||x_new - x_old||^2 scale. Costs 4b
    oracle calls. Returns exactly zero when x_new is x_old.
    """
    x_new = np.asarray(x_new, dtype=float)
    x_old = np.asarray(x_old, dtype=float)
    if x_new.shape != x_old.shape:
        raise ShapeError(f"point shapes differ: {x_new.shape} vs {x_old.shape}")
    return minibatch_estimate(obj, x_new, params, batch, counter) - minibatch_estimate(
        obj, x_old, params, batch, counter
    )


def sigma_squared(d, lipschitz):
    """Second-moment bound 16 sqrt(2 pi) d L_f^2 of the single-pair estimator."""
    if d < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {d}")
    if not lipschitz > 0.0:
        raise InvalidParameter(f"Lipschitz constant must be positive, got {lipschitz}")
    return 16.0 * math.sqrt(2.0 * math.pi) * d * lipschitz**2


def surrogate_smoothness(d, lipschitz, delta, c=1.0):
    """Smoothness constant c L_f sqrt(d) / delta of the smoothed surrogate.

    The leading constant c is not pinned down by theory; it defaults to 1
    and is exposed because the parameter prescriptions take it as input.
    """
    if d < 1 or not lipschitz > 0.0 or not delta > 0.0 or not c > 0.0:
        raise InvalidParameter(
            f"need d >= 1 and positive lipschitz/delta/c, got {(d, lipschitz, delta, c)}"
        )
    return c * lipschitz * math.sqrt(d) / delta
