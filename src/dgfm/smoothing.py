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
sign of the perturbation differs. `sample_batches` is the one sampler of
pairs: it draws every agent's pairs of one iteration from one stream, all
sample indices in one call and then all directions, so agent i's pairs
are row i of that draw. `sample_batch` is its one-shard case, with which
the stationarity proxy in :mod:`dgfm.metrics` draws from the whole
objective.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParameter, ShapeError

__all__ = [
    "SampleBatch",
    "SmoothingParams",
    "minibatch_estimate",
    "require_unit_norm",
    "sample_batch",
    "sample_batches",
    "sample_sphere",
    "sigma_squared",
    "spider_difference",
    "surrogate_smoothness",
    "two_point_estimate",
]

UNIT_NORM_TOL = 1e-12


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
        require_unit_norm(ws)
        object.__setattr__(self, "xis", xis)
        object.__setattr__(self, "ws", ws)

    @classmethod
    def _of_checked(cls, xis, ws):
        """A batch whose directions `require_unit_norm` has already passed in bulk."""
        batch = object.__new__(cls)
        object.__setattr__(batch, "xis", xis)
        object.__setattr__(batch, "ws", ws)
        return batch

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


def _norms(ws):
    # Euclidean norms along the last axis, without a temporary the size of ws
    return np.sqrt(np.einsum("...i,...i->...", ws, ws))


def require_unit_norm(ws):
    """Raise InvalidParameter unless every row along the last axis of ``ws`` has unit norm."""
    worst = float(np.abs(_norms(ws) - 1.0).max())
    if not worst <= UNIT_NORM_TOL:  # a NaN fails too
        raise InvalidParameter(f"directions must be unit norm, worst error {worst:.3e}")


def sample_batches(shards, b, d, rng):
    """Yield one batch of b (xi, w) pairs per shard, drawn in bulk from ``rng``.

    Agent i's xi are uniform over ``shards[i]`` and its w uniform on the
    unit sphere in R^d. All sample indices come first, in one (m, b) draw;
    then the directions, as one (m, b, d) standard normal block filled in
    agent-order chunks of c = max(1, m // b) agents. Each chunk is drawn
    only when its first batch is needed, normalized in place and checked
    once, so the live directions never exceed m * d entries, or one
    agent's b * d if that is more; the batches are row views of it. A
    numpy Generator fills arrays in order, so the chunking never changes
    the numbers: agent i's pairs are row i of the one draw.
    """
    if b < 1:
        raise EmptyBatch(f"batch size must be >= 1, got {b}")
    m = len(shards)
    sizes = [len(shard) for shard in shards]
    # equal bounds draw the same numbers as a scalar one, which is faster
    high = sizes[0] if min(sizes) == max(sizes) else np.array(sizes)[:, None]
    positions = rng.integers(0, high, size=(m, b))
    c = max(1, m // b)
    for start in range(0, m, c):
        ws = rng.standard_normal((min(c, m - start), b, d))
        ws /= _norms(ws)[..., None]
        require_unit_norm(ws)
        for i, agent_ws in enumerate(ws, start):
            yield SampleBatch._of_checked(np.asarray(shards[i])[positions[i]], agent_ws)
        del ws, agent_ws  # free this chunk before the next is drawn


def sample_batch(indices, b, d, rng):
    """Draw b (xi, w) pairs, xi uniform over ``indices``, w uniform on the sphere.

    The one-shard case of `sample_batches`: all b indices, then all b
    directions.
    """
    return next(sample_batches([indices], b, d, rng))


def two_point_estimate(obj, x, params, w, xi):
    """Single-pair estimator (d / 2 delta) (f(x+delta w; xi) - f(x-delta w; xi)) w.

    Costs exactly two oracle evaluations, which share the sample index xi.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (params.dim,):
        raise ShapeError(f"x must have shape ({params.dim},), got {x.shape}")
    delta = params.delta
    step = delta * w
    diff = obj.eval(x + step, xi) - obj.eval(x - step, xi)
    return (params.dim / (2.0 * delta)) * diff * w


def minibatch_estimate(obj, x, params, batch):
    """Arithmetic mean of `two_point_estimate` over the batch (2b oracle calls)."""
    acc = two_point_estimate(obj, x, params, batch.ws[0], batch.xis[0])
    for j in range(1, batch.size):
        acc += two_point_estimate(obj, x, params, batch.ws[j], batch.xis[j])
    return acc / batch.size


def spider_difference(obj, x_new, x_old, params, batch):
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
    return minibatch_estimate(obj, x_new, params, batch) - minibatch_estimate(
        obj, x_old, params, batch
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
