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
sign of the perturbation differs. `DrawLayout` is the one sampler of
pairs: built once from the shards, batch size and dimension, it draws
every agent's pairs of one iteration from one stream, so agent i's pairs
are row i of that draw. Its one-shard draw, `DrawLayout.batch`, serves the
stationarity proxy in :mod:`dgfm.metrics`, and `sample_batch` as a
`SampleBatch`. `estimate_block` is the one estimator; `minibatch_estimate`
is its one-agent case, and `two_point_estimate` its one-pair reference.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParameter, ShapeError, require_int, require_positive

__all__ = [
    "DrawLayout",
    "SampleBatch",
    "SmoothingParams",
    "estimate_block",
    "minibatch_estimate",
    "require_unit_norm",
    "sample_batch",
    "sample_sphere",
    "sigma_squared",
    "spider_difference",
    "surrogate_smoothness",
    "two_point_estimate",
]

UNIT_NORM_TOL = 1e-12
# Entries (float64) of one block of directions: 256 KiB. A step holds one
# block and the few probe arrays formed from it, so its transient memory is
# a small multiple of this whatever m, b and d; an unblocked (m, b, d) draw
# raised the peak RSS of a 64-agent, d = 2000 run by 17%. A block this size
# still holds all of an 8-agent draw at d = 123 in one piece.
BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SmoothingParams:
    """Smoothing radius delta (> 0, same units as x) and dimension d."""

    delta: float
    dim: int

    def __post_init__(self):
        # No limiting finite-difference fallback: delta = 0 is rejected.
        require_positive(delta=self.delta)
        object.__setattr__(self, "dim", require_int(1, dim=self.dim))


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
        # C order: a probe x + delta w is then a contiguous row, as in
        # `two_point_estimate`, whose value an objective may round by stride
        object.__setattr__(self, "ws", np.ascontiguousarray(ws))

    @property
    def size(self):
        return self.xis.shape[0]


def sample_sphere(d, rng):
    """Uniform draw from the unit sphere in R^d (normalized Gaussian)."""
    if d < 1:
        raise ShapeError(f"dimension must be >= 1, got {d}")
    while True:
        w = rng.standard_normal(d)
        # what np.linalg.norm computes for a 1-D float vector, without its wrapper
        norm = math.sqrt(w.dot(w))
        if norm > 0.0:  # zero draw has probability 0 but would divide by 0
            return w / norm


def _norms(ws):
    # Euclidean norms along the last axis, without a temporary the size of ws
    return np.sqrt(np.einsum("...i,...i->...", ws, ws))


def require_unit_norm(ws):
    """Raise InvalidParameter unless every row along the last axis of ``ws`` has unit norm."""
    worst = float(np.maximum.reduce(np.abs(_norms(ws) - 1.0), axis=None))
    if not worst <= UNIT_NORM_TOL:  # a NaN fails too
        raise InvalidParameter(f"directions must be unit norm, worst error {worst:.3e}")


class DrawLayout:
    """One draw of b (xi, w) pairs per shard, in blocks: the one sampler of pairs.

    Agent i's xi are uniform over ``shards[i]`` and its w uniform on the
    unit sphere in R^d. All sample indices come first, in one (m, b) draw;
    then the directions, as one (m, b, d) standard normal block filled in
    blocks of c = max(1, min(m, E // (b d))) whole agents, E =
    `BLOCK_ENTRIES`; an agent whose b d alone exceeds E is filled in
    sub-blocks of max(1, E // d) pairs. Each block is drawn only when it is
    needed, normalized in place and checked once by `require_unit_norm`.
    A numpy Generator fills arrays in order, so the blocking never changes
    the numbers: agent i's pairs are row i of the one draw.

    The blocks depend on (shards, b, d) alone, so a caller that draws from
    the same ones again builds the layout once and calls its ``draw``. It
    holds the ``integers`` bound of every shard (a scalar when they are
    all of one size, which draws the same numbers faster), the shards
    joined into one index array with each one's start in it, and the
    blocks: for each, the slices of agents and of pairs it covers, its
    shape and whether it is a lone row of a larger draw. ``shards`` is kept
    as given, so a cache can tell which shards a layout was built for. Its
    memory is the joined indices: one int per sample of the shards.

    ``b`` and ``d`` are integers and d >= 1 (`InvalidParameter`); a ``b``
    below 1, or an empty shard, raises `EmptyBatch`.
    """

    __slots__ = ("shards", "b", "d", "_high", "_indices", "_starts", "_blocks")

    def __init__(self, shards, b, d):
        if isinstance(b, numbers.Integral) and b < 1:
            raise EmptyBatch(f"batch size must be >= 1, got {b}")
        b, d = require_int(1, b=b, d=d)
        sizes = [len(shard) for shard in shards]
        if 0 in sizes:
            raise EmptyBatch(f"shard {sizes.index(0)} is empty: it has no sample to draw")
        self.shards, self.b, self.d = shards, b, d
        m = len(shards)
        self._high = sizes[0] if min(sizes) == max(sizes) else np.array(sizes)[:, None]
        self._indices = np.asarray(shards[0]) if m == 1 else np.concatenate(shards)
        self._starts = np.array([0, *itertools.accumulate(sizes[:-1])])[:, None]
        if b * d <= BLOCK_ENTRIES:
            c = min(m, BLOCK_ENTRIES // (b * d))
            spans = [(slice(i, min(i + c, m)), slice(0, b)) for i in range(0, m, c)]
        else:
            p = max(1, BLOCK_ENTRIES // d)
            spans = [(slice(i, i + 1), slice(j, min(j + p, b)))
                     for i in range(m) for j in range(0, b, p)]
        self._blocks = []
        for agents, pairs in spans:
            shape = (agents.stop - agents.start, pairs.stop - pairs.start, d)
            # einsum sums a lone row longer than its 8192-entry buffer in another
            # order than the rows of a larger array: norm a lone row of a larger
            # draw as one of two rows, as the whole draw would
            self._blocks.append((agents, pairs, shape, shape[:2] == (1, 1) and m * b > 1))

    def batch(self, rng):
        """A one-shard layout's draw as ``(xis, ws)``, shapes (b,) and (b, d), in pair order."""
        parts = [(xis[0], ws[0]) for _, _, xis, ws in self.draw(rng)]
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(p) for p in zip(*parts))

    def draw(self, rng):
        """Yield the blocks of one draw from ``rng``.

        Yields ``(agents, pairs, xis, ws)``: the slices of agents and of
        their pairs that the block covers, its sample indices, shape
        (rows, p), and its unit directions, shape (rows, p, d).
        """
        positions = rng.integers(0, self._high, size=(len(self.shards), self.b))
        positions += self._starts
        xis = self._indices[positions]
        for agents, pairs, shape, lone in self._blocks:
            ws = rng.standard_normal(shape)
            norms = _norms(np.concatenate((ws, ws), axis=1))[:, :1] if lone else _norms(ws)
            ws /= norms[..., None]
            require_unit_norm(ws)
            yield agents, pairs, xis[agents, pairs], ws


def sample_batch(indices, b, d, rng):
    """Draw b (xi, w) pairs, xi uniform over ``indices``, w uniform on the sphere.

    The one-shard draw of `DrawLayout`: all b indices, then all b
    directions. When b d exceeds `BLOCK_ENTRIES` the directions come in
    sub-blocks, which are joined in pair order (see `DrawLayout.batch`).
    """
    return SampleBatch(*DrawLayout([indices], b, d).batch(rng))


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


def estimate_block(obj, X, delta, xis, ws, out, first=True):
    """Add each row's two-point estimates over a block of pairs into ``out``.

    ``X`` holds q points for each of r rows, shape (q, r, d), and row i
    has the pairs (xis[i, j], ws[i, j]), shapes (r, p) and (r, p, d). Each
    point X[s, i] is probed at X[s, i] + delta w and X[s, i] - delta w for
    each of its row's directions w, with that pair's sample index: one
    scalar ``obj.eval`` per probe, 2 q r p oracle calls. Pair j then adds
    c w to out[s, i], with c = (d / (2 delta)) (f+ - f-), in pair order.
    With ``first`` the first pair's term is assigned, not added to zero,
    which keeps the sign of a -0.0; a first block of one pair (p = 1)
    writes its terms c w straight into ``out``. So out[s, i] is bit for
    bit the sum of `two_point_estimate` over the row's pairs, taken pair
    by pair. Returns ``out``, shape (q, r, d).
    """
    q, r, d = X.shape
    p = ws.shape[1]
    steps = delta * ws
    plus = X[:, :, None] + steps
    minus = X[:, :, None] - steps
    del steps
    f = obj.eval
    diffs = [f(hi, xi) - f(lo, xi) for hi, lo, xi in
             zip(plus.reshape(-1, d), minus.reshape(-1, d), xis.reshape(-1).tolist() * q)]
    del plus, minus
    coefs = np.multiply(diffs, d / (2.0 * delta)).reshape(q, r, p, 1)
    if first and p == 1:
        # the one pair's terms are the sums: assigned, as -0.0 + t is t
        return np.multiply(coefs[:, :, 0], ws[:, 0], out=out)
    # C order whatever the layout of ws: it keeps the pair axis outside d
    terms = np.multiply(coefs, ws, order="C")
    if first and d > 1:
        # numpy adds an outer axis one pair at a time, as the loop does, and
        # -0.0 + t is t whatever the sign of t. At d = 1 the pair axis is the
        # inner one, which numpy sums pairwise: other bits.
        return np.add.reduce(terms, axis=2, out=out, initial=-0.0)
    for j in range(p):
        if first and j == 0:
            out[...] = terms[:, :, 0]
        else:
            out += terms[:, :, j]
    return out


def minibatch_estimate(obj, x, params, batch):
    """Arithmetic mean of `two_point_estimate` over the batch (2b oracle calls).

    The one-agent, one-point case of `estimate_block`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (params.dim,) or batch.ws.shape[1] != params.dim:
        raise ShapeError(f"x and the directions must have length {params.dim}, "
                         f"got {x.shape} and {batch.ws.shape}")
    g = estimate_block(obj, x[None, None], params.delta, batch.xis[None], batch.ws[None],
                       np.empty((1, 1, params.dim)))[0, 0]
    return g / batch.size if batch.size > 1 else g


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
    d = require_int(1, d=d)
    require_positive(lipschitz=lipschitz)
    return 16.0 * math.sqrt(2.0 * math.pi) * d * lipschitz**2


def surrogate_smoothness(d, lipschitz, delta, c=1.0):
    """Smoothness constant c L_f sqrt(d) / delta of the smoothed surrogate.

    The leading constant c is not pinned down by theory; it defaults to 1
    and is exposed because the parameter prescriptions take it as input.
    """
    d = require_int(1, d=d)
    require_positive(lipschitz=lipschitz, delta=delta, c=c)
    return c * lipschitz * math.sqrt(d) / delta
