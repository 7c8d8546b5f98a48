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
are row i of that draw. When one iteration's draw is small, a
`DrawWindow` holds the draws of several consecutive iterations, each from
its own stream, gathered, normalized, checked and scaled by delta at
once; each iteration's part is bit for bit its own draw. When one
iteration's draw is too large for a window of two one-block draws (more
than `BLOCK_ENTRIES` / 2 entries), two consecutive iterations' draws are
filled at once on two threads: the caller fills the first, one worker
thread of the package, started by the first such pair, fills the second
from its own stream, and the caller waits for it before it goes on, so
nothing else runs beside a fill. A pair's normals take at most
`PAIR_BLOCKS` blocks of `BLOCK_ENTRIES`, whatever m, b and d; a process
that may run on one CPU never pairs, and no number changes either way.
The one-shard draw, `DrawLayout.batch`, serves the
stationarity proxy in :mod:`dgfm.metrics`, and `sample_batch` as a
`SampleBatch`.
`estimate_block` is the one estimator; `minibatch_estimate` is its
one-agent case, and `two_point_estimate` its one-pair reference.
"""

import itertools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidParameter, ShapeError, require_int, require_positive

__all__ = [
    "DrawLayout",
    "DrawWindow",
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
# still holds all of an 8-agent draw at d = 123 in one piece, and a window
# of 33 such draws.
BLOCK_ENTRIES = 1 << 15
# A pair's normals take at most this many blocks of BLOCK_ENTRIES: 2 MiB.
PAIR_BLOCKS = 8


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
    """Uniform draw from the unit sphere in R^d (normalized Gaussian).

    ``d`` is an integer (`InvalidParameter`) and d >= 1 (`ShapeError`).
    """
    # the int test first: it is an order of magnitude cheaper than the ABC's
    if not (isinstance(d, int) or isinstance(d, numbers.Integral)):
        raise InvalidParameter(f"must be an integer, got {d!r}", "d")
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


def _require_small_norm_error(worst):
    """Raise InvalidParameter unless ``worst``, some directions' largest |norm - 1|, is small."""
    if not worst <= UNIT_NORM_TOL:  # a NaN fails too
        raise InvalidParameter(f"directions must be unit norm, worst error {worst:.3e}")


def require_unit_norm(ws):
    """Raise InvalidParameter unless every row along the last axis of ``ws`` has unit norm."""
    _require_small_norm_error(float(np.maximum.reduce(np.abs(_norms(ws) - 1.0), axis=None)))


def _cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _new_worker():
    """Make the executor of the one thread that fills a pair's second draw.

    The executor starts its thread at its first task, and never a second.
    """
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dgfm-draw")


_new_worker()
if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread, whatever the parent's executor says
    os.register_at_fork(after_in_child=_new_worker)


def _beside(fill, out):
    """Start ``fill(out=out)`` on the worker thread; returns its Future."""
    return _worker.submit(fill, out=out)


class DrawLayout:
    """One draw of b (xi, w) pairs per shard, in blocks: the one sampler of pairs.

    Agent i's xi are uniform over ``shards[i]`` and its w uniform on the
    unit sphere in R^d. All sample indices come first, in one (m, b) draw;
    then the directions, as one (m, b, d) standard normal block. A numpy
    Generator fills arrays in order, so how the draw is cut never changes
    the numbers: agent i's pairs are row i of the one draw.

    With E = `BLOCK_ENTRIES`, read when the layout is built, a draw of m b
    d <= E entries is one block; a larger one is cut into blocks of c =
    max(1, min(m, E // (b d))) whole agents, and an agent whose b d alone
    exceeds E into sub-blocks of max(1, E // d) pairs. ``window`` is the
    number of consecutive iterations' draws that `draw_window` fills at
    once, each from its own stream, and then gathers, normalizes and
    checks together (see `DrawWindow`):

    * ``paired`` is set when E // (m b d) < 2, so that no window of two
      one-block draws holds it, two draws take at most `PAIR_BLOCKS`
      blocks and ``os.sched_getaffinity`` allows more than one CPU, all
      read when the layout is built. Then ``window`` is 2: the calling
      thread fills the first iteration's normals while one worker thread,
      started by the first pair and kept for the process, fills the
      second's from its own generator, and the caller waits for it before
      anything else. Both numbers and checks are those of one thread.
    * Otherwise ``window`` is E // (m b d), 0 for a draw of several blocks.

    ``draw`` is the one-iteration case. One block is filled as a window of
    one; a larger draw is filled block by block, each drawn only when it
    is needed, normalized in place and checked once by `require_unit_norm`.

    The blocks depend on (shards, b, d) alone, so a caller that draws from
    the same ones again builds the layout once. It holds the ``integers``
    bound of every shard (a scalar when they are all of one size, which
    draws the same numbers faster), the shards joined into one index array
    with each one's start in it, and the blocks: for each, the slices of
    agents and of pairs it covers, its shape and whether it is a lone row
    of a larger draw. ``shards`` is kept as given, so a cache can tell
    which shards a layout was built for. Its memory is the joined indices:
    one int per sample of the shards.

    ``b`` and ``d`` are integers and d >= 1 (`InvalidParameter`); no shard,
    a ``b`` below 1, or an empty shard raises `EmptyBatch`.
    """

    __slots__ = ("shards", "b", "d", "window", "paired", "_high", "_indices", "_starts",
                 "_blocks")

    def __init__(self, shards, b, d):
        if isinstance(b, numbers.Integral) and b < 1:
            raise EmptyBatch(f"batch size must be >= 1, got {b}")
        b, d = require_int(1, b=b, d=d)
        if len(shards) == 0:
            raise EmptyBatch("no shard to draw from")
        sizes = [len(shard) for shard in shards]
        if 0 in sizes:
            raise EmptyBatch(f"shard {sizes.index(0)} is empty: it has no sample to draw")
        self.shards, self.b, self.d = shards, b, d
        m = len(shards)
        self._high = sizes[0] if min(sizes) == max(sizes) else np.array(sizes)[:, None]
        self._indices = np.asarray(shards[0]) if m == 1 else np.concatenate(shards)
        self._starts = np.array([0, *itertools.accumulate(sizes[:-1])])[:, None]
        entries = m * b * d
        # a draw that no one-thread window of two holds pairs. On a 2-core
        # x86-64 VM with one BLAS thread, a pair on two threads beat one draw
        # per iteration on one by 1.11-1.23x at 8000-10000 entries, and two
        # 128,000-entry normal fills took 2.1 ms against 4.15 ms on one
        # thread
        self.window = BLOCK_ENTRIES // entries
        self.paired = (self.window < 2 and 2 * entries <= PAIR_BLOCKS * BLOCK_ENTRIES
                       and _cpus() > 1)
        if self.paired:
            self.window = 2
        if entries <= BLOCK_ENTRIES:
            spans = [(slice(0, m), slice(0, b))]
        elif b * d <= BLOCK_ENTRIES:
            c = BLOCK_ENTRIES // (b * d)
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
        if len(self._blocks) == 1:
            xis, ws, [worst] = self._fill([rng], 1)
            _require_small_norm_error(worst)
            [(agents, pairs, _, _)] = self._blocks
            yield agents, pairs, xis[0], ws[0]
            return
        positions = rng.integers(0, self._high, size=(len(self.shards), self.b))
        positions += self._starts
        xis = self._indices[positions]
        for agents, pairs, shape, lone in self._blocks:
            ws = rng.standard_normal(shape)
            norms = _norms(np.concatenate((ws, ws), axis=1))[:, :1] if lone else _norms(ws)
            ws /= norms[..., None]
            require_unit_norm(ws)
            yield agents, pairs, xis[agents, pairs], ws

    def draw_window(self, rngs, count, delta):
        """The draws of ``count`` iterations, 1 <= count <= ``window``, one from each of ``rngs``.

        Each generator is used up before the next is taken, so they may be
        one re-keyed generator (`dgfm.rng.StreamCache`), except for a
        ``paired`` layout's two draws: these come from two distinct
        generators at once (`dgfm.rng.StreamCache.pair`; `InvalidParameter`
        if they are one). Returns a `DrawWindow` whose steps are ``delta``
        times the directions.
        """
        if count == 2 and self.paired:
            return DrawWindow(*self._fill_pair(*rngs), delta, self._blocks)
        return DrawWindow(*self._fill(rngs, count), delta)

    def _fill(self, rngs, count):
        """``count`` one-block draws, from ``rngs`` in turn: indices, unit directions, checks.

        Each generator draws its (m, b) positions, then its (m, b, d)
        normals, as ``draw`` would on its own. The rest is done once for
        all: the positions become sample indices, shape (count, m, b), the
        normals unit directions, shape (count, m, b, d), and each draw's
        largest |norm - 1| a float, for `_require_small_norm_error`.
        """
        shape = (len(self.shards), self.b)
        positions = np.empty((count, *shape), dtype=np.int64)
        ws = np.empty((count, *shape, self.d))
        for j, rng in zip(range(count), rngs):
            positions[j] = rng.integers(0, self._high, size=shape)
            rng.standard_normal(out=ws[j])
        positions += self._starts
        return self._indices[positions], ws, self._normalize(ws)

    def _fill_pair(self, first, second):
        """Two draws as `_fill` makes them, the second's normals filled on the worker thread.

        Each draw's normals are an array of their own, so the first is
        freed once its step has used them, before the step's gossip: one
        (2, m, b, d) array raised the traced peak of a 64-agent, d = 2000
        dgfm step from 4.9 to 5.9 MiB, and sparse2k's peak RSS by 3-4 MB.
        """
        if first is second:
            raise InvalidParameter("a pair's draws need two distinct generators")
        shape = (len(self.shards), self.b)
        positions = np.empty((2, *shape), dtype=np.int64)
        ws = [np.empty((1, *shape, self.d)) for _ in range(2)]
        positions[1] = second.integers(0, self._high, size=shape)
        fill = _beside(second.standard_normal, ws[1])
        try:
            positions[0] = first.integers(0, self._high, size=shape)
            first.standard_normal(out=ws[0])
        finally:
            fill.result()
        positions += self._starts
        worst = self._normalize(ws[0]) + self._normalize(ws[1])
        return self._indices[positions], [w[0] for w in ws], worst

    def _normalize(self, ws):
        """Norm stacked draws in place; each one's largest |norm - 1|, as a list of floats."""
        ws /= self._row_norms(ws)[..., None]
        errors = np.abs(self._row_norms(ws) - 1.0).reshape(len(ws), -1)
        return np.maximum.reduce(errors, axis=1).tolist()

    def _row_norms(self, ws):
        """Row norms of stacked draws, each draw's as it would be normed alone."""
        if len(self.shards) * self.b > 1:
            return _norms(ws)
        # a one-pair draw is a lone row, which einsum sums past its 8192-entry
        # buffer in another order than the rows of a larger array
        return np.array([_norms(row) for row in ws])


class DrawWindow:
    """Consecutive iterations' draws, ready for `estimate_block`.

    Built by `DrawLayout.draw_window`. ``take(j)`` is iteration j's draw as
    ``(agents, first, xis, ws, steps)`` blocks: the slice of agents a block
    covers, whether it holds their first pairs, its sample indices as a
    list of ints, in row order, its unit directions, shape (rows, p, d),
    and delta times them. Each is bit for bit what ``draw`` from the same
    stream gives, and its unit-norm check raises where that draw's would:
    when iteration j is taken, not when the window is filled.

    A window of one-block draws forms every iteration's lists and steps
    at once, and serves each as often as it is taken. A pair's draws, in
    the layout's blocks (``spans``), are formed block by block as they are
    taken, and each is handed out once: its directions are freed once the
    caller lets go of them, and ``take`` then returns None. So a pair
    holds at most its two draws' directions and one block's steps.
    """

    __slots__ = ("_draws", "_worst", "_spans", "_delta")

    def __init__(self, xis, ws, worst, delta, spans=None):
        self._worst, self._delta, self._spans = worst, delta, spans
        if spans is None:
            agents = slice(0, ws.shape[1])
            self._draws = [((agents, True, *block),) for block in
                           zip(xis.reshape(len(worst), -1).tolist(), ws, delta * ws)]
        else:
            self._draws = list(zip(xis, ws))

    def take(self, j):
        """Iteration j as ``(agents, first, xis, ws, steps)`` blocks, once checked; None if taken."""
        _require_small_norm_error(self._worst[j])
        if self._spans is None:
            return self._draws[j]
        draw, self._draws[j] = self._draws[j], None
        return None if draw is None else self._cut(*draw)

    def _cut(self, xis, ws):
        for agents, pairs, *_ in self._spans:
            part = ws[agents, pairs]
            yield (agents, pairs.start == 0, xis[agents, pairs].reshape(-1).tolist(), part,
                   self._delta * part)


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


def estimate_block(obj, X, delta, xis, ws, steps, out, first=True):
    """Add each row's two-point estimates over a block of pairs into ``out``.

    ``X`` holds q points for each of r rows, shape (q, r, d), and row i
    has the pairs (xis[i p + j], ws[i, j]): ``xis`` lists the block's r p
    sample indices as ints, in row order, and ``ws`` has shape (r, p, d).
    ``steps`` is delta * ws, formed by the caller, which may form it for
    several blocks at once. Each point X[s, i] is probed at X[s, i] +
    delta w and X[s, i] - delta w for each of its row's directions w, with
    that pair's sample index: one scalar ``obj.eval`` per probe, 2 q r p
    oracle calls. Pair j then adds c w to out[s, i], with c = (d / (2
    delta)) (f+ - f-), in pair order. With ``first`` the first pair's term
    is assigned, not added to zero, which keeps the sign of a -0.0; a first
    block of one pair (p = 1) writes its terms c w straight into ``out``.
    So out[s, i] is bit for bit the sum of `two_point_estimate` over the
    row's pairs, taken pair by pair. Returns ``out``, shape (q, r, d).
    """
    q, r, d = X.shape
    p = ws.shape[1]
    plus = X[:, :, None] + steps
    minus = X[:, :, None] - steps
    f = obj.eval
    diffs = [f(hi, xi) - f(lo, xi) for hi, lo, xi in
             zip(plus.reshape(-1, d), minus.reshape(-1, d), xis * q)]
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
    ws = batch.ws[None]
    g = estimate_block(obj, x[None, None], params.delta, batch.xis.tolist(), ws,
                       params.delta * ws, np.empty((1, 1, params.dim)))[0, 0]
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
