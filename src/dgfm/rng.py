"""Counter-based reproducible random streams.

Every stochastic draw in this package comes from a stream keyed by the run
seed plus an integer path such as (lane, iteration), except the shuffles of
`dgfm.data.partition` and `dgfm.data.subset`, which draw from
``np.random.default_rng(seed)``. Streams with distinct keys are
statistically independent, and the same key always reproduces the same
stream. The optimizers open one stream per iteration and draw every
agent's pairs from it at once, agent i's being row i of that draw, so
simulation results do not depend on the order in which agents are
processed, nor on how `dgfm.smoothing.DrawLayout` groups the draws of
several iterations, on one thread or, each from its own stream through
`StreamCache.pair`, on two.

`substream` defines the stream of a key: a Philox generator keyed by
``SeedSequence([seed, *path])``. Building that SeedSequence, its Philox
and its Generator takes about 20 us on a 2-core x86-64 VM, as long as a
few scalar oracle calls at a9a shapes. So a run opens its (lane, k)
streams through a `StreamCache` instead, which builds neither per
iteration:

* `key_block` computes the Philox keys of `KEY_BLOCK` consecutive
  iterations at once, running SeedSequence's own uint32 hash-mix on numpy
  arrays, its rule for ints of more than one 32-bit word included;
* the cache re-keys its one Philox per stream by setting its state to the
  iteration's key, counter 0, an empty buffer and no cached uint32.

That is exactly the state in which ``Philox(SeedSequence([seed, lane,
k]))`` starts, and a ``Generator`` keeps no state of its own, so every
draw is bit-identical to ``substream(seed, lane, k)``'s. A pair of
iterations takes a second Philox, re-keyed the same way, so that two
threads never share a generator.
"""

import numpy as np

from .errors import require_int

__all__ = ["substream"]

# Iterations whose keys one `key_block` call computes: 16 KiB of keys. A
# power of two, so no block holds iterations of different word counts.
KEY_BLOCK = 1024

# SeedSequence's hash-mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def substream(seed, *path):
    """Return a fresh ``numpy.random.Generator`` for the key (seed, \\*path).

    Parameters
    ----------
    seed : int
        Nonnegative run seed.
    *path : int
        Nonnegative integers identifying the consumer, e.g.
        ``substream(seed, lane, iteration)``.

    Any other seed or path entry raises `InvalidParameter` naming ``seed``
    or ``path``.
    """
    key = np.random.SeedSequence([require_int(0, seed=seed),
                                  *(require_int(0, path=p) for p in path)])
    # Philox is counter-based: cheap to construct per key. The SeedSequence
    # is the dominant cost; `StreamCache` gives the same streams without it.
    return np.random.Generator(np.random.Philox(key))


def _words(n):
    """SeedSequence's uint32 words of a nonnegative int, least significant first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(const, mult):
    """SeedSequence's hashmix on uint32 arrays; its multiplier advances with every call."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> 16


def key_block(seed, lane, k):
    """Philox keys of ``substream(seed, lane, j)`` for the `KEY_BLOCK` iterations j around k.

    Returns ``(start, keys)``: the block is j in [start, start + KEY_BLOCK)
    with start = k - k mod KEY_BLOCK, and row j - start of the
    (KEY_BLOCK, 2) uint64 ``keys`` equals
    ``np.random.SeedSequence([seed, lane, j]).generate_state(2, np.uint64)``.
    It runs SeedSequence's pool mix on every j at once. Each int enters as
    its 32-bit words, least significant first, so only j's low word varies
    within a block, and j's word count is the same across it. Each of
    ``seed``, ``lane`` and ``k`` must be an integer >= 0 (`InvalidParameter`).
    """
    seed, lane, k = require_int(0, seed=seed, lane=lane, k=k)
    start = k - k % KEY_BLOCK
    low = np.arange(start & _MASK32, (start & _MASK32) + KEY_BLOCK, dtype=np.uint32)
    high = _words(start >> 32) if start >> 32 else []
    entropy = ([np.full_like(low, w) for w in _words(seed) + _words(lane)] + [low]
               + [np.full_like(low, w) for w in high])
    entropy += [np.zeros_like(low)] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four output words, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    state = np.stack([out(word) for word in pool], axis=1).astype(np.uint64)
    return start, state[:, 0::2] | state[:, 1::2] << np.uint64(32)


class StreamCache:
    """One run's streams: ``cache(lane, k)`` draws exactly as ``substream(seed, lane, k)``.

    It holds one Philox ``Generator``, re-keyed on every call, and the
    current `key_block` of each lane. The returned generator is shared:
    finish with it before the next call. ``pair(lane, k)`` serves streams k
    and k + 1 at once, the second from a second Philox, built at the first
    pair, so two threads may draw from them side by side. ``seed`` is an
    integer >= 0 (`InvalidParameter`).
    """

    def __init__(self, seed):
        self.seed = require_int(0, seed=seed)
        self._generator = np.random.Generator(np.random.Philox(0))
        self._second = None
        # a fresh Philox's state: counter 0, empty buffer, no cached uint32
        self._state = self._generator.bit_generator.state
        self._blocks = {}

    def __call__(self, lane, k):
        return self._rekey(self._generator, lane, k)

    def pair(self, lane, k):
        """Two distinct generators, drawing as streams (lane, k) and (lane, k + 1)."""
        if self._second is None:
            self._second = np.random.Generator(np.random.Philox(0))
        return self(lane, k), self._rekey(self._second, lane, k + 1)

    def _rekey(self, generator, lane, k):
        start, keys = self._blocks.get(lane, (None, None))
        if start is None or not start <= k < start + KEY_BLOCK:
            start, keys = self._blocks[lane] = key_block(self.seed, lane, k)
        self._state["state"]["key"] = keys[k - start]
        generator.bit_generator.state = self._state
        return generator
