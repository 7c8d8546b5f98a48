"""Counter-based reproducible random streams.

Every stochastic draw in this package comes from a stream keyed by the run
seed plus an integer path such as (lane, iteration), except the shuffles of
`dgfm.data.partition` and `dgfm.data.subset`, which draw from
``np.random.default_rng(seed)``. Streams with distinct keys are
statistically independent, and the same key always reproduces the same
stream. The optimizers open one stream per iteration and draw every
agent's pairs from it at once, agent i's being row i of that draw, so
simulation results do not depend on the order in which agents are
processed (and would not change under parallel execution).
"""

import numpy as np

__all__ = ["substream"]


def substream(seed, *path):
    """Return a fresh ``numpy.random.Generator`` for the key (seed, \\*path).

    Parameters
    ----------
    seed : int
        Nonnegative run seed.
    *path : int
        Nonnegative integers identifying the consumer, e.g.
        ``substream(seed, lane, iteration)``.
    """
    key = np.random.SeedSequence([int(seed), *(int(p) for p in path)])
    # Philox is counter-based: cheap to construct per key. Constructing the
    # SeedSequence is the dominant cost, so callers open one per iteration.
    return np.random.Generator(np.random.Philox(key))
