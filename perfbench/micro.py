"""Layer microbenchmarks at a workload's shapes, and computed traffic.

Each microbenchmark is the median, over several batches, of the wall time
per call of one public function, in microseconds.
"""

import itertools
import statistics
import time

import numpy as np

import dgfm

from .protocol import CLI_RECORDING, DELTA, DGFM_PLUS

BATCH_S = 0.02
BATCHES = 7


def median_us(fn):
    """Median wall time per call, in us, over BATCHES batches of about BATCH_S."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        took = time.perf_counter() - t0
        if took >= BATCH_S / 4:
            break
        n *= 4
    n = max(1, round(n * BATCH_S / took))
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6


def layer_microbenchmarks(objective, partition, ring, seed):
    d, m = objective.dim, ring.m
    rng = np.random.default_rng(seed)
    x = 0.01 * rng.standard_normal(d)
    xis = itertools.cycle(rng.integers(objective.n_samples, size=4096).tolist())
    shard = partition.assignment[0]
    params = dgfm.SmoothingParams(delta=DELTA, dim=d)
    # A restart estimate of dgfm-plus: mega-batch pairs at one iterate.
    batch = dgfm.sample_batch(shard, DGFM_PLUS["mega_batch"], d, dgfm.substream(seed, 0))
    stacked = rng.standard_normal((m, d))
    draws = dgfm.substream(seed, 1)
    keys = itertools.count()
    return {
        "rng.substream.us": median_us(lambda: dgfm.substream(seed, 0, 0, next(keys))),
        "smoothing.sample_batch.us": median_us(lambda: dgfm.sample_batch(shard, 1, d, draws)),
        "objectives.eval.us": median_us(lambda: objective.eval(x, next(xis))),
        "smoothing.minibatch_estimate.us": median_us(
            lambda: dgfm.minibatch_estimate(objective, x, params, batch)),
        "topology.mix.us": median_us(lambda: dgfm.mix(ring, stacked)),
        "objectives.full_loss.us": median_us(lambda: objective.full_loss(x)),
        "metrics.stationarity_estimate.us": median_us(
            lambda: dgfm.stationarity_estimate(
                objective, x, DELTA, CLI_RECORDING["stationarity_samples"], draws)),
    }


def traffic(nnz_per_row, d, m):
    """Bytes moved, computed from the shapes (not measured).

    One ``eval``: the row's nonzeros gathered (8 B value, 4 B index, 8 B of
    x each), the probe x + delta*w (40 B per coordinate: the delta*w
    temporary written and read, w, x and the probe), and the capped-L1
    penalty (40 B per coordinate: |x| and its minimum with alpha each read
    and written, then summed). One gossip round: the (m, m) weights and
    the (m, d) stack read, the (m, d) result written.
    """
    return {
        "objectives.eval.bytes_per_call": 20.0 * nnz_per_row + 80.0 * d,
        "topology.gossip.bytes_per_round": float((m * m + 2 * m * d) * 8),
    }
