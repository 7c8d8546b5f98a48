"""Exact invariants of the step engine over random networks, configs and seeds.

Hypothesis draws the number of agents (1 to 8), the dimension, the seed,
the config type and its schedule, and the topology: the complete graph or
Metropolis-Hastings weights on a random connected graph. After every
`step` the tracker mean must equal the mean of the current estimates, the
mean iterate must move by exactly -eta times the tracker mean, and the
oracle and communication counters must equal the closed form of
acceptance criterion 07. At every restart the tracker's consensus error
must shrink by at least rho^2 per gossip round. A run keeps exactly the
output candidate it drew before its first step, bit-equal to the
step-driven trajectory there. An iteration's bulk draw of every agent's
pairs keeps each agent in its own shard, gives unit directions, is fixed
by (seed, iteration) and equals one unchunked draw, also when b d is near
or above `BLOCK_ENTRIES` and the draw comes in blocks of fewer agents or
in sub-blocks of one agent's pairs; so does `sample_batch`, its one-shard
case. The estimates `step` forms from it, block by block, equal bit for
bit the pair-by-pair sums of `two_point_estimate` over that draw, for
seeds up to 2^64 and at iterations on either side of a key block's edge
and of 2^32; and `key_block` gives SeedSequence's own Philox keys. A
state's cached draw layouts never go stale: stepped under partitions with
other shard sizes, at other batch sizes, or deep-copied mid-run, it
moves bit for bit as a state with empty caches does. Every one-block draw
the engine takes from a window of several iterations' draws, at a
window's edges, at restarts, at the budget's end and for lone rows either
side of einsum's buffer, is bit for bit the iteration's own draw, and
zero normals in one iteration of a window fail that iteration's step
alone. A run, which checks its inputs once and then skips `step`'s
checks, leaves its state bit for bit where public `step` calls leave it,
for 1, 3 and 8 agents, restarts at every iteration or at none, several
gossip rounds, and draws in windows and in blocks.
Records, LIBSVM text and partitions round-trip or cover exactly. The
batched oracle agrees with scalar ``eval`` row by row: the SVM's CSR
kernel to round-off, on rows with no nonzeros too, and the base class's
loop bit for bit; both reject what scalar ``eval`` rejects.
"""

import copy
import dataclasses
import json
import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import centralized_trajectory, output_candidate, step_trajectory
from dgfm import (
    AbsTest,
    CappedL1Svm,
    DgfmConfig,
    DgfmPlusConfig,
    DrawLayout,
    LinearTest,
    NetworkState,
    Partition,
    QuadraticTest,
    RunEntry,
    RunRecord,
    SmoothingParams,
    SparseDataset,
    build_complete,
    build_metropolis_hastings,
    build_ring,
    dgfm_run,
    gfm_run,
    mix,
    parse_libsvm,
    partition,
    read_csv_rows,
    sample_batch,
    select_output,
    step,
    substream,
    to_libsvm,
    two_point_estimate,
    write_records,
)
from dgfm import algorithms, smoothing
from dgfm.algorithms import _draw
from dgfm.errors import InvalidParameter, SampleIndexError, ShapeError
from dgfm.rng import KEY_BLOCK, StreamCache, key_block
from dgfm.smoothing import BLOCK_ENTRIES, UNIT_NORM_TOL, require_unit_norm

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def topologies(draw, max_m=8):
    m = draw(st.integers(1, max_m))
    if draw(st.booleans()):
        return build_complete(m)
    adj = np.eye(m, dtype=bool)
    for j in range(1, m):  # a random spanning tree keeps the graph connected
        i = draw(st.integers(0, j - 1))
        adj[i, j] = adj[j, i] = True
    agents = st.integers(0, m - 1)
    for i, j in draw(st.lists(st.tuples(agents, agents), max_size=m)):
        adj[i, j] = adj[j, i] = True
    return build_metropolis_hastings(adj)


@st.composite
def configs(draw):
    common = dict(
        eta=draw(st.floats(1e-3, 0.1)),
        delta=draw(st.floats(1e-3, 0.1)),
        iters=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)),
        batch=draw(st.integers(1, 3)),
    )
    if draw(st.booleans()):
        return DgfmConfig(**common)
    return DgfmPlusConfig(period=draw(st.integers(1, 4)), mega_batch=draw(st.integers(1, 4)),
                          gossip_rounds=draw(st.integers(1, 3)), **common)


def closed_form_counts(cfg, m, k):
    """(oracle calls, comm rounds) after k iterations, as in criterion 07."""
    if isinstance(cfg, DgfmPlusConfig):
        restarts = math.ceil(k / cfg.period)
        others = k - restarts
        calls = restarts * 2 * m * cfg.mega_batch + others * 4 * m * cfg.batch
        rounds = restarts * (cfg.gossip_rounds + 1) + others * 2
    else:
        calls, rounds = 2 * m * cfg.batch * k, 2 * k
    return calls, rounds if m > 1 else 0


def close(a, ref):
    return np.linalg.norm(a - ref) <= 1e-10 * (1.0 + np.linalg.norm(ref))


@PROPERTY
@given(topology=topologies(), cfg=configs(), d=st.integers(1, 6),
       x0_seed=st.integers(0, 2**16))
def test_identities_and_counters_hold_after_every_step(topology, cfg, d, x0_seed):
    m = topology.m
    obj = AbsTest(dim=d, n_samples=2 * m)
    part = partition(obj.n_samples, m, seed=cfg.seed)
    state = NetworkState.initial(m, np.random.default_rng(x0_seed).uniform(-2, 2, d))
    for k in range(1, cfg.iters + 1):
        xbar_before = state.mean_x.copy()
        step(state, topology, part, obj, cfg)
        ybar = state.y.mean(axis=0)
        assert close(ybar, state.v.mean(axis=0))
        assert close(state.mean_x, xbar_before - cfg.eta * ybar)
        assert (state.oracle_calls, state.comm_rounds) == closed_form_counts(cfg, m, k)


@PROPERTY
@given(topology=topologies(max_m=6), cfg=configs(), iters=st.integers(0, 16),
       record_every=st.integers(1, 5), d=st.integers(1, 4))
def test_run_keeps_the_candidate_drawn_before_it(topology, cfg, iters, record_every, d):
    # candidates are the recorded iterations first, agents second: the run
    # keeps agent pick % m at iteration k* = (pick // m + 1) * record_every
    m = topology.m
    cfg = dataclasses.replace(cfg, iters=iters)
    obj = AbsTest(dim=d, n_samples=2 * m)
    x0 = np.linspace(-1.0, 1.0, d)
    opts = dict(x0=x0, record_every=record_every, stationarity_every=0)
    if m == 1:  # the centralized run
        record = gfm_run(obj, cfg, **opts)
        trajectory = centralized_trajectory(obj, cfg, x0)
    else:
        part = partition(obj.n_samples, m, seed=cfg.seed)
        record = dgfm_run(topology, part, obj, cfg, **opts)[1]
        trajectory = step_trajectory(topology, part, obj, cfg, x0)
    if iters < record_every:
        assert record.snapshots == []
        return
    expected = output_candidate(record, trajectory, record_every)
    assert record.snapshots[0][1].tobytes() == expected.tobytes()
    assert select_output(record).tobytes() == expected[0].tobytes()


@PROPERTY
@given(topology=topologies(), d=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_mix_preserves_column_sums(topology, d, seed):
    z = np.random.default_rng(seed).standard_normal((topology.m, d))
    assert np.allclose(mix(topology, z).sum(axis=0), z.sum(axis=0), rtol=0, atol=1e-12)


# Round-off allowance of a gossip round's consensus error, relative to the
# squared norm of the stacked estimates it starts from: a deviation of a
# few ulps per entry, squared, is far below it.
CONTRACTION_SLACK = 1e-12


@PROPERTY
@given(topology=topologies(), d=st.integers(1, 6), seed=st.integers(0, 2**16),
       period=st.integers(1, 4), gossip_rounds=st.integers(1, 5))
def test_restart_gossip_contracts_by_rho_squared(topology, d, seed, period, gossip_rounds):
    m = topology.m
    obj = AbsTest(dim=d, n_samples=2 * m)
    part = partition(obj.n_samples, m, seed=seed)
    cfg = DgfmPlusConfig(eta=0.05, delta=0.05, iters=2 * period, seed=seed, period=period,
                         batch=1, mega_batch=3, gossip_rounds=gossip_rounds)
    state = NetworkState.initial(m, np.random.default_rng(seed).uniform(-2, 2, d))
    for k in range(cfg.iters):
        step(state, topology, part, obj, cfg)
        if k % period:
            continue
        trace = state.restart_log[-1]["tracking_consensus"]
        assert len(trace) == gossip_rounds + 1
        slack = CONTRACTION_SLACK * float((state.v**2).sum())
        for before, after in zip(trace, trace[1:]):
            assert after <= topology.rho**2 * before + slack
    assert len(state.restart_log) == 2


# The stream key of iteration k's draw: (seed, draw lane 0, k), as `step` opens it.
DRAW_LANE = 0


@st.composite
def draws(draw):
    """Random shards of a shuffled index range, and a (b, d, seed, k) to draw with."""
    m = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    perm = np.random.default_rng(draw(st.integers(0, 2**16))).permutation(sum(sizes))
    shards = np.split(perm, np.cumsum(sizes)[:-1])
    return (shards, draw(st.integers(1, 6)), draw(st.integers(1, 8)),
            draw(st.integers(0, 2**32)), draw(st.integers(0, 10_000)))


def step_draw(shards, b, d, seed, k):
    """Iteration k's draw as `step` takes it: the blocks of `DrawLayout.draw`."""
    return list(DrawLayout(shards, b, d).draw(substream(seed, DRAW_LANE, k)))


def one_block(shards, b, d, seed, k):
    """The same draw unblocked: sample indices (m, b), then one (m, b, d) normal block."""
    m = len(shards)
    rng = substream(seed, DRAW_LANE, k)
    positions = rng.integers(0, np.array([len(s) for s in shards])[:, None], size=(m, b))
    ws = rng.standard_normal((m, b, d))
    ws /= np.sqrt(np.einsum("...i,...i->...", ws, ws))[..., None]
    return np.array([shard[pos] for shard, pos in zip(shards, positions)]), ws


def assert_blocks_equal(blocks, xis, ws):
    """Each block is its [agents, pairs] slice of (xis, ws), and the blocks cover each pair once."""
    covered = np.zeros(xis.shape, dtype=int)
    for agents, pairs, block_xis, block_ws in blocks:
        covered[agents, pairs] += 1
        assert np.array_equal(block_xis, xis[agents, pairs])
        assert block_ws.tobytes() == ws[agents, pairs].tobytes()
    assert (covered == 1).all()


@PROPERTY
@given(case=draws())
def test_each_agent_draws_from_its_own_shard(case):
    shards, b, d, seed, k = case
    covered = np.zeros((len(shards), b), dtype=int)
    for agents, pairs, xis, ws in step_draw(*case):
        rows, p = agents.stop - agents.start, pairs.stop - pairs.start
        assert xis.shape == (rows, p) and ws.shape == (rows, p, d)
        covered[agents, pairs] += 1
        for shard, row in zip(shards[agents], xis):
            assert np.isin(row, shard).all()
    assert (covered == 1).all()


@PROPERTY
@given(case=draws())
def test_every_direction_has_unit_norm(case):
    for _, _, _, ws in step_draw(*case):
        assert np.max(np.abs(np.linalg.norm(ws, axis=-1) - 1.0)) <= UNIT_NORM_TOL


@PROPERTY
@given(case=draws())
def test_draw_is_deterministic_in_seed_and_iteration(case):
    for (agents, pairs, xis, ws), (agents2, pairs2, xis2, ws2) in zip(
            step_draw(*case), step_draw(*case), strict=True):
        assert (agents, pairs) == (agents2, pairs2)
        assert np.array_equal(xis, xis2)
        assert ws.tobytes() == ws2.tobytes()


@PROPERTY
@given(case=draws())
def test_chunked_draw_equals_one_block(case):
    # indices first, in one (m, b) draw; then one (m, b, d) normal block
    assert_blocks_equal(step_draw(*case), *one_block(*case))


@PROPERTY
@given(m=st.integers(1, 5), b=st.integers(1, 25),
       d=st.sampled_from([1500, 3000, 12_000, BLOCK_ENTRIES + 1]), seed=st.integers(0, 2**32),
       k=st.integers(0, 10_000), one_shard=st.booleans())
def test_blocked_draw_equals_one_block(m, b, d, seed, k, one_shard):
    # b d near or above BLOCK_ENTRIES: blocks of fewer than m agents, sub-blocks
    # of E // d pairs, and lone rows (a last sub-block of one pair, or d above
    # E), whose norms past numpy's 8192-entry buffer need care; with one_shard,
    # `sample_batch` draws the first shard's pairs, its sub-blocks joined
    b = min(b, 3) if d > BLOCK_ENTRIES else min(b, 8) if d > 3000 else b
    shards = np.array_split(np.arange(3 * m), m)
    assert_blocks_equal(step_draw(shards, b, d, seed, k), *one_block(shards, b, d, seed, k))
    if one_shard:
        xis, ws = one_block(shards[:1], b, d, seed, k)
        batch = sample_batch(shards[0], b, d, substream(seed, DRAW_LANE, k))
        assert np.array_equal(batch.xis, xis[0])
        assert batch.ws.tobytes() == ws[0].tobytes()


@PROPERTY
@given(case=draws(), agent=st.integers(0, 7), pair=st.integers(0, 5),
       scale=st.sampled_from([0.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, math.nan]))
def test_chunk_with_a_non_unit_row_is_rejected(case, agent, pair, scale):
    shards, b, d, _, _ = case
    [(_, _, _, chunk)] = step_draw(*case)  # m b d <= 8 * 6 * 8 entries: one block
    require_unit_norm(chunk)
    chunk[agent % len(shards), pair % b] *= scale
    with pytest.raises(InvalidParameter, match="unit norm"):
        require_unit_norm(chunk)


class ZeroNormals:
    """A stream whose normal draws are all zero, so no row can be normalized."""

    def __init__(self, rng):
        self.integers = rng.integers

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


@PROPERTY
@given(case=draws())
def test_sampler_checks_every_chunk(case):
    shards, b, d, seed, k = case
    blocks = DrawLayout(shards, b, d).draw(ZeroNormals(substream(seed, DRAW_LANE, k)))
    with np.errstate(invalid="ignore"), pytest.raises(InvalidParameter, match="unit norm"):
        next(blocks)


def random_objective(kind, d, n, seed):
    if kind == "flat":  # every estimate is a signed zero
        return LinearTest(np.zeros(d), n)
    if kind == "quadratic":
        return QuadraticTest(d, n)
    if kind == "abs":
        return AbsTest(d, n)
    rng = np.random.default_rng(seed)
    features = sp.random(n, d, density=min(1.0, 4.0 / d), random_state=seed, format="csr")
    return CappedL1Svm(features, rng.choice([-1.0, 1.0], n), lam=0.1, alpha=0.5)


# Iterations where the key block or an iteration's word count changes.
KEY_EDGES = (0, KEY_BLOCK - 1, KEY_BLOCK, 2**32 - 1, 2**32)


@st.composite
def block_steps(draw):
    """A network, objective and config, a start iteration, and the steps before the checked one.

    One case in three has b d above `BLOCK_ENTRIES` for some batch size, so
    an agent's pairs are drawn in sub-blocks of max(1, E // d) pairs, one
    pair each when d itself exceeds E. The checked iteration is often a
    `KEY_EDGES` one, so the run's stream cache re-keys across the edge or
    opens its first block there.
    """
    m = draw(st.integers(1, 5))
    wide = draw(st.integers(0, 2)) == 0
    d = draw(st.sampled_from([3000, BLOCK_ENTRIES + 1])) if wide else draw(st.integers(1, 8))
    batches = st.integers(1, 3) if d > BLOCK_ENTRIES else st.integers(1, 25)
    seed = draw(st.integers(0, 2**64))
    checked = draw(st.sampled_from(KEY_EDGES) | st.integers(0, 2**64))
    before = min(draw(st.integers(0, 3)), checked)
    common = dict(eta=draw(st.floats(1e-3, 0.1)), delta=draw(st.floats(1e-3, 0.1)),
                  iters=checked + 1, seed=seed, batch=draw(batches))
    if draw(st.booleans()):
        cfg = DgfmConfig(**common)
    else:
        cfg = DgfmPlusConfig(period=draw(st.integers(1, 3)), mega_batch=draw(batches),
                             gossip_rounds=1, **common)
    kind = draw(st.sampled_from(["flat", "quadratic", "abs", "svm"]))
    obj = random_objective(kind, d, 2 * m, seed % 2**32)
    return m, obj, cfg, checked - before, before


def pairwise_estimates(state, part, obj, cfg):
    """Iteration k's new estimates from `two_point_estimate`, pair by pair in draw order."""
    m, d = state.x.shape
    restart = isinstance(cfg, DgfmPlusConfig) and state.k % cfg.period == 0
    paired = isinstance(cfg, DgfmPlusConfig) and not restart
    b = cfg.mega_batch if restart else cfg.batch
    params = SmoothingParams(delta=cfg.delta, dim=d)
    points = (state.x, state.x_prev) if paired else (state.x,)
    sums = np.empty((len(points), m, d))
    draw = DrawLayout(part.assignment, b, d).draw(substream(cfg.seed, DRAW_LANE, state.k))
    for agents, pairs, xis, ws in draw:
        for i, row_xis, row_ws in zip(range(agents.start, agents.stop), xis, ws):
            for j, xi, w in zip(range(pairs.start, pairs.stop), row_xis, row_ws):
                for acc, x in zip(sums[:, i], points):
                    estimate = two_point_estimate(obj, x[i], params, w, xi)
                    if j == 0:
                        acc[...] = estimate
                    else:
                        acc += estimate
    means = sums / b
    return state.v + (means[0] - means[1]) if paired else means[0]


@PROPERTY
@given(case=block_steps(), x0_seed=st.integers(0, 2**16))
# d = 1 with 16 pairs per agent: numpy's reduce would sum these pairwise
@example(case=(2, random_objective("svm", 1, 4, 5),
               DgfmConfig(eta=0.05, delta=0.01, iters=1, seed=5, batch=16), 0, 0), x0_seed=1)
@example(case=(2, random_objective("quadratic", 1, 4, 6),
               DgfmPlusConfig(eta=0.05, delta=0.01, iters=1, seed=6, batch=2, period=2,
                              mega_batch=16, gossip_rounds=1), 0, 0), x0_seed=2)
def test_block_step_equals_the_pairwise_estimates(case, x0_seed):
    m, obj, cfg, start, before = case
    matrix = build_complete(m)
    part = partition(obj.n_samples, m, seed=cfg.seed)
    state = NetworkState.initial(m, np.random.default_rng(x0_seed).uniform(-2, 2, obj.dim))
    state.k = start
    for _ in range(before):
        step(state, matrix, part, obj, cfg)
    want = pairwise_estimates(state, part, obj, cfg)
    step(state, matrix, part, obj, cfg)
    assert state.v.tobytes() == want.tobytes()


def random_shards(n, sizes, seed):
    """A partition of range(n) into shards of the given sizes, shuffled by seed."""
    perm = np.random.default_rng(seed).permutation(n)
    return Partition(assignment=np.split(perm, np.cumsum(sizes)[:-1]), n=n)


@st.composite
def cached_runs(draw):
    """Two partitions of one SVM over the same agents, two configs, a schedule and a copy point.

    The shards of each partition have unequal sizes, and the second
    partition gives them to the agents in another order; the configs
    differ in batch size, and a dgfm-plus one also draws its mega-batch at
    restarts. Each scheduled step picks a partition and a config.
    """
    m = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    sizes[0] += sizes[0] == max(sizes)  # not all equal: a bound per shard
    n, seed = sum(sizes), draw(st.integers(0, 2**16))
    parts = [random_shards(n, sizes, seed), random_shards(n, draw(st.permutations(sizes)), seed)]
    iters = draw(st.integers(2, 10))
    common = dict(eta=0.05, delta=0.01, iters=iters, seed=seed, batch=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        cfg = DgfmConfig(**common)
    else:
        cfg = DgfmPlusConfig(period=draw(st.integers(1, 3)), mega_batch=draw(st.integers(4, 6)),
                             gossip_rounds=1, **common)
    cfgs = (cfg, dataclasses.replace(cfg, batch=cfg.batch + draw(st.integers(1, 2))))
    schedule = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                             min_size=iters, max_size=iters))
    return (random_objective("svm", 4, n, seed), parts, cfgs, schedule,
            draw(st.integers(0, iters - 1)))


def uncached(state):
    """A state with the same iterates and counters whose caches are empty."""
    return NetworkState(x=state.x.copy(), y=state.y.copy(), v=state.v.copy(),
                        x_prev=state.x_prev.copy(), k=state.k,
                        oracle_calls=state.oracle_calls, comm_rounds=state.comm_rounds)


@PROPERTY
@given(case=cached_runs())
def test_the_cached_draw_layout_never_goes_stale(case):
    # a state keeps one draw layout per batch size; stepping it under another
    # partition or batch size, or a deep copy of it, must draw as a fresh state
    obj, parts, cfgs, schedule, copy_at = case
    matrix = build_complete(parts[0].m)
    state = NetworkState.initial(parts[0].m, np.linspace(-1.0, 1.0, obj.dim))
    states, fresh = [state], state
    for k, (p, c) in enumerate(schedule):
        fresh = step(uncached(fresh), matrix, parts[p], obj, cfgs[c])
        for s in states:
            step(s, matrix, parts[p], obj, cfgs[c])
            assert s.x.tobytes() == fresh.x.tobytes(), (k, s is not state)
        if k == copy_at:
            states.append(copy.deepcopy(state))


@st.composite
def windowed_runs(draw):
    """Shards, d, a `BLOCK_ENTRIES` value, a config and the first iteration a run draws.

    Three cases in four set E to hold the draws of one to three
    iterations, so windows of two or three occur, and end inside the
    budget; the fourth draws one pair per iteration at d = 8192 or 8193,
    either side of einsum's buffer, whose windows at the default E hold
    four or three lone rows. The first iteration is often at a key
    block's edge, and a dgfm-plus config puts restarts inside the run.
    """
    lone = draw(st.integers(0, 3)) == 0
    m, b = (1, 1) if lone else (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    d = draw(st.sampled_from([8192, 8193])) if lone else draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    part = random_shards(sum(sizes), sizes, draw(st.integers(0, 2**16)))
    entries = BLOCK_ENTRIES if lone else draw(st.integers(m * b * d, 4 * m * b * d - 1))
    start = draw(st.sampled_from(KEY_EDGES) | st.integers(0, 10_000))
    common = dict(eta=0.05, delta=draw(st.floats(1e-3, 0.1)), seed=draw(st.integers(0, 2**64)),
                  iters=start + draw(st.integers(1, 10)), batch=b)
    if draw(st.booleans()):
        cfg = DgfmConfig(**common)
    else:
        cfg = DgfmPlusConfig(period=draw(st.integers(1, 5)), gossip_rounds=1, **common,
                             mega_batch=1 if lone else draw(st.integers(1, 4)))
    return part, d, entries, cfg, start


@PROPERTY
@given(case=windowed_runs())
# lone rows at the default E: windows of 4 + 1 at d = 8192, of 3 + 2 at 8193
@example(case=(random_shards(5, [5], 1), 8192, BLOCK_ENTRIES,
               DgfmConfig(eta=0.05, delta=0.01, iters=5, seed=1), 0))
@example(case=(random_shards(5, [5], 2), 8193, BLOCK_ENTRIES,
               DgfmConfig(eta=0.05, delta=0.01, iters=5, seed=2), 0))
def test_a_windowed_draw_is_each_iterations_own_draw(case):
    # every one-block draw the engine takes, from a window or alone, at a
    # window's edges, at restarts and at the budget's end, is bit for bit the
    # iteration's own draw, and its steps are delta times its directions
    part, d, entries, cfg, start = case
    state = NetworkState.initial(part.m, np.zeros(d))
    with mock.patch.object(smoothing, "BLOCK_ENTRIES", entries):
        for k in range(start, cfg.iters):
            state.k = k
            restart = isinstance(cfg, DgfmPlusConfig) and k % cfg.period == 0
            b = cfg.mega_batch if restart else cfg.batch
            if part.m * b * d > entries:  # a draw of several blocks, tested above
                continue
            xis, ws = one_block(part.assignment, b, d, cfg.seed, k)
            [(_, _, own_xis, own_ws)] = step_draw(part.assignment, b, d, cfg.seed, k)
            [(agents, first, got_xis, got_ws, got_steps)] = _draw(state, part, cfg, b)
            assert first and range(part.m)[agents] == range(part.m)
            assert got_xis == xis.reshape(-1).tolist() == own_xis.reshape(-1).tolist()
            assert got_ws.tobytes() == ws.tobytes() == own_ws.tobytes()
            assert got_steps.tobytes() == (cfg.delta * ws).tobytes()


class ZeroNormalsAt(StreamCache):
    """A seed's streams, but with zero normals in the draw of iteration ``BAD``."""

    BAD = 2

    def __call__(self, lane, k):
        rng = super().__call__(lane, k)
        return ZeroNormals(rng) if (lane, k) == (DRAW_LANE, self.BAD) else rng


def test_zero_normals_inside_a_window_fail_their_own_step(monkeypatch):
    obj = AbsTest(3, n_samples=8)
    matrix = build_complete(4)
    part = partition(8, 4, seed=0)
    cfg = DgfmConfig(eta=0.02, delta=0.01, iters=6, seed=3, batch=2)
    clean = NetworkState.initial(4, np.linspace(-1.0, 1.0, 3))
    want = [step(clean, matrix, part, obj, cfg).x.copy() for _ in range(ZeroNormalsAt.BAD)]
    monkeypatch.setattr(algorithms, "StreamCache", ZeroNormalsAt)
    state = NetworkState.initial(4, np.linspace(-1.0, 1.0, 3))
    # the first step fills the window, zero normals included: their norms divide by 0
    with np.errstate(invalid="ignore"):
        for x in want:
            assert step(state, matrix, part, obj, cfg).x.tobytes() == x.tobytes()
    # the first step filled one window with the draws of all six iterations
    assert state._window[1:3] == (0, cfg.iters)
    before = copy.deepcopy(state)
    with np.errstate(invalid="ignore"), pytest.raises(
            InvalidParameter, match=r"^directions must be unit norm, worst error nan$"):
        step(state, matrix, part, obj, cfg)
    for name in ("x", "y", "v", "x_prev"):
        assert getattr(state, name).tobytes() == getattr(before, name).tobytes()
    assert ((state.k, state.oracle_calls, state.comm_rounds, state.restart_log)
            == (before.k, before.oracle_calls, before.comm_rounds, before.restart_log))


@st.composite
def checked_once_runs(draw):
    """A network of 1, 3 or 8 agents, an SVM over unequal shards, a config and a `BLOCK_ENTRIES`.

    A dgfm-plus config restarts at every iteration (period 1), at none
    after the first (a period past ``iters``) or in between, and gossips
    its restarts up to three times. E is the default, whose windows hold
    many iterations' draws, or low: one case in two cuts an iteration's
    draw into blocks of fewer agents, or lets a window hold one to three
    iterations.
    """
    m = draw(st.sampled_from([1, 3, 8]))
    d, b = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    n = m * draw(st.integers(1, 3)) + draw(st.integers(0, m - 1))
    iters = draw(st.integers(1, 12))
    common = dict(eta=draw(st.floats(1e-3, 0.1)), delta=draw(st.floats(1e-3, 0.1)),
                  iters=iters, seed=draw(st.integers(0, 2**64)), batch=b)
    if draw(st.booleans()):
        cfg = DgfmConfig(**common)
    else:
        period = draw(st.sampled_from([1, iters + 1]) | st.integers(2, 4))
        cfg = DgfmPlusConfig(period=period, mega_batch=draw(st.integers(1, 4)),
                             gossip_rounds=draw(st.integers(1, 3)), **common)
    entries = draw(st.just(BLOCK_ENTRIES) | st.integers(1, 4 * m * b * d))
    matrix = build_complete(m) if m == 1 or draw(st.booleans()) else build_ring(m)
    obj = random_objective("svm", d, n, draw(st.integers(0, 2**32 - 1)))
    return matrix, obj, cfg, entries, draw(st.integers(1, 3)), draw(st.integers(0, 2))


@PROPERTY
@given(case=checked_once_runs(), x0_seed=st.integers(0, 2**16))
def test_a_run_moves_its_state_as_public_steps_do(case, x0_seed):
    # dgfm_run checks its inputs once and then skips step's checks; its state,
    # recording and stationarity proxy included, is bit for bit that of steps
    matrix, obj, cfg, entries, record_every, stationarity_every = case
    part = partition(obj.n_samples, matrix.m, seed=cfg.seed)
    x0 = np.random.default_rng(x0_seed).uniform(-2, 2, obj.dim)
    with mock.patch.object(smoothing, "BLOCK_ENTRIES", entries):
        run, record = dgfm_run(matrix, part, obj, cfg, record_every=record_every, x0=x0,
                               stationarity_every=stationarity_every, stationarity_samples=4)
        state = NetworkState.initial(matrix.m, x0)
        for _ in range(cfg.iters):
            step(state, matrix, part, obj, cfg)
    for name in ("x", "y", "v", "x_prev"):
        assert getattr(run, name).tobytes() == getattr(state, name).tobytes(), name
    assert ((run.k, run.oracle_calls, run.comm_rounds, run.restart_log)
            == (state.k, state.oracle_calls, state.comm_rounds, state.restart_log))
    assert record.restarts == state.restart_log


@PROPERTY
@given(seed=st.integers(0, 2**96), lane=st.integers(0, 2) | st.integers(0, 2**40),
       k=st.sampled_from(KEY_EDGES) | st.integers(0, 2**70))
def test_key_block_equals_the_seed_sequence_keys(seed, lane, k):
    start, keys = key_block(seed, lane, k)
    assert start <= k < start + KEY_BLOCK and start % KEY_BLOCK == 0
    assert keys.shape == (KEY_BLOCK, 2) and keys.dtype == np.uint64
    for j in (start, k, start + KEY_BLOCK - 1):
        want = np.random.SeedSequence([seed, lane, j]).generate_state(2, np.uint64)
        assert np.array_equal(keys[j - start], want), (seed, lane, j)


finite = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a, b):
    return struct.pack("<d", a) == struct.pack("<d", b)


@st.composite
def records(draw):
    record = RunRecord(metadata={"algo": draw(st.sampled_from(["dgfm", "gfm-plus"])),
                                 "seed": draw(st.integers(0, 2**32))})
    for k in range(1, draw(st.integers(0, 5)) + 1):
        record.append(RunEntry(iteration=k, zo_calls=draw(st.integers(0, 2**40)),
                               comm_rounds=draw(st.integers(0, 2**40)), loss=draw(finite),
                               consensus_err=draw(finite), stationarity=draw(st.none() | finite),
                               wall_ms=draw(finite)))
    return record


@PROPERTY
@given(recs=st.lists(records(), max_size=3))
def test_csv_round_trip_is_bit_equal(recs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csv")
        write_records(recs, path)
        rows = read_csv_rows(path)
        write_records(recs, path, format="json")
        with open(path) as fh:
            json_entries = [entry for r in json.load(fh) for entry in r["entries"]]
    entries = [(r.metadata, e) for r in recs for e in r.entries]
    assert len(rows) == len(entries)
    for row, (meta, e) in zip(rows, entries):
        assert (row["algo"], row["seed"]) == (meta["algo"], meta["seed"])
        assert (row["iter"], row["zo_calls"], row["comm_rounds"]) == (
            e.iteration, e.zo_calls, e.comm_rounds)
        for key, value in (("loss", e.loss), ("consensus_err", e.consensus_err),
                           ("wall_ms", e.wall_ms)):
            assert same_bits(row[key], value)
        if e.stationarity is None:
            assert row["stationarity"] is None
        else:
            assert same_bits(row["stationarity"], e.stationarity)
    # JSON entries hold the CSV's entry columns in its order; equal reprs are equal bits
    assert [[(k, repr(v)) for k, v in entry.items()] for entry in json_entries] == [
        [(k, repr(v)) for k, v in row.items()][2:] for row in rows]


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    nonzero = finite.filter(lambda v: v != 0.0)
    dense = np.array([[draw(st.just(0.0) | nonzero) for _ in range(d)] for _ in range(n)])
    # LIBSVM text carries no width: the last column needs a nonzero to come back
    dense[draw(st.integers(0, n - 1)), d - 1] = draw(nonzero)
    labels = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)])
    return SparseDataset(features=sp.csr_matrix(dense), labels=labels)


@PROPERTY
@given(ds=datasets())
def test_libsvm_round_trip_is_bit_equal(ds):
    back = parse_libsvm(to_libsvm(ds))
    assert back.features.shape == ds.features.shape
    assert np.array_equal(back.features.indptr, ds.features.indptr)
    assert np.array_equal(back.features.indices, ds.features.indices)
    assert back.features.data.tobytes() == ds.features.data.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


@PROPERTY
@given(n=st.integers(1, 300), m=st.integers(1, 16), seed=st.integers(0, 2**32))
def test_partition_covers_each_index_once(n, m, seed):
    m = min(m, n)
    part = partition(n, m, seed)
    assert part.m == m
    assert np.array_equal(np.sort(np.concatenate(part.assignment)), np.arange(n))
    assert max(part.sizes) - min(part.sizes) <= 1
    again = partition(n, m, seed)
    assert all(np.array_equal(a, b) for a, b in zip(part.assignment, again.assignment))


@st.composite
def svm_batches(draw):
    """A random CSR objective and a batch of (row of P, sample index) to evaluate.

    About a third of the rows have no nonzeros; up to 3n indices force repeats;
    each row of P has its own scale in [1e-3, 10].
    """
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    keep = rng.uniform(size=(n, d)) < rng.choice([0.0, 0.3, 1.0], size=(n, 1))
    features = sp.csr_matrix(np.where(keep, rng.uniform(-1.0, 1.0, (n, d)), 0.0))
    obj = CappedL1Svm(features, rng.choice([-1.0, 1.0], n), lam=draw(st.floats(0.0, 1.0)),
                      alpha=draw(st.floats(0.01, 10.0)))
    r = draw(st.integers(0, 3 * n))
    P = 10.0 ** rng.uniform(-3.0, 1.0, (r, 1)) * rng.standard_normal((r, d))
    return obj, P, rng.integers(0, n, r)


def scalar_evals(obj, P, xis):
    return np.array([obj.eval(p, xi) for p, xi in zip(P, xis)], dtype=float)


@PROPERTY
@given(case=svm_batches())
def test_csr_kernel_equals_scalar_eval(case):
    obj, P, xis = case
    np.testing.assert_allclose(obj.eval_batch(P, xis), scalar_evals(obj, P, xis),
                               rtol=1e-12, atol=1e-12)


@PROPERTY
@given(d=st.integers(1, 6), n=st.integers(1, 5), r=st.integers(0, 8),
       seed=st.integers(0, 2**32))
def test_base_batch_is_the_scalar_loop(d, n, r, seed):
    rng = np.random.default_rng(seed)
    P = 10.0 ** rng.uniform(-3.0, 1.0, (r, 1)) * rng.standard_normal((r, d))
    xis = rng.integers(0, n, r)
    for obj in (QuadraticTest(d, n), AbsTest(d, n), LinearTest(rng.standard_normal(d), n)):
        assert obj.eval_batch(P, xis).tobytes() == scalar_evals(obj, P, xis).tobytes()


@PROPERTY
@given(case=svm_batches(), at=st.integers(0, 2**16), below=st.booleans())
def test_batch_rejects_what_eval_rejects(case, at, below):
    svm, P, xis = case
    for obj in (svm, AbsTest(svm.dim, svm.n_samples)):
        with pytest.raises(ShapeError):
            obj.eval_batch(P[:, :-1], xis)
        with pytest.raises(ShapeError):
            obj.eval_batch(np.vstack([P, np.zeros((1, svm.dim))]), xis)
        if len(xis):
            bad = xis.copy()
            bad[at % len(bad)] = -1 if below else svm.n_samples
            with pytest.raises(SampleIndexError):
                obj.eval_batch(P, bad)
