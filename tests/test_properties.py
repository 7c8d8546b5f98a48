"""Exact invariants of the step engine over random networks, configs and seeds.

Hypothesis draws the number of agents (1 to 8), the dimension, the seed,
the config type and its schedule, and the topology: the complete graph or
Metropolis-Hastings weights on a random connected graph. After every
`step` the tracker mean must equal the mean of the current estimates, the
mean iterate must move by exactly -eta times the tracker mean, and the
oracle and communication counters must equal the closed form of
acceptance criterion 07.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dgfm import (
    AbsTest,
    DgfmConfig,
    DgfmPlusConfig,
    NetworkState,
    build_complete,
    build_metropolis_hastings,
    mix,
    partition,
    step,
)

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def topologies(draw):
    m = draw(st.integers(1, 8))
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
@given(topology=topologies(), d=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_mix_preserves_column_sums(topology, d, seed):
    z = np.random.default_rng(seed).standard_normal((topology.m, d))
    assert np.allclose(mix(topology, z).sum(axis=0), z.sum(axis=0), rtol=0, atol=1e-12)
