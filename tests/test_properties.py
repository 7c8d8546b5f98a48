"""Exact invariants of the step engine over random networks, configs and seeds.

Hypothesis draws the number of agents (1 to 8), the dimension, the seed,
the config type and its schedule, and the topology: the complete graph or
Metropolis-Hastings weights on a random connected graph. After every
`step` the tracker mean must equal the mean of the current estimates, the
mean iterate must move by exactly -eta times the tracker mean, and the
oracle and communication counters must equal the closed form of
acceptance criterion 07. At every restart the tracker's consensus error
must shrink by at least rho^2 per gossip round. Records, LIBSVM text and
partitions round-trip or cover exactly.
"""

import math
import os
import struct
import tempfile

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dgfm import (
    AbsTest,
    DgfmConfig,
    DgfmPlusConfig,
    NetworkState,
    RunEntry,
    RunRecord,
    SparseDataset,
    build_complete,
    build_metropolis_hastings,
    mix,
    parse_libsvm,
    partition,
    read_csv_rows,
    step,
    to_libsvm,
    write_records,
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
