"""Gradient-free optimizers over a simulated synchronous agent network.

All four methods run one iteration, `step`, on stacked per-agent
iterates: each agent forms a new estimate ``v_new`` of the smoothed
gradient at its iterate, the gradient-tracking variable follows the
estimates, ``y <- W((y - v) + v_new)``, so that the network average of y
equals the average estimate, and the iterates descend it,
``x <- W(x - eta y)``. The methods differ only in how ``v_new`` is formed:

* ``dgfm`` -- the mean of ``batch`` fresh two-point estimates per agent.
* ``dgfm_plus`` -- variance-reduced variant: every ``period`` iterations
  each agent restarts from a mega-batch estimate and the tracker is reset
  to the estimates and gossiped ``gossip_rounds`` times; in between, a
  cheap paired difference updates the previous estimate recursively.
* ``gfm`` / ``gfm_plus`` -- the centralized baselines: the same iteration
  with one agent holding every sample and W = [[1]], under which the
  tracked update is plain descent bit for bit. One agent has no
  neighbours, so it counts no communication rounds.

Every stochastic draw comes from a counter-based stream keyed by
(seed, lane, iteration), which a run opens by re-keying one cached Philox
(see :mod:`dgfm.rng`). An iteration draws every agent's pairs at once, and
agent i's pairs are row i of that draw; how draws are cut into blocks and
grouped over iterations and threads is `DrawLayout`'s to state, and no
number depends on it. So the agent updates inside one iteration are
independent and could run in any order or in parallel with identical
results; the gossip applications are the synchronization barriers. Exact
invariants (used heavily by the tests): the mean of the tracking variable
after the step equals the mean of the current estimates, and the mean
iterate moves by exactly -eta * mean(tracker), both up to round-off.

This module holds the algorithms only; the hyperparameters their analysis
prescribes at a target accuracy are in :mod:`dgfm.params`.
"""

import math
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .data import partition as partition_samples
from .errors import (
    BudgetExceeded,
    EmptyTrajectory,
    InvalidParameter,
    InvalidTopology,
    NumericFailure,
    ShapeError,
    require_int,
    require_positive,
)
from .metrics import RunEntry, RunRecord, consensus_spread, stationarity_estimate
from .rng import StreamCache, substream
from .smoothing import (
    DrawLayout,
    estimate_block,
    minibatch_estimate,  # noqa: F401 -- unused, but perfbench's tracer patches it here
    sample_batch,  # noqa: F401 -- unused, but perfbench's tracer patches it here
    spider_difference,  # noqa: F401 -- unused, but perfbench's tracer patches it here
    two_point_estimate,  # noqa: F401 -- unused, but perfbench's tracer patches it here
)
from .topology import MixingMatrix, build_complete

__all__ = [
    "DgfmConfig",
    "DgfmPlusConfig",
    "NetworkState",
    "dgfm_plus_run",
    "dgfm_run",
    "gfm_plus_run",
    "gfm_run",
    "iteration_cost",
    "select_output",
    "step",
]

# Stream lanes; draws, metrics sampling and output selection never collide.
_LANE_DRAW = 0
_LANE_METRICS = 1
_LANE_SELECT = 2
# a state's window before its first fill: (key, start, stop, window), covering no k
_NO_WINDOW = (None, 0, 0, None)


def _check_config(cfg, *counts):
    """eta, delta and the ``counts`` positive; iters, seed and the counts ints, kept as such."""
    values = {name: getattr(cfg, name) for name in counts}
    require_positive(eta=cfg.eta, delta=cfg.delta, **values)
    ints = require_int(0, iters=cfg.iters, seed=cfg.seed, **values)
    for name, value in zip(("iters", "seed", *counts), ints):
        object.__setattr__(cfg, name, value)


@dataclass(frozen=True)
class DgfmConfig:
    """Hyperparameters for the tracked method and its centralized baseline:
    every agent averages the two-point estimates of ``batch`` pairs per
    iteration."""

    eta: float
    delta: float
    iters: int
    seed: int
    batch: int = 1

    def __post_init__(self):
        _check_config(self, "batch")


@dataclass(frozen=True)
class DgfmPlusConfig:
    """Hyperparameters for the variance-reduced methods.

    ``period`` is the cycle length (a mega-batch restart fires at every
    iteration k with k mod period == 0), ``mega_batch`` the restart batch
    size, ``batch`` the per-iteration batch size in between, and
    ``gossip_rounds`` the number of extra communication rounds applied to
    the tracking variable at a restart.
    """

    eta: float
    delta: float
    iters: int
    seed: int
    period: int
    batch: int
    mega_batch: int
    gossip_rounds: int = 1

    def __post_init__(self):
        _check_config(self, "period", "batch", "mega_batch", "gossip_rounds")


def iteration_cost(cfg, m, k):
    """(oracle calls, communication rounds) of iteration k of m agents under ``cfg``.

    An iteration gossips the tracker and the iterate once each (2 rounds)
    and costs 2 m b calls under a `DgfmConfig`, or 4 m b (a paired
    difference) under a `DgfmPlusConfig`. A `DgfmPlusConfig` restart
    (k mod period == 0) costs 2 m b' calls and ``gossip_rounds`` + 1 rounds
    instead. A single agent has no neighbours and counts no rounds.
    """
    rounds = 2
    if not isinstance(cfg, DgfmPlusConfig):
        calls = 2 * m * cfg.batch
    elif k % cfg.period == 0:
        calls, rounds = 2 * m * cfg.mega_batch, cfg.gossip_rounds + 1
    else:
        calls = 4 * m * cfg.batch
    return calls, rounds if m > 1 else 0


@dataclass
class NetworkState:
    """Stacked per-agent iterates plus bookkeeping counters.

    Rows index agents. ``y`` is the gradient-tracking variable, ``v`` the
    agents' current estimates (formed in the last step), and ``x_prev`` the
    previous iterate the paired differences are taken against. At k = 0 y
    and v are zero and x_prev equals x.

    ``_streams``, ``_layouts`` and ``_window`` are caches, not state: the
    run's one re-keyed Philox (`dgfm.rng.StreamCache`), built at the first
    step and rebuilt when the config's seed changes; the `DrawLayout` of
    each batch size the run draws, rebuilt when the partition's shards or
    the dimension change; and the `DrawWindow` the last draw was taken
    from, with the layout, seed and delta it was filled under and the
    iterations it covers. The caches give exactly the streams of
    `substream` and the draws of a fresh `DrawLayout`, so copying a state,
    or dropping its caches, changes no number.
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    x_prev: np.ndarray
    k: int = 0
    oracle_calls: int = 0
    comm_rounds: int = 0
    restart_log: list = field(default_factory=list)
    _streams: StreamCache = field(default=None, init=False, repr=False, compare=False)
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _window: tuple = field(default=_NO_WINDOW, init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, m, x0):
        """All m >= 1 agents start at the common point x0."""
        m = require_int(1, m=m)
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1:
            raise ShapeError(f"x0 must be a vector, got shape {x0.shape}")
        x = np.tile(x0, (m, 1))
        return cls(x=x, y=np.zeros_like(x), v=np.zeros_like(x), x_prev=x.copy())

    @property
    def g_prev(self):
        """Read-only alias of ``v``: the previous estimates, as dgfm names them."""
        return self.v

    @property
    def m(self):
        return self.x.shape[0]

    @property
    def d(self):
        return self.x.shape[1]

    @property
    def mean_x(self):
        return _row_mean(self.x)


def _row_mean(z):
    # what ndarray.mean(axis=0) computes, without its wrapper
    return np.add.reduce(z, axis=0) / z.shape[0]


def _require_matrix(matrix):
    if not isinstance(matrix, MixingMatrix):
        raise InvalidTopology(
            f"topology must be a MixingMatrix, got {type(matrix).__name__}; build one with "
            "build_ring, build_complete, build_metropolis_hastings or MixingMatrix.from_weights"
        )


def _require_partition(partition, m, objective):
    """Raise ShapeError unless ``partition`` splits the objective's samples over m agents."""
    if (partition.m, partition.n) != (m, objective.n_samples):
        raise ShapeError(f"partition has {partition.m} agents and {partition.n} samples; "
                         f"the run has {m} agents and {objective.n_samples} samples")


def _require_finite(z, what, k):
    """Raise NumericFailure naming the first agent whose row of ``z`` is not finite."""
    # a finite sum needs every term finite; one that overflows gets the full pass
    if math.isfinite(np.add.reduce(z, axis=None)):
        return
    finite = np.isfinite(z)
    if not finite.all():
        agent = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NumericFailure(f"non-finite {what} of agent {agent} at iteration {k}", iteration=k)


def _streams(state, cfg):
    """The state's `StreamCache` of ``cfg.seed``: ``substream(cfg.seed, lane, k)`` by re-keying."""
    if state._streams is None or state._streams.seed != cfg.seed:
        state._streams = StreamCache(cfg.seed)
    return state._streams


def _layout(state, partition, size):
    """The `DrawLayout` of the partition's shards, ``size`` and d, from the state's cache."""
    layout = state._layouts.get(size)
    if layout is None or layout.shards is not partition.assignment or layout.d != state.d:
        layout = state._layouts[size] = DrawLayout(partition.assignment, size, state.d)
    return layout


def _window_size(cfg, most, k):
    """Iterations from k, at most ``most`` but at least one, whose draws one window holds.

    It never passes ``cfg.iters``; under a `DgfmPlusConfig` a restart
    stands alone, and the paired iterations after it share windows up to
    the next restart.
    """
    count = min(max(most, 1), cfg.iters - k)
    if isinstance(cfg, DgfmPlusConfig):
        phase = k % cfg.period
        count = 1 if phase == 0 else min(count, cfg.period - phase)
    return count


def _draw(state, partition, cfg, size):
    """Iteration k's draw of ``size`` pairs per agent, as `DrawWindow.take` hands it out.

    It comes from the state's window if that covers k, was filled from
    this draw layout under the config's seed and delta, and has not handed
    k's draw out yet; otherwise a window is filled from k (see
    `DrawLayout`), a pair's two streams from `dgfm.rng.StreamCache.pair`.
    """
    k = state.k
    layout = _layout(state, partition, size)
    key, start, stop, window = state._window
    if key == (layout, cfg.seed, cfg.delta) and start <= k < stop:
        blocks = window.take(k - start)
        if blocks is not None:
            return blocks
    # let go of a spent window before the next draw: a step holds one window
    state._window = window = _NO_WINDOW
    streams = _streams(state, cfg)
    count = _window_size(cfg, layout.window, k)
    rngs = (streams.pair(_LANE_DRAW, k) if layout.paired
            else (streams(_LANE_DRAW, j) for j in range(k, k + count)))
    window = layout.draw_window(rngs, count, cfg.delta)
    state._window = (layout, cfg.seed, cfg.delta), k, k + count, window
    return window.take(0)


def _estimates(state, partition, objective, cfg, size, paired):
    """Every agent's new estimate from ``size`` pairs of iteration k's draw, (m, d).

    The mean two-point estimate at x, or with ``paired`` the previous
    estimate plus the paired difference of the means at x and x_prev over
    the same pairs. Each block of the draw is evaluated at once (see
    `estimate_block`); its temporaries, and the sums, are gone on return.
    """
    m, d = state.x.shape
    sums = np.empty((2 if paired else 1, m, d))
    for agents, first, xis, ws, steps in _draw(state, partition, cfg, size):
        X = np.array((state.x[agents], state.x_prev[agents])) if paired else state.x[None, agents]
        estimate_block(objective, X, cfg.delta, xis, ws, steps, sums[:, agents], first)
        # let go of the block before the next one is drawn: held on, its
        # directions and steps slowed a 64-agent, d = 2000 draw by 12%
        del ws, steps
    if size > 1:
        sums /= size
    return state.v + (sums[0] - sums[1]) if paired else sums[0]


def step(state, matrix, partition, objective, cfg):
    """One synchronous iteration of the tracked method.

    Every gossip round applies the one `MixingMatrix` ``matrix``, and
    ``cfg`` picks how each agent i forms its new estimate at its iterate
    from its b pairs, row i of the iteration's one draw:

    * a `DgfmConfig` averages the two-point estimates of b = ``batch``
      pairs from the agent's shard;
    * a `DgfmPlusConfig` restart (k mod period == 0) does the same over
      b = ``mega_batch`` pairs; in between, each agent adds a paired
      difference over b = ``batch`` shared pairs to its previous estimate.

    The draw comes in blocks, from a window of consecutive iterations'
    draws (see `DrawLayout`), which stops at ``cfg.iters`` and before a
    `DgfmPlusConfig` restart, whose draw stands alone. No number depends
    on the window or the thread. Each block is evaluated as one (see
    `estimate_block`), with one scalar ``eval`` per probe: a paired
    difference evaluates it at x and at x_prev. The estimates equal, bit
    for bit, the pair-by-pair sums of `two_point_estimate`, divided by b.

    At a restart the tracker is reset to the new estimates and gossiped
    ``gossip_rounds`` times, and its consensus error after each round is
    logged; otherwise it is gossiped once with the estimate increment
    folded in. Both cases end with the gossiped descent step on x. The
    state's oracle-call and communication-round counters grow by
    `dgfm.iteration_cost(cfg, m, k)`. The state's k must lie in [0,
    ``cfg.iters``) (`BudgetExceeded`), the matrix must be a `MixingMatrix`
    (`InvalidTopology`) of the state's agents, and the partition must give
    each of them a shard of the objective's samples (`ShapeError`). Past
    these checks, which `dgfm_run` makes once per run, each gossip round
    is `MixingMatrix.gossip`, unchecked. Mutates
    ``state`` and returns it; a non-finite estimate or iterate raises
    `NumericFailure` naming the agent and iteration and leaves ``state``
    as it was, counters and restart log included; only its caches may
    have moved on, which changes no later number. So does a draw whose
    directions fail their unit-norm check (`InvalidParameter`), at the
    iteration of that draw, also when it sits in a window.
    """
    _require_matrix(matrix)
    if not 0 <= state.k < cfg.iters:
        raise BudgetExceeded(f"iteration {state.k} outside the configured budget of {cfg.iters}")
    if state.m != matrix.m:
        raise ShapeError(f"state has {state.m} agents, topology has {matrix.m}")
    _require_partition(partition, state.m, objective)
    return _advance(state, matrix, partition, objective, cfg)


def _advance(state, matrix, partition, objective, cfg):
    """`step` past its checks: each gossip round is ``matrix.gossip``."""
    m = state.x.shape[0]
    k = state.k
    recursive = isinstance(cfg, DgfmPlusConfig)
    restart = recursive and k % cfg.period == 0
    size = cfg.mega_batch if restart else cfg.batch
    v_new = _estimates(state, partition, objective, cfg, size, paired=recursive and not restart)
    _require_finite(v_new, "estimate", k)
    if restart:
        y_new = v_new.copy()
        trace = [consensus_spread(y_new, _row_mean(y_new))]
        for _ in range(cfg.gossip_rounds):
            y_new = matrix.gossip(y_new)
            trace.append(consensus_spread(y_new, _row_mean(y_new)))
    else:
        # (y - v) + v_new, in that order, keeps the m = 1 path bit-equal to
        # plain descent; one temporary holds it.
        y_new = state.y - state.v
        y_new += v_new
        y_new = matrix.gossip(y_new)
    # x - eta y_new, in one temporary
    x_new = cfg.eta * y_new
    np.subtract(state.x, x_new, out=x_new)
    x_new = matrix.gossip(x_new)
    _require_finite(x_new, "iterate", k)
    # commit the iteration as a whole: a failure above leaves the state untouched
    if restart:
        state.restart_log.append({"iter": k, "tracking_consensus": trace})
    calls, rounds = iteration_cost(cfg, m, k)
    state.oracle_calls += calls
    state.comm_rounds += rounds
    state.x_prev, state.x, state.v, state.y = state.x, x_new, v_new, y_new
    state.k += 1
    return state


def _observe(record, objective, state, cfg, t0, stationarity_every, stationarity_samples):
    """Append one metrics entry; loss/stationarity never touch the oracle counter."""
    xbar = state.mean_x  # formed once, for the loss and the consensus error
    loss = objective.full_loss(xbar)
    if not math.isfinite(loss):
        raise NumericFailure(f"non-finite loss at iteration {state.k}", iteration=state.k)
    stat = None
    if stationarity_every and (len(record.entries) + 1) % stationarity_every == 0:
        stat = stationarity_estimate(objective, xbar, cfg.delta, stationarity_samples,
                                     _streams(state, cfg)(_LANE_METRICS, state.k)).value
    record.append(
        RunEntry(
            iteration=state.k,
            zo_calls=state.oracle_calls,
            comm_rounds=state.comm_rounds,
            loss=loss,
            consensus_err=consensus_spread(state.x, xbar),
            stationarity=stat,
            wall_ms=(perf_counter() - t0) * 1000.0,
        )
    )


def _draw_output(seed, candidates):
    """Index of the output iterate, uniform over ``candidates``, from the seed's selection lane.

    A run draws it before its first step, so it keeps only the drawn iterate.
    """
    return int(substream(seed, _LANE_SELECT).integers(candidates))


def dgfm_run(matrix, partition, objective, cfg, record_every=1, x0=None,
             metadata=None, stationarity_every=10, stationarity_samples=32,
             keep_iterates=True):
    """Run the tracked method, plain or variance-reduced, for ``cfg.iters`` iterations.

    Every gossip round applies the one `MixingMatrix` ``matrix``, whose
    spectral gap the record's metadata carries as ``rho``; ``cfg`` picks the
    estimate (see `step`): a `DgfmConfig` runs dgfm, a `DgfmPlusConfig`
    dgfm-plus. All agents start from the common point ``x0`` (zero by
    default). Metrics are recorded every ``record_every`` iterations; the
    Monte Carlo stationarity proxy every ``stationarity_every``-th recorded
    entry (0 disables it). Unless ``keep_iterates`` is off, the record
    keeps the output of `select_output`: one of the m * (iters //
    record_every) recorded (iteration, agent) iterates, ordered iteration
    first, drawn uniformly from the seed's selection stream before the
    first step, so only that one (1, d) row is ever copied. Identical
    (config, seed) give bit-identical records, the output included, apart
    from wall-clock times.

    For dgfm-plus, restarts fire at every iteration k with
    k mod period == 0, so a final partial cycle simply runs short when
    ``iters`` is not a multiple of the period. Per-restart gossip
    diagnostics are logged into the record.

    The run checks the matrix and the partition once, before its first
    step, and its loop stays inside the budget; it then advances through
    the body of `step` without `step`'s checks, so each iteration is that
    of `step`, bit for bit.

    Returns
    -------
    (NetworkState, RunRecord)
    """
    _require_matrix(matrix)
    m = matrix.m
    _require_partition(partition, m, objective)
    x0 = np.zeros(objective.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (objective.dim,):
        raise ShapeError(f"x0 must have shape ({objective.dim},), got {x0.shape}")
    bad = np.flatnonzero(~np.isfinite(x0))
    if bad.size:
        raise InvalidParameter(f"x0 must be finite, got {x0[bad[0]]} at index {bad[0]}")
    record_every, stationarity_samples = require_int(
        1, record_every=record_every, stationarity_samples=stationarity_samples)
    stationarity_every = require_int(0, stationarity_every=stationarity_every)
    state = NetworkState.initial(m, x0)
    algo = "dgfm-plus" if isinstance(cfg, DgfmPlusConfig) else "dgfm"
    record = RunRecord(metadata={
        "algo": algo, "seed": cfg.seed, "config": asdict(cfg), "dataset": objective.name,
        "topology": f"m={m}", "rho": matrix.rho, **(metadata or {}),
    })
    recorded = cfg.iters // record_every
    output_k = None
    if keep_iterates and recorded:
        pick = _draw_output(cfg.seed, m * recorded)
        output_k, output_agent = (pick // m + 1) * record_every, pick % m
    t0 = perf_counter()
    for _ in range(cfg.iters):
        _advance(state, matrix, partition, objective, cfg)
        if state.k % record_every == 0:
            _observe(record, objective, state, cfg, t0, stationarity_every, stationarity_samples)
        if state.k == output_k:
            record.snapshots.append((state.k, state.x[output_agent:output_agent + 1].copy()))
    record.restarts = list(state.restart_log)
    return state, record


def gfm_run(objective, cfg, record_every=1, x0=None, metadata=None,
            stationarity_every=10, stationarity_samples=32, keep_iterates=True):
    """Centralized descent: `dgfm_run` with one agent holding every sample.

    A `DgfmConfig` runs gfm: per iteration, draw ``cfg.batch`` pairs,
    average their two-point estimates and step against the average (2 b
    oracle calls). A `DgfmPlusConfig` runs gfm-plus: a mega-batch restart
    every ``period`` iterations, the paired-difference recursion in
    between, and a plain descent step on the running estimate; with period
    1 it coincides bit-for-bit with gfm at batch ``mega_batch``. Restarts
    are logged into the record with all-zero consensus traces. One agent
    has no neighbours, so no communication round is counted. The keywords
    are those of `dgfm_run`; unless ``keep_iterates`` is off, the record
    keeps the iterate of a recorded iteration drawn uniformly before the
    run, for `select_output`.

    Returns
    -------
    RunRecord
    """
    algo = "gfm-plus" if isinstance(cfg, DgfmPlusConfig) else "gfm"
    metadata = {"algo": algo, "topology": "centralized", "rho": None, **(metadata or {})}
    return dgfm_run(build_complete(1), partition_samples(objective.n_samples, 1, cfg.seed),
                    objective, cfg, record_every, x0, metadata, stationarity_every,
                    stationarity_samples, keep_iterates)[1]


# dgfm-plus and gfm-plus are the same runs; the config type picks the estimate.
dgfm_plus_run = dgfm_run
gfm_plus_run = gfm_run


def select_output(record):
    """The run's output iterate: uniform over its recorded (agent, iteration) iterates.

    This is the randomized output rule the (delta, epsilon)-Goldstein
    guarantee applies to. The draw was made before the run, from the
    selection stream of the config's seed (see `dgfm_run`), so the output
    is a function of (config, seed) like the rest of the record. It is
    over the subsampled trajectory (every ``record_every``-th iteration),
    not over all m * K iterates; run with ``record_every=1`` when the full
    trajectory matters. Raises `EmptyTrajectory` when the run kept no
    iterate: with ``keep_iterates`` off, or with fewer than
    ``record_every`` iterations.
    """
    if not record.snapshots:
        raise EmptyTrajectory("record kept no output iterate")
    [(_, x)] = record.snapshots
    return x[0].copy()
