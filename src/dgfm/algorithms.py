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
(seed, lane, agent, iteration); see :mod:`dgfm.rng`. Agent updates inside
one iteration are independent and could run in any order or in parallel
with identical results; the gossip applications are the synchronization
barriers. Exact invariants (used heavily by the tests): the mean of the
tracking variable after the step equals the mean of the current
estimates, and the mean iterate moves by exactly -eta * mean(tracker),
both up to round-off.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .data import partition as partition_samples
from .errors import (
    BudgetExceeded,
    EmptyTrajectory,
    InvalidParameter,
    NumericFailure,
    ShapeError,
)
from .metrics import RunEntry, RunRecord, consensus_error, stationarity_estimate
from .rng import substream
from .smoothing import (
    OracleCounter,
    SmoothingParams,
    minibatch_estimate,
    sample_batch,
    sigma_squared,
    spider_difference,
    surrogate_smoothness,
    two_point_estimate,  # noqa: F401 -- unused, but perfbench's tracer patches it here
)
from .topology import MixingMatrix, TopologySchedule, build_complete, mix

__all__ = [
    "DgfmConfig",
    "DgfmPlusConfig",
    "NetworkState",
    "TheoremParams",
    "dgfm_plus_run",
    "dgfm_run",
    "gfm_plus_run",
    "gfm_run",
    "select_output",
    "step",
    "theorem_params_dgfm",
    "theorem_params_dgfm_plus",
]

# Stream lanes; draws, metrics sampling and output selection never collide.
_LANE_DRAW = 0
_LANE_METRICS = 1
_LANE_SELECT = 2

RHO_FLOOR = 1e-6


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise InvalidParameter(f"{name} must be positive, got {value}")


def _require_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if value < 0:
            raise InvalidParameter(f"{name} must be >= 0, got {value}")


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
        _require_positive(eta=self.eta, delta=self.delta, batch=self.batch)
        _require_nonnegative(iters=self.iters, seed=self.seed)


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
        _require_positive(
            eta=self.eta,
            delta=self.delta,
            period=self.period,
            batch=self.batch,
            mega_batch=self.mega_batch,
            gossip_rounds=self.gossip_rounds,
        )
        _require_nonnegative(iters=self.iters, seed=self.seed)


@dataclass
class NetworkState:
    """Stacked per-agent iterates plus bookkeeping counters.

    Rows index agents. ``y`` is the gradient-tracking variable, ``v`` the
    agents' current estimates (formed in the last step), and ``x_prev`` the
    previous iterate the paired differences are taken against. At k = 0 y
    and v are zero and x_prev equals x.
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    x_prev: np.ndarray
    k: int = 0
    comm_rounds: int = 0
    counter: OracleCounter = field(default_factory=OracleCounter)
    restart_log: list = field(default_factory=list)

    @classmethod
    def initial(cls, m, x0):
        """All agents start at the common point x0."""
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
    def oracle_calls(self):
        return self.counter.count

    @property
    def mean_x(self):
        return self.x.mean(axis=0)


def _as_schedule(topology):
    if isinstance(topology, MixingMatrix):
        return TopologySchedule.static(topology)
    return topology


def _require_finite(z, what, k):
    """Raise NumericFailure naming the first agent whose row of ``z`` is not finite."""
    finite = np.isfinite(z)
    if not finite.all():
        agent = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NumericFailure(f"non-finite {what} of agent {agent} at iteration {k}", iteration=k)


def step(state, topology, partition, objective, cfg):
    """One synchronous iteration of the tracked method.

    ``topology`` is a MixingMatrix or a TopologySchedule, and ``cfg`` picks
    how each agent i, drawing from its own stream for (i, k), forms its new
    estimate at its iterate:

    * a `DgfmConfig` averages the two-point estimates of ``batch`` pairs
      from the agent's shard (2 m b oracle calls);
    * a `DgfmPlusConfig` restart (k mod period == 0) does the same over
      ``mega_batch`` pairs (2 m b' oracle calls); in between, each agent
      adds a paired difference over ``batch`` shared pairs to its previous
      estimate (4 m b oracle calls).

    At a restart the tracker is reset to the new estimates and gossiped
    ``gossip_rounds`` times, and its consensus error after each round is
    logged; otherwise it is gossiped once with the estimate increment
    folded in. Both cases end with the gossiped descent step on x. Every
    gossip round counts one communication round; a single agent has no
    neighbours and counts none. Mutates ``state`` and returns it; a
    non-finite estimate or iterate raises `NumericFailure` naming the
    agent and iteration and leaves ``state`` as it was, counters and
    restart log included.
    """
    schedule = _as_schedule(topology)
    if state.k >= cfg.iters:
        raise BudgetExceeded(f"iteration {state.k} outside the configured budget of {cfg.iters}")
    if state.m != schedule.m:
        raise ShapeError(f"state has {state.m} agents, topology has {schedule.m}")
    m, d = state.x.shape
    params = SmoothingParams(delta=cfg.delta, dim=d)
    k = state.k
    recursive = isinstance(cfg, DgfmPlusConfig)
    restart = recursive and k % cfg.period == 0
    size = cfg.mega_batch if restart else cfg.batch
    calls = OracleCounter()
    rounds = 0

    def gossip(matrix, z):
        # one communication round; a single agent has no neighbours and counts none
        nonlocal rounds
        if m == 1:
            return z
        rounds += 1
        return mix(matrix, z)

    v_new = np.empty((m, d))
    for i in range(m):
        rng = substream(cfg.seed, _LANE_DRAW, i, k)
        batch = sample_batch(partition.assignment[i], size, d, rng)
        if recursive and not restart:
            v_new[i] = state.v[i] + spider_difference(
                objective, state.x[i], state.x_prev[i], params, batch, calls
            )
        else:
            v_new[i] = minibatch_estimate(objective, state.x[i], params, batch, calls)
    _require_finite(v_new, "estimate", k)
    if restart:
        y_new = v_new.copy()
        trace = [consensus_error(y_new)]
        for tau in range(1, cfg.gossip_rounds + 1):
            y_new = gossip(schedule.matrix_at(k, tau), y_new)
            trace.append(consensus_error(y_new))
    else:
        # (y - v) + v_new keeps the m = 1 path bit-equal to plain descent.
        y_new = gossip(schedule.matrix_at(k), (state.y - state.v) + v_new)
    x_new = gossip(schedule.matrix_at(k), state.x - cfg.eta * y_new)
    _require_finite(x_new, "iterate", k)
    # commit the iteration as a whole: a failure above leaves the state untouched
    if restart:
        state.restart_log.append({"iter": k, "tracking_consensus": trace})
    state.counter.add(calls.count)
    state.comm_rounds += rounds
    state.x_prev, state.x, state.v, state.y = state.x, x_new, v_new, y_new
    state.k += 1
    return state


def _observe(record, objective, state, cfg, t0, stationarity_every, stationarity_samples):
    """Append one metrics entry; loss/stationarity never touch the oracle counter."""
    xbar = state.mean_x
    loss = objective.full_loss(xbar)
    if not math.isfinite(loss):
        raise NumericFailure(f"non-finite loss at iteration {state.k}", iteration=state.k)
    stat = None
    if stationarity_every and (len(record.entries) + 1) % stationarity_every == 0:
        stat = stationarity_estimate(objective, xbar, cfg.delta, stationarity_samples,
                                     substream(cfg.seed, _LANE_METRICS, state.k)).value
    record.append(
        RunEntry(
            iteration=state.k,
            zo_calls=state.oracle_calls,
            comm_rounds=state.comm_rounds,
            loss=loss,
            consensus_err=consensus_error(state.x),
            stationarity=stat,
            wall_ms=(perf_counter() - t0) * 1000.0,
        )
    )


def dgfm_run(matrix, partition, objective, cfg, record_every=1, x0=None,
             metadata=None, stationarity_every=10, stationarity_samples=32,
             keep_iterates=True):
    """Run the tracked method, plain or variance-reduced, for ``cfg.iters`` iterations.

    ``matrix`` is a MixingMatrix or a TopologySchedule; ``cfg`` picks the
    estimate (see `step`): a `DgfmConfig` runs dgfm, a `DgfmPlusConfig`
    dgfm-plus. All agents start from the common point ``x0`` (zero by
    default). Metrics are recorded every ``record_every`` iterations; the
    Monte Carlo stationarity proxy every ``stationarity_every``-th recorded
    entry (0 disables it). Unless ``keep_iterates`` is off, the iterates of
    every recorded iteration are kept as snapshots for output selection.
    Identical (config, seed) give bit-identical records apart from
    wall-clock times.

    For dgfm-plus, restarts fire at every iteration k with
    k mod period == 0, so a final partial cycle simply runs short when
    ``iters`` is not a multiple of the period. Per-restart gossip
    diagnostics are logged into the record.

    Returns
    -------
    (NetworkState, RunRecord)
    """
    schedule = _as_schedule(matrix)
    if partition.m != schedule.m:
        raise ShapeError(f"partition has {partition.m} agents, topology has {schedule.m}")
    x0 = np.zeros(objective.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (objective.dim,):
        raise ShapeError(f"x0 must have shape ({objective.dim},), got {x0.shape}")
    _require_positive(record_every=record_every)
    _require_nonnegative(stationarity_every=stationarity_every)
    state = NetworkState.initial(schedule.m, x0)
    algo = "dgfm-plus" if isinstance(cfg, DgfmPlusConfig) else "dgfm"
    record = RunRecord(metadata={
        "algo": algo, "seed": cfg.seed, "config": asdict(cfg), "dataset": objective.name,
        "topology": f"m={schedule.m}", "rho": schedule.base.rho, **(metadata or {}),
    })
    t0 = perf_counter()
    for _ in range(cfg.iters):
        step(state, schedule, partition, objective, cfg)
        if state.k % record_every == 0:
            _observe(record, objective, state, cfg, t0, stationarity_every, stationarity_samples)
            if keep_iterates:
                record.snapshots.append((state.k, state.x.copy()))
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
    are those of `dgfm_run`.

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


def select_output(record, rng):
    """Uniform draw over all recorded (agent, iteration) iterates.

    The draw is over the subsampled trajectory the record actually kept
    (every ``record_every``-th iteration), not over all m * K iterates;
    run with ``record_every=1`` when the full trajectory matters. ``rng``
    may be a Generator or a bare seed.
    """
    if isinstance(rng, (int, np.integer)):
        rng = substream(rng, _LANE_SELECT)
    total = sum(x.shape[0] for _, x in record.snapshots)
    if total == 0:
        raise EmptyTrajectory("record holds no iterate snapshots")
    idx = int(rng.integers(total))
    for _, x in record.snapshots:
        if idx < x.shape[0]:
            return x[idx].copy()
        idx -= x.shape[0]
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Prescribed parameter settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremParams:
    """Analysis-prescribed hyperparameters for a target accuracy epsilon.

    ``beta_x``, ``beta_y``, ``alpha_1``, ``alpha_2`` are Lyapunov weights:
    they document the analysis and are never consumed by the optimizer
    loops. ``iterations_bound`` is the exact (unrounded) lower bound that
    ``iterations`` rounds up.
    """

    eta: float
    beta_x: float
    beta_y: float
    alpha_1: float
    alpha_2: float
    iterations: int
    iterations_bound: float
    sigma_sq: float
    l_delta: float
    batch: int | None = None
    mega_batch: int | None = None
    period: int | None = None
    cycles: int | None = None
    gossip_rounds: int | None = None
    inputs: dict = field(default_factory=dict)

    def echo(self):
        """JSON-able summary for run metadata."""
        out = {
            "eta": self.eta,
            "iterations": self.iterations,
            "alpha_1": self.alpha_1,
            "beta_x": self.beta_x,
            "beta_y": self.beta_y,
        }
        for name in ("batch", "mega_batch", "period", "cycles", "gossip_rounds"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _check_theorem_inputs(rho, lipschitz, d, delta, epsilon, m, value_gap, c):
    if not 0.0 < rho < 1.0:
        raise InvalidParameter(
            "rho must lie strictly inside (0, 1); a fully connected topology has "
            "rho = 0, pass a tiny floor such as 1e-6 instead"
        )
    _require_positive(lipschitz=lipschitz, delta=delta, epsilon=epsilon, value_gap=value_gap, c=c)
    if d < 1 or m < 1:
        raise InvalidParameter(f"need d >= 1 and m >= 1, got d={d}, m={m}")
    if epsilon > 1e6:
        raise InvalidParameter(f"epsilon {epsilon} is beyond any sensible accuracy target")
    return max(rho, RHO_FLOOR)


def theorem_params_dgfm(rho, lipschitz, d, delta, epsilon, m, value_gap, c=1.0):
    """Prescribed (eta, K, Lyapunov weights) for the single-pair method.

    ``value_gap`` bounds the initial smoothed-objective gap; ``c`` is the
    (unspecified) leading constant of the surrogate smoothness, default 1.
    """
    rho = _check_theorem_inputs(rho, lipschitz, d, delta, epsilon, m, value_gap, c)
    sigma_sq = sigma_squared(d, lipschitz)
    sigma = math.sqrt(sigma_sq)
    l_delta = surrogate_smoothness(d, lipschitz, delta, c)
    r2 = rho * rho
    eta = min(
        (1.0 - r2) ** 2 / (48.0 * sigma * (1.0 + r2) * r2) * epsilon / l_delta,
        epsilon**2 / (32.0 * l_delta * (sigma_sq + lipschitz)),
        8.0 * math.sqrt(6.0 * m * sigma_sq) / (epsilon * l_delta),
    )
    beta_y = (1.0 - r2) * epsilon**2 / (384.0 * sigma_sq * r2 * (1.0 + r2)) * eta / m
    beta_x = 1152.0 * sigma_sq * r2 * (1.0 + r2) / (1.0 - r2) ** 2 * l_delta**2 / epsilon**2 * beta_y
    alpha = (1.0 - r2) / (2.0 * r2)
    k_bound = max(
        2.0 * (sigma_sq + lipschitz**2) * (1.0 - r2) / (3.0 * m * sigma_sq * (1.0 + r2)),
        32.0 * value_gap / (epsilon**2 * eta),
    )
    return TheoremParams(
        eta=eta,
        beta_x=beta_x,
        beta_y=beta_y,
        alpha_1=alpha,
        alpha_2=alpha,
        iterations=math.ceil(k_bound),
        iterations_bound=k_bound,
        sigma_sq=sigma_sq,
        l_delta=l_delta,
        inputs=dict(rho=rho, lipschitz=lipschitz, d=d, delta=delta, epsilon=epsilon,
                    m=m, value_gap=value_gap, c=c),
    )


def theorem_params_dgfm_plus(rho, lipschitz, d, delta, epsilon, m, value_gap, c=1.0):
    """Prescribed (eta, batches, period, gossip rounds) for the
    variance-reduced method.

    The gossip-round prescription turns nonpositive for moderate epsilon;
    in that regime it is clamped to 1 and a ``RuntimeWarning`` is emitted
    rather than guessing intent. Batch sizes and counts are rounded up to
    integers.
    """
    rho = _check_theorem_inputs(rho, lipschitz, d, delta, epsilon, m, value_gap, c)
    sigma_sq = sigma_squared(d, lipschitz)
    l_delta = surrogate_smoothness(d, lipschitz, delta, c)
    r2 = rho * rho
    period = math.ceil(c**2 / (2.0 * delta))
    eta_1 = (1.0 - r2) ** 1.5 * math.sqrt(delta) / (r2 * math.sqrt(1.0 + r2) * math.sqrt(d) * math.sqrt(24.0))
    eta_2 = (
        1.0
        / (2.0 * math.sqrt(3.0 * d * period))
        * (
            lipschitz**2 / (m * epsilon)
            + 3.0 * (1.0 - r2) / (2.0 * c**2)
            * (c**2 * lipschitz**2 / ((1.0 - r2) * delta) + 2.0 * r2 * lipschitz**2 * m)
        )
        ** -0.5
    )
    eta_3 = 0.5 / l_delta
    eta = min(eta_1, eta_2, eta_3)
    beta_y = (1.0 - r2) * delta * eta / (2.0 * rho**4 * c**2 * m) * (c**2 / (2.0 * delta) + 2.0 * period)
    beta_x = (1.0 - r2) ** 2 / (2.0 * r2 * (1.0 + r2) * eta**2) * beta_y
    batch = math.ceil(d / (m * epsilon))
    mega_batch = math.ceil(sigma_sq / (12.0 * epsilon**2))
    gossip_exact = (
        math.log(c**2 * epsilon) - math.log(36.0 * (sigma_sq + lipschitz**2) * (1.0 - r2))
    ) / math.log(rho) + 2.0
    gossip_rounds = math.ceil(gossip_exact)
    if gossip_rounds < 1:
        warnings.warn(
            f"gossip-round prescription {gossip_exact:.3f} is below 1 at epsilon={epsilon}; "
            "clamping to 1",
            RuntimeWarning,
            stacklevel=2,
        )
        gossip_rounds = 1
    cycles = math.ceil(24.0 * value_gap * delta / (epsilon**2 * eta * c**2))
    k_bound = float(cycles * period)
    alpha = (1.0 - r2) / (2.0 * r2)
    return TheoremParams(
        eta=eta,
        beta_x=beta_x,
        beta_y=beta_y,
        alpha_1=alpha,
        alpha_2=alpha,
        iterations=cycles * period,
        iterations_bound=k_bound,
        sigma_sq=sigma_sq,
        l_delta=l_delta,
        batch=batch,
        mega_batch=mega_batch,
        period=period,
        cycles=cycles,
        gossip_rounds=gossip_rounds,
        inputs=dict(rho=rho, lipschitz=lipschitz, d=d, delta=delta, epsilon=epsilon,
                    m=m, value_gap=value_gap, c=c),
    )
