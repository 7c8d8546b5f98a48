"""Workloads, set-up, the equal-budget protocol and its correctness checks.

One protocol repetition runs dgfm, dgfm-plus, gfm and gfm-plus once each
at the same oracle-call budget, with the schedules of acceptance
criterion 09 and fixed step sizes from its grid {0.0005, 0.001, 0.005,
0.01}; workloads that record like the CLI also write the records as CSV.
The package is driven through its public API only.
"""

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import dgfm

from . import tracing
from .catalog import ALGOS, WHY

DELTA = 1e-3
# Criterion 09 schedules.
DGFM_PLUS = dict(period=10, mega_batch=10, batch=1, gossip_rounds=5)
GFM_BATCH = 16
GFM_PLUS = dict(period=50, mega_batch=100, batch=2)
# The CLI's recording defaults.
CLI_RECORDING = dict(record_every=1, stationarity_every=10, stationarity_samples=32,
                     keep_iterates=True)
# Tracker-mean identity tolerance, relative to the estimates; the round-off
# seen on these workloads is about 1e-15.
TRACKER_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # a key of corpus.GENERATORS
    m: int
    budget: int
    etas: dict
    # Calibration kernel's wall time at the reference speed (about its median
    # at the workload's shapes on the 2-core Xeon VM the benchmark was defined on).
    clock_reference_s: float
    cli_recording: bool = False


# Criterion 09's tuned step sizes on the a9a-shaped corpus.
A9A_ETAS = {"dgfm": 0.01, "dgfm-plus": 0.01, "gfm": 0.01, "gfm-plus": 0.005}
# On the sparse corpus the hinge loss is linear near x = 0, so the loss drop
# and its noise both scale with eta: the grid's largest step gives the widest
# absolute margin to the final-loss check. The budgets keep a repetition near
# 1.5 s (a9a) and 5 s (sparse) so one run holds several. Of the sparse budgets
# tried (6k, 8k, 12k calls), 12k is the smallest at which dgfm-plus ends
# several standard deviations (across seeds) below the loss at x = 0.
SPARSE_ETAS = dict.fromkeys(ALGOS, 0.01)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("a9a-ring8", "a9a", m=8, budget=8000, etas=A9A_ETAS,
                 clock_reference_s=0.05),
        Workload("a9a-ring8-record", "a9a", m=8, budget=8000, etas=A9A_ETAS,
                 clock_reference_s=0.05, cli_recording=True),
        Workload("sparse2k-ring64", "sparse-text", m=64, budget=12_000, etas=SPARSE_ETAS,
                 clock_reference_s=0.15),
    )
}
# Each workload's reason is kept in BENCHMARK.json.
if set(WORKLOADS) != set(WHY):
    raise RuntimeError(f"workloads drifted from BENCHMARK.json: "
                       f"{sorted(set(WORKLOADS) ^ set(WHY))}")


def iterations(algo, budget, m):
    """Iterations that fit the budget, as criterion 09 computes them."""
    if algo == "dgfm":
        return budget // (2 * m)
    if algo == "gfm":
        return budget // (2 * GFM_BATCH)
    s, agents = (DGFM_PLUS, m) if algo == "dgfm-plus" else (GFM_PLUS, 1)
    per_cycle = 2 * agents * s["mega_batch"] + (s["period"] - 1) * 4 * agents * s["batch"]
    return int(budget / per_cycle * s["period"])


def accounting(algo, k, m):
    """Criterion 07's closed form: (oracle calls, comm rounds) after k iterations."""
    if algo == "dgfm":
        return 2 * m * k, 2 * k
    if algo == "gfm":
        return 2 * GFM_BATCH * k, 0
    s, agents = (DGFM_PLUS, m) if algo == "dgfm-plus" else (GFM_PLUS, 1)
    restarts = math.ceil(k / s["period"])
    others = k - restarts
    calls = restarts * 2 * agents * s["mega_batch"] + others * 4 * agents * s["batch"]
    rounds = restarts * (s["gossip_rounds"] + 1) + others * 2 if algo == "dgfm-plus" else 0
    return calls, rounds


@dataclass
class Problem:
    objective: object
    partition: object
    ring: object
    nnz_per_row: float


def setup(path, m, seed, wrap=None):
    """LIBSVM file -> objective, partition and ring: what ``setup_s`` times.

    ``wrap(name, fn)``, when given, returns a traced ``fn``.
    """
    wrap = wrap or (lambda name, fn: fn)
    dataset = wrap("data.load_libsvm", dgfm.load_libsvm)(path)
    dataset = wrap("data.normalize_rows", dgfm.normalize_rows)(dataset)
    objective = wrap("objectives.build", dgfm.CappedL1Svm.from_dataset)(dataset)
    part = wrap("data.partition", dgfm.partition)(dataset, m, seed)
    ring = wrap("topology.build", dgfm.build_ring)(m)
    return Problem(objective, part, ring, dataset.features.nnz / dataset.n)


@dataclass
class Run:
    algo: str
    seconds: float  # wall
    iters: int
    record_every: int
    calls: int  # the program's own counter at the last recorded entry
    record: object
    state: object = None
    factor: float = 1.0  # calibrated over wall seconds
    layers: dict = None
    spans: list = field(default_factory=list)


def schedule(workload, algo):
    """Iterations and recording options of one run.

    Without the CLI's recording, entries are recorded every iters/100
    iterations (criterion 09), and the iterations are cut to a multiple of
    that so the last one is recorded and its counters are checked.
    """
    iters = iterations(algo, workload.budget, workload.m)
    if workload.cli_recording:
        return iters, dict(CLI_RECORDING)
    every = max(1, iters // 100)
    return iters - iters % every, dict(record_every=every, stationarity_every=0,
                                       keep_iterates=False)


def run_algo(workload, problem, algo, seed, tracer=None):
    """One timed run of ``algo`` at the workload's budget."""
    iters, rec = schedule(workload, algo)
    eta = workload.etas[algo]
    objective, ring = problem.objective, problem.ring
    if tracer is not None:
        objective = tracing.TracedObjective(objective, tracer)
        ring = tracing.traced_matrix(ring, tracer)
    if algo == "dgfm":
        cfg = dgfm.DgfmConfig(eta=eta, delta=DELTA, iters=iters, seed=seed)
        call = lambda: dgfm.dgfm_run(ring, problem.partition, objective, cfg, **rec)
    elif algo == "dgfm-plus":
        cfg = dgfm.DgfmPlusConfig(eta=eta, delta=DELTA, iters=iters, seed=seed, **DGFM_PLUS)
        call = lambda: dgfm.dgfm_plus_run(ring, problem.partition, objective, cfg, **rec)
    elif algo == "gfm":
        cfg = dgfm.DgfmConfig(eta=eta, delta=DELTA, iters=iters, seed=seed, batch=GFM_BATCH)
        call = lambda: (None, dgfm.gfm_run(objective, cfg, **rec))
    else:
        cfg = dgfm.DgfmPlusConfig(eta=eta, delta=DELTA, iters=iters, seed=seed, **GFM_PLUS)
        call = lambda: (None, dgfm.gfm_plus_run(objective, cfg, **rec))
    if tracer is not None:
        call = tracer.wrap("algorithms.run", call)
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        state, record = call()
        seconds = time.perf_counter() - t0
    calls = record.entries[-1].zo_calls if record.entries else 0
    run = Run(algo, seconds, iters, rec["record_every"], calls, record, state)
    if tracer is not None:
        run.spans = tracer.spans
        run.layers = tracing.run_layers(tracer.spans, root=0)
        run.layers["metrics.snapshot_bytes"] = sum(x.nbytes for _, x in record.snapshots)
    return run


def check_run(workload, run, start_loss, reference_losses=None):
    """Failures of one run's outputs, as messages; empty when correct."""
    algo, m, record = run.algo, workload.m, run.record
    bad = []
    if len(record.entries) != run.iters // run.record_every:
        bad.append(f"{len(record.entries)} entries for {run.iters} iterations")
    elif record.entries[-1].iteration != run.iters:
        bad.append(f"last entry at iteration {record.entries[-1].iteration}, "
                   f"not at {run.iters}")
    for e in record.entries:
        if (e.zo_calls, e.comm_rounds) != accounting(algo, e.iteration, m):
            bad.append(f"iteration {e.iteration}: counters {(e.zo_calls, e.comm_rounds)} "
                       f"!= closed form {accounting(algo, e.iteration, m)}")
            break
    state = run.state
    if state is not None:
        if (state.oracle_calls, state.comm_rounds) != accounting(algo, run.iters, m):
            bad.append(f"final counters {(state.oracle_calls, state.comm_rounds)} != "
                       f"closed form {accounting(algo, run.iters, m)}")
        est = state.g_prev if algo == "dgfm" else state.v
        gap = float(np.max(np.abs(state.y.mean(axis=0) - est.mean(axis=0))))
        scale = max(1.0, float(np.max(np.abs(est))))
        if not gap <= TRACKER_RTOL * scale:
            bad.append(f"tracker-mean identity off by {gap:.3e} (scale {scale:.3e})")
    losses = record.losses()
    if not np.all(np.isfinite(losses)):
        bad.append("non-finite recorded loss")
    elif not record.final_loss < start_loss:
        bad.append(f"final loss {record.final_loss!r} not below {start_loss!r} at x = 0")
    if reference_losses is not None and not np.array_equal(losses, reference_losses):
        bad.append("losses differ from the first run with the same seed")
    if run.layers is not None:
        if run.layers["objectives.eval.counted"] != run.calls:
            bad.append(f"{run.layers['objectives.eval.counted']} counted eval calls != "
                       f"{run.calls} oracle calls")
        rounds = accounting(algo, run.iters, m)[1]
        if run.layers["topology.gossip.rounds"] != rounds:
            bad.append(f"{run.layers['topology.gossip.rounds']} gossip products != "
                       f"{rounds} comm rounds")
    return bad


@dataclass
class Repetition:
    runs: dict
    protocol_s: float  # calibrated, as are write_s and wall_s below
    wall_s: float
    write_s: float = 0.0
    write_bytes: int = 0


def protocol(workload, problem, seed, csv_path, clock, traced=False):
    """The four runs at one budget, plus the CSV where the workload writes one.

    Every timed section is closed by a burst of ``clock`` (see clock.py),
    which gives its calibrated time.
    """
    runs = {}
    for algo in ALGOS:
        run = run_algo(workload, problem, algo, seed,
                       tracer=tracing.Tracer() if traced else None)
        run.factor = clock.factor()
        runs[algo] = run
    rep = Repetition(runs, sum(r.seconds * r.factor for r in runs.values()),
                     sum(r.seconds for r in runs.values()))
    if workload.cli_recording:
        records = [r.record for r in runs.values()]
        t0 = time.perf_counter()
        dgfm.write_records(records, csv_path)
        wall = time.perf_counter() - t0
        rep.write_s = wall * clock.factor()
        rep.protocol_s += rep.write_s
        rep.wall_s += wall
        rep.write_bytes = os.path.getsize(csv_path)
    return rep


def check_csv(rep, csv_path):
    rows = dgfm.read_csv_rows(csv_path)
    expected = sum(len(r.record.entries) for r in rep.runs.values())
    return [] if len(rows) == expected else [f"CSV holds {len(rows)} rows, want {expected}"]
