"""Spans around the package's layer entry points, recorded from outside.

Nothing in ``dgfm`` is edited. The traced run wraps:

* the objective and the mixing matrix, which are inputs the benchmark
  builds: ``objectives.eval`` and ``objectives.full_loss`` through a proxy
  objective, ``topology.gossip`` through the ``weights @ z`` product of the
  matrix (every gossip round in the run loops and in ``mix`` is that
  product);
* the module-level functions the run loops call, patched in
  ``dgfm.algorithms`` where the loops look them up.

A span is (name, start_ns, end_ns, parent, work). Spans stay in memory and
are written out when the run ends. Self time is a span's duration minus
the durations of its direct children.
"""

import csv
import time
from collections import defaultdict

import numpy as np

import dgfm
from dgfm import algorithms

# (name looked up in dgfm.algorithms, span name, work per call from args)
LOOP_CALLS = (
    ("substream", "rng.substream", None),
    ("sample_batch", "smoothing.sample_batch", lambda args: int(args[1])),
    ("two_point_estimate", "smoothing.estimate", None),
    ("minibatch_estimate", "smoothing.estimate", None),
    ("spider_difference", "smoothing.estimate", None),
    ("_observe", "metrics.observe", None),
    ("stationarity_estimate", "metrics.stationarity", None),
)


class Tracer:
    """In-memory span recorder for one algorithm run."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patched = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1], 1 if work is None else work(args)]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def __enter__(self):
        for attr, name, work in LOOP_CALLS:
            original = getattr(algorithms, attr)  # AttributeError: the loops changed
            self._patched.append((attr, original))
            setattr(algorithms, attr, self.wrap(name, original, work))
        return self

    def __exit__(self, *exc):
        for attr, original in reversed(self._patched):
            setattr(algorithms, attr, original)
        self._patched.clear()
        return False


class TracedObjective:
    """Proxy objective whose ``eval`` and ``full_loss`` record spans."""

    def __init__(self, objective, tracer):
        self._objective = objective
        self.eval = tracer.wrap("objectives.eval", objective.eval)
        self.full_loss = tracer.wrap("objectives.full_loss", objective.full_loss)

    def __getattr__(self, attr):
        return getattr(self._objective, attr)


class _GossipWeights(np.ndarray):
    """Read-only weights whose ``@`` product is recorded as a gossip round.

    The product is the plain ndarray product of the same data, so traced
    runs reproduce untraced runs bit for bit (the benchmark checks this).
    """

    def __matmul__(self, other):
        return self._product(other)


def traced_matrix(matrix, tracer):
    weights = matrix.weights.view(_GossipWeights)
    weights._product = tracer.wrap("topology.gossip", matrix.weights.__matmul__)
    return dgfm.MixingMatrix(m=matrix.m, weights=weights, rho=matrix.rho)


def _ancestors_include(spans, index, prefix):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def run_layers(spans, root):
    """Per-layer counts and times of one traced algorithm run.

    ``root`` is the index of the run's own span. Oracle calls made inside
    a ``metrics.*`` span are measurement, not budget.
    """
    busy = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    child_ns = defaultdict(int)
    counted = 0
    for i, (name, start, end, parent, units) in enumerate(spans):
        if i == root:
            continue
        busy[name] += end - start
        calls[name] += 1
        work[name] += units
        child_ns[parent] += end - start
        if name == "objectives.eval" and not _ancestors_include(spans, i, "metrics."):
            counted += 1
    estimate_self = sum(
        spans[i][2] - spans[i][1] - child_ns[i]
        for i in range(len(spans)) if spans[i][0] == "smoothing.estimate"
    )
    run_ns = spans[root][2] - spans[root][1]
    s = 1e-9
    return {
        "rng.substream.calls": calls["rng.substream"],
        "rng.substream.busy_s": busy["rng.substream"] * s,
        "smoothing.sample_batch.pairs": work["smoothing.sample_batch"],
        "smoothing.sample_batch.busy_s": busy["smoothing.sample_batch"] * s,
        "smoothing.estimate.self_s": estimate_self * s,
        "objectives.eval.calls": calls["objectives.eval"],
        "objectives.eval.busy_s": busy["objectives.eval"] * s,
        "objectives.eval.counted_ratio": counted / max(calls["objectives.eval"], 1),
        "objectives.eval.counted": counted,
        "topology.gossip.rounds": calls["topology.gossip"],
        "topology.gossip.busy_s": busy["topology.gossip"] * s,
        "algorithms.self_s": (run_ns - child_ns[root]) * s,
        "metrics.observe.calls": calls["metrics.observe"],
        "metrics.observe.busy_s": busy["metrics.observe"] * s,
        "metrics.stationarity.share": busy["metrics.stationarity"] / run_ns,
        "metrics.observe.share": busy["metrics.observe"] / run_ns,
    }


def write_spans(path, traced_runs):
    """Write (algo, id, parent, name, start_ns, end_ns, work) rows as CSV."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("algo", "id", "parent", "name", "start_ns", "end_ns", "work"))
        for algo, spans in traced_runs:
            for i, (name, start, end, parent, units) in enumerate(spans):
                out.writerow((algo, i, parent, name, start, end, units))
