"""Trajectory measurement and structured run records.

A RunRecord collects one entry per recorded iteration: loss at the mean
iterate, consensus error, the cumulative oracle-call and communication
counters, and (periodically) a stationarity proxy: the norm of the
two-point estimate over fresh pairs at the mean iterate, the same estimate
the optimizers form, drawn over the whole objective and evaluated in one
``eval_batch`` call. Loss and stationarity evaluations are measurement,
not optimization; they never touch the oracle-call counter (nor the
scalar ``eval`` that counted oracle calls go through), so plots against
``zo_calls`` use the algorithmic budget only.

Records serialize to CSV, one row per entry: the record's algo and seed,
then the entry columns of `ENTRY_COLUMNS`, or to JSON with a metadata
header per record and the same entry columns. ``csv`` formats the cells:
a float as its shortest round-trip string, so a written file parses back
to bit-equal values, and a stationarity left unsampled (``None``) as an
empty cell.
"""

import csv
import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter, ShapeError, require_int, require_positive
from .smoothing import DrawLayout

__all__ = [
    "RunEntry",
    "RunRecord",
    "StationarityEstimate",
    "consensus_error",
    "read_csv_rows",
    "stationarity_estimate",
    "write_records",
]


@dataclass(frozen=True, slots=True)
class RunEntry:
    """Metrics snapshot after a recorded iteration.

    Slotted: a long run holds one per recorded iteration, with no ``__dict__`` each.
    """

    iteration: int
    zo_calls: int
    comm_rounds: int
    loss: float
    consensus_err: float
    stationarity: float | None = None
    wall_ms: float = 0.0


# The one statement of the entry columns, as (file column, RunEntry field,
# type), in RunEntry's field order: the CSV header and rows, the JSON entries
# and `read_csv_rows` all follow it.
ENTRY_COLUMNS = tuple(("iter" if f.name == "iteration" else f.name, f.name, f.type)
                      for f in fields(RunEntry))
_ENTRY_NAMES = tuple(column for column, _, _ in ENTRY_COLUMNS)
CSV_COLUMNS = ("algo", "seed", *_ENTRY_NAMES)
_entry_values = operator.attrgetter(*(name for _, name, _ in ENTRY_COLUMNS))
# How `read_csv_rows` reads a cell of each column type; only the optional
# type admits an empty cell.
_READERS = {int: int, float: float, float | None: lambda text: float(text) if text else None}


@dataclass
class RunRecord:
    """Per-run trajectory: metadata header, entries, the kept output iterate.

    ``snapshots`` holds at most one (iteration, iterate of shape (1, d))
    pair: the recorded (agent, iteration) candidate the run drew for the
    uniform output-selection rule (see `dgfm.select_output`), or nothing
    when the run kept no iterate. ``restarts`` holds per-restart gossip
    diagnostics for the variance-reduced methods (the consensus error of
    the tracking variable after each extra gossip round).
    """

    metadata: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    restarts: list = field(default_factory=list)

    def append(self, entry):
        self.entries.append(entry)

    @property
    def final_loss(self):
        return self.entries[-1].loss if self.entries else math.nan

    def losses(self):
        return np.array([e.loss for e in self.entries])

    def loss_at_budget(self, budget):
        """Loss at the last recorded entry within the given oracle budget."""
        best = None
        for e in self.entries:
            if e.zo_calls <= budget:
                best = e.loss
        return best if best is not None else math.nan

    def to_json_obj(self):
        return {
            "metadata": self.metadata,
            "entries": [dict(zip(_ENTRY_NAMES, _entry_values(e))) for e in self.entries],
            "restarts": self.restarts,
        }


def consensus_error(stacked):
    """Squared deviation of the rows of a stacked (m, d) array from their mean.

    Zero exactly when all agents agree; translation-invariant; scales
    quadratically.
    """
    x = np.asarray(stacked, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"stacked iterates must have shape (m, d), got {x.shape}")
    return consensus_spread(x, x.mean(axis=0))


def consensus_spread(x, mean):
    """`consensus_error` of the (m, d) array ``x`` without its checks, about
    ``mean``, the row mean of ``x`` formed by the caller."""
    dev = x - mean
    np.square(dev, out=dev)
    return float(np.add.reduce(dev, axis=None))


@functools.lru_cache(maxsize=16)
def _whole_layout(n, pairs, d):
    """The `DrawLayout` of ``pairs`` draws over all n samples in R^d, built once per shape.

    It is read-only in use, so every caller may share it; its memory is one
    int per sample.
    """
    indices = np.arange(n)
    indices.setflags(write=False)
    return DrawLayout([indices], pairs, d)


class StationarityEstimate(NamedTuple):
    value: float
    stderr: float


def stationarity_estimate(obj, x, delta, n_samples, rng):
    """Norm of the Monte Carlo surrogate gradient, with its standard error.

    The surrogate gradient is the mean of the optimizers' two-point
    estimates over ``n_samples`` pairs drawn from the whole objective by
    `DrawLayout.batch`, from a layout built once per (n, n_samples, d):
    one member of the delta-ball subdifferential, not the minimizer over
    it, so its norm is an upper-bound proxy for the stationarity measure.
    ``stderr`` aggregates the componentwise standard errors of the Monte
    Carlo mean.

    All 2 * n_samples probes, the plus points stacked over the minus
    points, go to ``obj.eval_batch`` in one call; with the base class's
    loop of ``eval`` the result is bit-equal to summing
    `two_point_estimate` pair by pair.
    """
    n_samples = require_int(1, n_samples=n_samples)
    require_positive(delta=delta)
    x = np.asarray(x, dtype=float)
    if x.shape != (obj.dim,):
        raise ShapeError(f"x must have shape ({obj.dim},), got {x.shape}")
    xis, ws = _whole_layout(obj.n_samples, n_samples, obj.dim).batch(rng)
    steps = delta * ws
    values = obj.eval_batch(np.concatenate([x + steps, x - steps]), np.tile(xis, 2))
    diffs = values[:n_samples] - values[n_samples:]
    g = (obj.dim / (2.0 * delta)) * diffs[:, None] * ws
    # the ufunc reductions themselves: ndarray.sum and np.linalg.norm's
    # sqrt(dot) for a vector, without their wrappers
    acc = np.add.reduce(g, axis=0)
    acc_sq = np.add.reduce(np.square(g, out=g), axis=0)
    mean = acc / n_samples
    value = math.sqrt(mean.dot(mean))
    if n_samples == 1:
        return StationarityEstimate(value, math.inf)
    var = np.maximum(acc_sq / n_samples - mean**2, 0.0) * n_samples / (n_samples - 1)
    stderr = math.sqrt(float(np.add.reduce(var)) / n_samples)
    return StationarityEstimate(value, stderr)


def write_records(records, path, format="csv"):
    """Write run records to ``path`` as CSV or JSON (LF newlines).

    CSV flattens all records into one table keyed by the algo/seed metadata
    columns; JSON keeps one object per record with its metadata header.
    """
    path = str(path)
    try:
        if format == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(CSV_COLUMNS)
                for record in records:
                    head = (record.metadata.get("algo", ""), record.metadata.get("seed", ""))
                    writer.writerows((*head, *_entry_values(e)) for e in record.entries)
        elif format == "json":
            with open(path, "w", newline="") as fh:
                json.dump([r.to_json_obj() for r in records], fh, indent=1)
                fh.write("\n")
        else:
            raise InvalidParameter(f"unknown format {format!r} (want csv or json)")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def read_csv_rows(path):
    """Read back a CSV written by `write_records` with typed fields."""
    reads = [(column, _READERS[kind]) for column, _, kind in ENTRY_COLUMNS]
    with open(path, newline="") as fh:
        return [
            {"algo": raw["algo"], "seed": int(raw["seed"]) if raw["seed"] else None,
             **{column: read(raw[column]) for column, read in reads}}
            for raw in csv.DictReader(fh)
        ]
