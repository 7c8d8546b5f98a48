"""Trajectory measurement and structured run records.

A RunRecord collects one entry per recorded iteration: loss at the mean
iterate, consensus error, the cumulative oracle-call and communication
counters, and (periodically) a stationarity proxy: the norm of the
two-point estimate over fresh pairs at the mean iterate, the same estimate
the optimizers form, drawn over the whole objective. Loss and
stationarity evaluations are measurement, not optimization; they never
touch the oracle-call counter, so plots against ``zo_calls`` use the
algorithmic budget only.

Records serialize to CSV with the fixed column order

    algo,seed,iter,zo_calls,comm_rounds,loss,consensus_err,stationarity,wall_ms

(stationarity left empty when not sampled) or to JSON with a metadata
header per record. Doubles are printed in shortest round-trip form, so a
written file parses back to bit-equal values.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter, ShapeError
from .smoothing import SmoothingParams, sample_batch, two_point_estimate

__all__ = [
    "RunEntry",
    "RunRecord",
    "StationarityEstimate",
    "consensus_error",
    "read_csv_rows",
    "stationarity_estimate",
    "write_records",
]

CSV_COLUMNS = (
    "algo",
    "seed",
    "iter",
    "zo_calls",
    "comm_rounds",
    "loss",
    "consensus_err",
    "stationarity",
    "wall_ms",
)


@dataclass(frozen=True)
class RunEntry:
    """Metrics snapshot after a recorded iteration."""

    iteration: int
    zo_calls: int
    comm_rounds: int
    loss: float
    consensus_err: float
    stationarity: float | None = None
    wall_ms: float = 0.0


@dataclass
class RunRecord:
    """Per-run trajectory: metadata header, entries, optional iterate snapshots.

    ``snapshots`` holds (iteration, stacked iterates) pairs at recorded
    steps so the uniform output-selection rule has something to draw from;
    ``restarts`` holds per-restart gossip diagnostics for the
    variance-reduced methods (the consensus error of the tracking variable
    after each extra gossip round).
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
            "entries": [
                {
                    "iter": e.iteration,
                    "zo_calls": e.zo_calls,
                    "comm_rounds": e.comm_rounds,
                    "loss": e.loss,
                    "consensus_err": e.consensus_err,
                    "stationarity": e.stationarity,
                    "wall_ms": e.wall_ms,
                }
                for e in self.entries
            ],
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
    return float(((x - x.mean(axis=0)) ** 2).sum())


class StationarityEstimate(NamedTuple):
    value: float
    stderr: float


def stationarity_estimate(obj, x, delta, n_samples, rng):
    """Norm of the Monte Carlo surrogate gradient, with its standard error.

    The surrogate gradient is the mean of the optimizers' two-point
    estimates over ``n_samples`` pairs drawn by `sample_batch` from the
    whole objective: one member of the delta-ball subdifferential, not the
    minimizer over it, so its norm is an upper-bound proxy for the
    stationarity measure. ``stderr`` aggregates the componentwise standard
    errors of the Monte Carlo mean.
    """
    if n_samples < 1:
        raise InvalidParameter(f"n_samples must be >= 1, got {n_samples}")
    x = np.asarray(x, dtype=float)
    params = SmoothingParams(delta=delta, dim=x.shape[0])
    batch = sample_batch(np.arange(obj.n_samples), n_samples, params.dim, rng)
    acc = np.zeros(x.shape[0])
    acc_sq = np.zeros(x.shape[0])
    for xi, w in zip(batch.xis, batch.ws):
        g = two_point_estimate(obj, x, params, w, xi)
        acc += g
        acc_sq += g * g
    mean = acc / n_samples
    if n_samples == 1:
        return StationarityEstimate(float(np.linalg.norm(mean)), math.inf)
    var = np.maximum(acc_sq / n_samples - mean**2, 0.0) * n_samples / (n_samples - 1)
    stderr = math.sqrt(float(var.sum()) / n_samples)
    return StationarityEstimate(float(np.linalg.norm(mean)), stderr)


def _fmt(value):
    # repr of a Python float is the shortest string that round-trips.
    return repr(float(value))


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
                    algo = record.metadata.get("algo", "")
                    seed = record.metadata.get("seed", "")
                    for e in record.entries:
                        writer.writerow(
                            [
                                algo,
                                seed,
                                e.iteration,
                                e.zo_calls,
                                e.comm_rounds,
                                _fmt(e.loss),
                                _fmt(e.consensus_err),
                                "" if e.stationarity is None else _fmt(e.stationarity),
                                _fmt(e.wall_ms),
                            ]
                        )
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
    rows = []
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            rows.append(
                {
                    "algo": raw["algo"],
                    "seed": int(raw["seed"]) if raw["seed"] else None,
                    "iter": int(raw["iter"]),
                    "zo_calls": int(raw["zo_calls"]),
                    "comm_rounds": int(raw["comm_rounds"]),
                    "loss": float(raw["loss"]),
                    "consensus_err": float(raw["consensus_err"]),
                    "stationarity": float(raw["stationarity"]) if raw["stationarity"] else None,
                    "wall_ms": float(raw["wall_ms"]),
                }
            )
    return rows
