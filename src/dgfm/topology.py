"""Doubly stochastic mixing matrices for gossip averaging.

A mixing matrix A holds the weights agents use to average their neighbors'
states: one gossip round maps the stacked states z (one row per agent) to
A @ z. For a doubly stochastic A the row mean is preserved exactly, and the
deviation from the mean contracts by the spectral gap
rho = ||A - J||_2, where J = (1/m) 11^T is the plain averaging matrix.
These two facts are what every algorithm in this package leans on, so the
constructors here validate them aggressively and cache rho: `validate`
reports it for any square matrix (1 for a disconnected one), and
``MixingMatrix.rho`` holds it for a validated one.

Matrices are stored dense; the network sizes of interest are at most a few
hundred agents. The Kronecker lift A (x) I_d is never materialized: `mix`
applies it as a plain (m, m) x (m, d) product, ``weights @ z``, after
checking its input; the optimizers, whose stacked states are checked once
per run, apply the same product without those checks. Several rounds
are several products. Weights come from the ring, complete and
Metropolis-Hastings constructors, each a few whole-array numpy operations:
the ring is the identity plus its two cyclic shifts (``np.roll``), scaled
by 1/3; the complete graph is J; Metropolis-Hastings puts
1 / (1 + the larger degree) on each edge, from ``np.maximum.outer`` of the
degrees, and the remainder on the diagonal. The last one is fed by a 0/1
adjacency file through `load_adjacency`.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraph, InvalidTopology, ShapeError, require_int

__all__ = [
    "MixingMatrix",
    "ValidationReport",
    "build_complete",
    "build_metropolis_hastings",
    "build_ring",
    "averaging_matrix",
    "load_adjacency",
    "mix",
    "validate",
]

# ~100x double-precision epsilon: covers round-off accumulation for m <= 1000,
# in the weights' row and column sums and in a given rho.
STOCHASTIC_TOL = 1e-12
# rho must stay below 1 - CONNECTIVITY_TOL for the topology to count as connected.
CONNECTIVITY_TOL = 1e-9


def averaging_matrix(m):
    """The rank-one averaging matrix J = (1/m) 11^T."""
    return np.full((m, m), 1.0 / m)


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant diagnostics for a candidate weight matrix.

    Attributes record pass/fail per invariant together with the worst
    violation magnitude, so callers can report exactly what is wrong with a
    user-supplied matrix instead of a bare boolean.
    """

    nonnegative: bool
    row_stochastic: bool
    col_stochastic: bool
    positive_diagonal: bool
    connected: bool
    rho: float
    worst_row_error: float
    worst_col_error: float
    min_entry: float
    min_diagonal: float

    @property
    def ok(self):
        return not self.failures()

    def failures(self):
        """Names of the invariants that failed, in a stable order."""
        out = []
        if not self.nonnegative:
            out.append(f"negative entry (min {self.min_entry:.3e})")
        if not self.row_stochastic:
            out.append(f"row sums off by {self.worst_row_error:.3e}")
        if not self.col_stochastic:
            out.append(f"column sums off by {self.worst_col_error:.3e}")
        if not self.positive_diagonal:
            out.append(f"nonpositive diagonal (min {self.min_diagonal:.3e})")
        if not self.connected:
            out.append(f"disconnected (rho = {self.rho:.6f})")
        return out


def validate(weights):
    """Check a square weight matrix against the mixing-matrix invariants.

    Returns a :class:`ValidationReport`; never raises for invariant
    failures (constructors consume the report and raise). A non-square
    input violates the precondition and raises :class:`ShapeError`.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"weight matrix must be square, got shape {w.shape}")
    m = w.shape[0]
    row_err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    min_entry = float(w.min())
    min_diag = float(np.min(np.diag(w)))
    rho = float(np.linalg.norm(w - averaging_matrix(m), ord=2))
    return ValidationReport(
        nonnegative=min_entry >= 0.0,
        row_stochastic=row_err <= STOCHASTIC_TOL,
        col_stochastic=col_err <= STOCHASTIC_TOL,
        positive_diagonal=min_diag > 0.0,
        connected=rho < 1.0 - CONNECTIVITY_TOL,
        rho=rho,
        worst_row_error=row_err,
        worst_col_error=col_err,
        min_entry=min_entry,
        min_diagonal=min_diag,
    )


@dataclass(frozen=True)
class MixingMatrix:
    """Validated doubly stochastic gossip weights with cached spectral gap.

    A build, direct or by `from_weights`, validates: the weights pass
    `validate`, ``m`` is their row count, and a given ``rho`` their gap to
    `STOCHASTIC_TOL` (an omitted one is computed). It never multiplies by
    the weights, and keeps the array passed in, set read-only; a view is
    refused unless the memory it views is read-only too.

    Attributes
    ----------
    m : int
        Number of agents.
    weights : ndarray, shape (m, m)
        Nonnegative doubly stochastic weights with positive diagonal.
    rho : float
        Spectral norm of (weights - J); strictly below 1.
    """

    m: int
    weights: np.ndarray
    rho: float = None

    def __post_init__(self):
        w = self.weights
        if not isinstance(w, np.ndarray):
            raise ShapeError(f"weights must be an (m, m) array, got {type(w).__name__}")
        if _writable_base(w):
            raise InvalidTopology("weights view memory that can still be written; "
                                  "build with MixingMatrix.from_weights, which copies")
        report = validate(w)
        if self.m != w.shape[0]:
            raise ShapeError(f"m is {self.m}, but the weights have {w.shape[0]} rows")
        failures = report.failures()
        if failures:
            only_gap = len(failures) == 1 and not report.connected
            raise (DisconnectedGraph if only_gap else InvalidTopology)("; ".join(failures))
        if self.rho is None:
            object.__setattr__(self, "rho", report.rho)
        elif not abs(self.rho - report.rho) <= STOCHASTIC_TOL:
            raise InvalidTopology(f"rho is {self.rho}, but the weights' gap is {report.rho}")
        object.__setattr__(self, "m", w.shape[0])
        w.setflags(write=False)

    @classmethod
    def from_weights(cls, weights):
        """Validate a copy of raw weights and wrap it; raises on any failure."""
        w = np.array(weights, dtype=float)
        return cls(m=w.shape[0] if w.ndim else 0, weights=w)  # a 0-d w fails `validate`


def _writable_base(w):
    """Whether memory that ``w`` views, through its ``.base`` chain, can still be written."""
    base = w.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if isinstance(base, np.ndarray):
        return True
    try:  # a non-array owner, such as bytes or a bytearray
        return base is not None and not memoryview(base).readonly
    except TypeError:  # it exposes no buffer: assume it can write
        return True


def build_ring(m):
    """Ring of m agents, weight 1/3 on self and on each of the two neighbors.

    The equal 1/3 split is the simplest symmetric doubly stochastic choice
    for a ring. Requires m >= 3 (below that the ring degenerates).
    """
    if isinstance(m, numbers.Real) and m < 3:
        raise InvalidTopology(f"ring topology needs at least 3 agents, got {m}")
    m = require_int(3, m=m)
    eye = np.eye(m)
    neighbors = np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1)
    return MixingMatrix.from_weights((eye + neighbors) / 3.0)


def build_complete(m):
    """Fully connected topology: the averaging matrix J itself (rho = 0)."""
    if isinstance(m, numbers.Real) and m < 1:
        raise InvalidTopology(f"need at least one agent, got {m}")
    return MixingMatrix.from_weights(averaging_matrix(require_int(1, m=m)))


def build_metropolis_hastings(adjacency):
    """Metropolis-Hastings weights for a symmetric adjacency with self-loops.

    Off-diagonal weight for an edge (i, j) is 1 / (1 + max(deg_i, deg_j)),
    where deg counts neighbors excluding the self-loop; the diagonal absorbs
    the remainder. The result is doubly stochastic with positive diagonal
    for any connected graph.

    Raises
    ------
    InvalidTopology
        If the adjacency is not symmetric or lacks self-loops.
    DisconnectedGraph
        If the graph is disconnected (the weights would have rho = 1).
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency must be square, got shape {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise InvalidTopology("adjacency must be symmetric")
    if not np.all(np.diag(adj)):
        raise InvalidTopology("adjacency must include all self-loops")
    m = adj.shape[0]
    deg = adj.sum(axis=1) - 1  # neighbors, self excluded
    w = np.where(adj & ~np.eye(m, dtype=bool), 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix.from_weights(w)


def mix(matrix, stacked):
    """One gossip round: row i of the output is sum_j a_ij * row j.

    Applies A (x) I_d without materializing the Kronecker product. The row
    mean is preserved up to round-off, and the deviation from the mean
    contracts by at least ``matrix.rho`` in Frobenius norm.

    Parameters
    ----------
    matrix : MixingMatrix
    stacked : ndarray, shape (m, d)
        One row per agent.
    """
    z = np.asarray(stacked, dtype=float)
    if z.ndim != 2 or z.shape[0] != matrix.m:
        raise ShapeError(
            f"stacked state must have shape ({matrix.m}, d), got {z.shape}"
        )
    return matrix.weights @ z


def load_adjacency(path):
    """Load a plain-text 0/1 adjacency matrix for `build_metropolis_hastings`.

    Raises `InvalidTopology` naming the file when its text is not a
    non-empty square numeric matrix of 0/1 entries.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
        try:
            a = np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise InvalidTopology(f"adjacency file {path} is not a numeric matrix: {exc}") from None
    if a.size == 0:
        raise InvalidTopology(f"adjacency file {path} is empty")
    if a.shape[0] != a.shape[1]:
        raise InvalidTopology(
            f"adjacency file {path} must hold a square matrix, got {a.shape[0]} rows of {a.shape[1]}"
        )
    if not np.all((a == 0) | (a == 1)):
        raise InvalidTopology(f"adjacency file {path} must contain only 0/1 entries")
    return a.astype(bool)
