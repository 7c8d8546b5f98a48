"""Stochastic finite-sum objectives exposing function values only.

No objective in this package ever exposes a gradient; optimizers see a
single method ``eval(x, xi)`` returning the value of the xi-th summand at
x, one call per counted oracle call. A sample index is an integer, numpy
integers included (``operator.index``): a float, a string or any other
value raises `SampleIndexError`, as an index outside range(n_samples)
does. Measurement (the stationarity proxy
of :mod:`dgfm.metrics`) calls its batched form ``eval_batch(P, xis)``,
the value of summand ``xis[r]`` at row ``P[r]`` for every r; the base
class forms it from ``eval``, and an objective that overrides it must
agree with ``eval`` row by row (the SVM's CSR kernel agrees up to
summation order). The concrete objectives are the capped-L1 hinge-loss
SVM used in the benchmark experiments and a few synthetic test functions
whose smoothed surrogates are known in closed form (those are the
unbiasedness oracles of the test suite).

The SVM's scalar ``eval`` is the counted path: every probe the optimizers
make is one call. The SVM stores each row's values times its label, and
its CSR column indices and row bounds as intp, so past its index and
point checks ``eval`` reads the row's bounds as Python scalars
(``ndarray.item``), gathers the row's coordinates of x with one ``x[idx]``
(intp indices need no cast, where ``take`` on int32 ones casts them on
every call: 128 against 517 ns for 14 indices, numpy 2.4) and makes four
numpy calls: the row's ``ndarray.dot`` (the ddot of ``np.dot``, without
its dispatch), and ``np.absolute``, an in-place ``np.minimum`` against the
cap held as a read-only 0-d float64 array, and one ``np.add.reduce`` for
the penalty. It clamps the hinge at 0 with a comparison, which keeps a NaN
as ``max`` does. Its ``eval_batch`` is a separate CSR kernel over many
rows, which only measurement calls.

Objectives are immutable after construction and ``eval`` is pure, so they
are safe to share across concurrently simulated agents.
"""

import math
import operator

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameter, SampleIndexError, ShapeError, require_int, require_positive
from .smoothing import sample_sphere

# The penalty's ufuncs, bound once: every counted oracle call makes them.
_absolute, _minimum, _add_reduce = np.absolute, np.minimum, np.add.reduce
# int() without its truncation of floats and parsing of strings
_index = operator.index

__all__ = [
    "StochasticObjective",
    "CappedL1Svm",
    "QuadraticTest",
    "AbsTest",
    "LinearTest",
    "estimate_lipschitz",
]


class StochasticObjective:
    """Base class: n_samples summands over R^dim, values only.

    Attributes
    ----------
    n_samples : int
        Number of summands; sample indices run over range(n_samples).
    dim : int
        Dimension of the decision variable.
    lipschitz_hint : float or None
        Known (or safely assumed) Lipschitz constant; estimators fall back
        to `estimate_lipschitz` when absent.
    name : str
        Identifier used in run metadata.
    """

    def __init__(self, n_samples, dim, lipschitz_hint=None, name=None):
        self.n_samples, self.dim = require_int(1, n_samples=n_samples, dim=dim)
        self.lipschitz_hint = lipschitz_hint
        self.name = name or type(self).__name__

    def _check_index(self, xi):
        try:
            xi = _index(xi)
        except TypeError:
            raise SampleIndexError(f"sample index must be an integer, got {xi!r}") from None
        if not 0 <= xi < self.n_samples:
            raise SampleIndexError(
                f"sample index {xi} out of range [0, {self.n_samples})"
            )
        return xi

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ShapeError(f"need x of shape ({self.dim},), got {x.shape}")
        return x

    def _check_batch(self, P, xis):
        xis = np.asarray(xis)
        # an empty list is a float array: it holds no index to refuse
        if xis.dtype.kind not in "biu" and xis.size:
            raise SampleIndexError(f"sample indices must be integers, got {xis.dtype} ones")
        xis = xis.astype(np.intp, copy=False)
        P = np.asarray(P, dtype=float)
        if xis.ndim != 1 or P.shape != (xis.shape[0], self.dim):
            raise ShapeError(
                f"need xis (r,) and P (r, {self.dim}), got {xis.shape} and {P.shape}"
            )
        if xis.size and not (0 <= xis.min() and xis.max() < self.n_samples):
            bad = xis[(xis < 0) | (xis >= self.n_samples)][0]
            raise SampleIndexError(
                f"sample index {bad} out of range [0, {self.n_samples})"
            )
        return P, xis

    def eval(self, x, xi):
        """Value of the xi-th summand at x. Deterministic in (x, xi)."""
        raise NotImplementedError

    def eval_batch(self, P, xis):
        """Values of summand ``xis[r]`` at row ``P[r]``, shape (r,).

        ``P`` has shape (len(xis), dim). Equal to ``eval`` row by row; this
        base form is that loop.
        """
        P, xis = self._check_batch(P, xis)
        return np.array([self.eval(p, xi) for p, xi in zip(P, xis)], dtype=float)

    def full_loss(self, x):
        """Average of all summands at x (reporting only, not an oracle call)."""
        x = self._check_point(x)
        return sum(self.eval(x, xi) for xi in range(self.n_samples)) / self.n_samples


class CappedL1Svm(StochasticObjective):
    """Hinge-loss SVM with the capped-L1 (nonconvex, nonsmooth) penalty.

    The xi-th summand is

        max(1 - b_xi * <a_xi, x>, 0) + lam * sum_j min(|x_j|, alpha),

    i.e. the per-sample hinge plus the full deterministic regularizer. The
    regularizer is included in every stochastic evaluation so the two-point
    probes see the same objective the trajectory reports; leaving it out of
    the oracle would change what is being optimized.

    Parameters
    ----------
    features : scipy.sparse matrix, shape (n, d)
        One sample per row (converted to CSR internally).
    labels : array of +-1, shape (n,)
    lam, alpha : float
        Penalty weight and cap, both positive.

    The objective stores each row's values times the row's label, a new
    array in place of the unsigned one, so no value of the caller's
    ``features`` or ``labels`` changes. A margin b_xi <a_xi, x> is then
    the dot product of the signed row with x, bit for bit: negating a term
    negates every rounded product and sum exactly.

    It also stores the matrix's column indices and row bounds as intp, on
    the matrix that ``full_loss`` multiplies by, so ``eval``, ``eval_batch``
    and ``full_loss`` read one index array, and ``eval`` gathers a row's
    coordinates of x without casting its indices. The caller's matrix keeps
    its own (int32, as the parser stores them). An index then takes 8 B, 4
    B more per nonzero than int32: 1.6 MB more on 400k nonzeros.
    """

    def __init__(self, features, labels, lam, alpha, name="capped-l1-svm"):
        features = sp.csr_matrix(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        n, d = features.shape
        if labels.shape != (n,):
            raise ShapeError(f"labels must have shape ({n},), got {labels.shape}")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise InvalidParameter("labels must all be +1 or -1")
        if not np.isfinite(features.data).all():
            raise InvalidParameter("feature values must be finite")
        self.check_penalty(lam, alpha)
        # Row hinge is ||a_xi||-Lipschitz and the penalty lam*d-Lipschitz at worst.
        hint = float(np.sqrt(features.multiply(features).sum(axis=1)).max()) + lam * d
        super().__init__(n_samples=n, dim=d, lipschitz_hint=hint, name=name)
        self.lam = float(lam)
        self.alpha = float(alpha)
        # np.minimum takes a float64 0-d array faster than the Python float
        self._cap = np.array(self.alpha)
        self._cap.setflags(write=False)
        self.labels = labels
        # new arrays on this matrix object, set on it rather than rebuilt
        # through scipy's constructor, which may cast the indices back down:
        # the caller's matrix keeps its own values and int32 indices
        features.data = features.data * np.repeat(labels, np.diff(features.indptr))
        features.indices = features.indices.astype(np.intp)
        features.indptr = features.indptr.astype(np.intp)
        self._matrix = features
        self._indptr = features.indptr
        self._indices = features.indices
        self._data = features.data
        self.labels.setflags(write=False)

    @staticmethod
    def check_penalty(lam, alpha):
        """Raise InvalidParameter unless the penalty weight and cap are admissible."""
        # lam = 0 degenerates to the plain hinge, which is useful in tests
        if not (0.0 <= lam < math.inf and alpha > 0.0):
            raise InvalidParameter(f"need finite lam >= 0 and alpha > 0, got {(lam, alpha)}")

    @classmethod
    def from_dataset(cls, dataset, lam=None, alpha=2.0, name=None):
        """Build from a parsed dataset; lam defaults to 1e-5 / n."""
        if lam is None:
            lam = 1e-5 / dataset.n
        return cls(
            dataset.features,
            dataset.labels,
            lam=lam,
            alpha=alpha,
            name=name or "capped-l1-svm",
        )

    def _penalty(self, x):
        # the ufunc reduction itself: ndarray.sum without its Python wrapper
        capped = _absolute(x)
        _minimum(capped, self._cap, out=capped)
        return self.lam * float(_add_reduce(capped))

    def eval(self, x, xi):
        xi = self._check_index(xi)
        x = self._check_point(x)
        # Python scalars and one gather through intp indices, which numpy
        # takes as they are: the same products and sums as indexing
        lo, hi = self._indptr.item(xi), self._indptr.item(xi + 1)
        hinge = 1.0 - float(self._data[lo:hi].dot(x[self._indices[lo:hi]]))
        if hinge < 0.0:  # max(hinge, 0.0) without the call; a NaN stays, as with max
            hinge = 0.0
        return hinge + self._penalty(x)

    def eval_batch(self, P, xis):
        """One CSR kernel for all rows; equal to ``eval`` up to summation order."""
        P, xis = self._check_batch(P, xis)
        r = xis.shape[0]
        lo = self._indptr[xis]
        counts = self._indptr[xis + 1] - lo
        rows = np.repeat(np.arange(r), counts)
        # the k-th gathered nonzero is its row's indptr start plus its offset in the row
        nz = np.arange(rows.shape[0]) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        # bincount, not add.reduceat: a row with no nonzeros sums to 0
        dots = np.bincount(rows, weights=self._data[nz] * P[rows, self._indices[nz]],
                           minlength=r)
        hinge = np.maximum(1.0 - dots, 0.0)
        return hinge + self.lam * np.minimum(np.abs(P), self.alpha).sum(axis=1)

    def full_loss(self, x):
        x = self._check_point(x)
        hinge = self._matrix.dot(x)
        np.subtract(1.0, hinge, out=hinge)
        np.maximum(hinge, 0.0, out=hinge)
        # the sum over n that ndarray.mean takes, without its wrapper
        return float(np.add.reduce(hinge) / self.n_samples) + self._penalty(x)


class QuadraticTest(StochasticObjective):
    """f(x) = ||x||^2, whose smoothed surrogate is exactly ||x||^2 + delta^2.

    Sphere symmetry forces the surrogate into closed form, making this the
    reference oracle for estimator unbiasedness: grad f_delta(x) = 2x for
    every smoothing radius. All summands are identical; ``n_samples`` above
    1 only exists so the objective can be partitioned across agents.
    """

    def __init__(self, dim, n_samples=1):
        super().__init__(n_samples=n_samples, dim=dim, name="quadratic")

    def eval(self, x, xi):
        self._check_index(xi)
        x = self._check_point(x)
        return float(x @ x)

    def full_loss(self, x):
        x = self._check_point(x)
        return float(x @ x)

    def smoothed_value(self, x, delta):
        return float(np.asarray(x) @ np.asarray(x)) + delta**2

    def smoothed_grad(self, x):
        return 2.0 * np.asarray(x, dtype=float)


class AbsTest(StochasticObjective):
    """f(x) = sum_j |x_j|: nonsmooth at every axis, sqrt(d)-Lipschitz."""

    def __init__(self, dim, n_samples=1):
        super().__init__(n_samples=n_samples, dim=dim, name="abs")
        self.lipschitz_hint = math.sqrt(self.dim)

    def eval(self, x, xi):
        self._check_index(xi)
        return float(np.abs(self._check_point(x)).sum())

    def full_loss(self, x):
        return float(np.abs(self._check_point(x)).sum())


class LinearTest(StochasticObjective):
    """f(x) = <c, x>: the estimator applied to it is location-independent."""

    def __init__(self, c, n_samples=1):
        c = np.asarray(c, dtype=float)
        if not np.isfinite(c).all():
            raise InvalidParameter(f"c must be finite, got {c}")
        super().__init__(
            n_samples=n_samples,
            dim=c.shape[0],
            lipschitz_hint=float(np.linalg.norm(c)),
            name="linear",
        )
        self.c = c
        self.c.setflags(write=False)

    def eval(self, x, xi):
        self._check_index(xi)
        return float(self.c @ self._check_point(x))

    def full_loss(self, x):
        return float(self.c @ self._check_point(x))


def estimate_lipschitz(obj, probes, radius, rng):
    """Probe-based lower estimate of the Lipschitz constant of obj.

    Samples (x, y, xi) triples inside the ball of the given radius, with
    step lengths spread over three decades so short steps catch local
    kinks, and returns the largest observed slope
    |eval(x, xi) - eval(y, xi)| / ||x - y||. Always a *lower* bound on the
    true constant; reported as such wherever it is used.
    """
    probes = require_int(2, probes=probes)
    require_positive(radius=radius)
    d = obj.dim
    best = 0.0
    for _ in range(probes):
        xi = int(rng.integers(obj.n_samples))
        center = radius * rng.uniform() ** (1.0 / d) * sample_sphere(d, rng)
        step = radius * 10.0 ** rng.uniform(-3.0, 0.0) * sample_sphere(d, rng)
        slope = abs(obj.eval(center + step, xi) - obj.eval(center, xi)) / np.linalg.norm(step)
        best = max(best, slope)
    return best
