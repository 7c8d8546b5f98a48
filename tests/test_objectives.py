import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dgfm import (
    AbsTest,
    CappedL1Svm,
    LinearTest,
    QuadraticTest,
    consensus_error,
    estimate_lipschitz,
    substream,
)
from dgfm.errors import InvalidParameter, SampleIndexError, ShapeError


def tiny_svm(lam=1e-3, alpha=2.0):
    features = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
    labels = np.array([1.0, -1.0, 1.0])
    return CappedL1Svm(features, labels, lam=lam, alpha=alpha)


class TestCappedL1Svm:
    def test_value_at_origin_is_one(self):
        obj = tiny_svm()
        assert obj.eval(np.zeros(2), 0) == 1.0

    def test_hinge_vanishes_past_margin(self):
        features = sp.csr_matrix(np.array([[1.0, 0.0]]))
        obj = CappedL1Svm(features, np.array([1.0]), lam=0.0, alpha=2.0)
        assert obj.eval(np.array([2.0, 0.0]), 0) == 0.0

    def test_default_lam_and_alpha(self, svm_objective):
        assert svm_objective.alpha == 2.0
        assert svm_objective.lam == pytest.approx(1e-5 / svm_objective.n_samples)

    def test_nonnegative_everywhere(self):
        obj = tiny_svm()
        rng = substream(0, 4)
        for _ in range(200):
            assert obj.eval(rng.standard_normal(2) * 5, int(rng.integers(3))) >= 0.0

    def test_penalty_cap_and_flatness(self):
        lam, alpha = 1e-3, 2.0
        obj = tiny_svm(lam=lam, alpha=alpha)
        rng = substream(1, 4)
        for _ in range(100):
            x = rng.standard_normal(2) * 10
            assert obj._penalty(x) <= lam * alpha * 2 + 1e-15
        e1 = np.zeros(2)
        at_cap = e1.copy()
        at_cap[0] = alpha
        past_cap = e1.copy()
        past_cap[0] = alpha + 1.0
        # flat beyond the cap: identical values, not merely close
        assert obj._penalty(at_cap) == obj._penalty(past_cap) == lam * alpha

    def test_full_loss_is_mean_of_samples(self):
        obj = tiny_svm()
        x = np.array([0.3, -0.7])
        by_hand = np.mean([obj.eval(x, xi) for xi in range(obj.n_samples)])
        assert obj.full_loss(x) == pytest.approx(by_hand, rel=1e-12)

    def test_index_out_of_range(self):
        obj = tiny_svm()
        with pytest.raises(SampleIndexError):
            obj.eval(np.zeros(2), 3)

    def test_rejects_bad_labels_and_params(self):
        features = sp.csr_matrix(np.eye(2))
        with pytest.raises(InvalidParameter):
            CappedL1Svm(features, np.array([1.0, 2.0]), lam=1e-3, alpha=2.0)
        with pytest.raises(InvalidParameter):
            CappedL1Svm(features, np.array([1.0, -1.0]), lam=-1e-3, alpha=2.0)
        with pytest.raises(InvalidParameter):
            CappedL1Svm(features, np.array([1.0, -1.0]), lam=1e-3, alpha=0.0)

    def test_building_leaves_the_callers_arrays_as_they_were(self, svm_dataset):
        # the SVM stores its rows times their labels: a new array, never the
        # caller's CSR data (which a float CSR input shares) written in place
        features, labels = svm_dataset.features, svm_dataset.labels
        assert (labels < 0).any() and features.dtype == float
        before = [a.copy() for a in (features.data, features.indices, features.indptr, labels)]
        CappedL1Svm(features, labels, lam=1e-3, alpha=2.0)
        after = (features.data, features.indices, features.indptr, labels)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lam_is_rejected(self, lam):
        with pytest.raises(InvalidParameter, match="finite lam"):
            tiny_svm(lam=lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_rejected(self, bad):
        features = sp.csr_matrix(np.array([[1.0, 0.0], [0.5, bad]]))
        with pytest.raises(InvalidParameter, match="feature values must be finite"):
            CappedL1Svm(features, np.array([1.0, -1.0]), lam=1e-3, alpha=2.0)


class TestSyntheticObjectives:
    def test_quadratic_values(self):
        obj = QuadraticTest(dim=3)
        assert obj.eval(np.zeros(3), 0) == 0.0
        e1 = np.array([1.0, 0.0, 0.0])
        assert obj.eval(e1, 0) == 1.0
        assert obj.n_samples == 1

    def test_quadratic_surrogate_documented(self):
        obj = QuadraticTest(dim=3)
        assert obj.smoothed_value(np.zeros(3), 0.1) == 0.1**2
        x = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(obj.smoothed_grad(x), 2 * x)

    def test_two_sample_mean(self):
        # two summands valued 0 and 1 at x average to 0.5
        from dgfm import StochasticObjective

        class TwoValued(StochasticObjective):
            def eval(self, x, xi):
                self._check_index(xi)
                return float(xi)

        obj = TwoValued(n_samples=2, dim=2)
        assert obj.full_loss(np.zeros(2)) == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_linear_coefficient_is_rejected(self, bad):
        with pytest.raises(InvalidParameter, match="c must be finite"):
            LinearTest([1.0, bad])

    def test_constant_full_loss(self):
        obj = LinearTest(np.zeros(3), n_samples=5)
        assert obj.full_loss(np.ones(3)) == 0.0


@pytest.mark.parametrize("make", [tiny_svm, lambda: QuadraticTest(2), lambda: AbsTest(2),
                                  lambda: LinearTest([1.0, -2.0])],
                         ids=["svm", "quadratic", "abs", "linear"])
def test_point_of_the_wrong_shape_is_rejected(make):
    obj = make()
    for x in (np.ones(1), np.ones(3), np.ones((1, 2)), np.ones((2, 2))):
        with pytest.raises(ShapeError):
            obj.eval(x, 0)
        with pytest.raises(ShapeError):
            obj.full_loss(x)


class TestEstimateLipschitz:
    def test_linear_recovers_slope(self):
        c = np.array([3.0, 0.0, -4.0, 0.0, 0.0])  # norm 5
        obj = LinearTest(c)
        est = estimate_lipschitz(obj, probes=1000, radius=1.0, rng=substream(2, 4))
        assert 0.95 * 5.0 <= est <= 5.0 * (1 + 1e-9)

    def test_constant_is_zero(self):
        obj = LinearTest(np.zeros(4))
        assert estimate_lipschitz(obj, probes=100, radius=1.0, rng=substream(3, 4)) == 0.0

    def test_hinge_slope_near_kink(self):
        lam = 1e-4
        features = sp.csr_matrix(np.array([[1.0, 0.0]]))
        obj = CappedL1Svm(features, np.array([1.0]), lam=lam, alpha=2.0)
        est = estimate_lipschitz(obj, probes=1000, radius=2.0, rng=substream(4, 4))
        assert 0.8 <= est <= 1.0 + lam * 2 + 1e-9

    def test_needs_two_probes(self):
        with pytest.raises(InvalidParameter):
            estimate_lipschitz(LinearTest(np.ones(2)), probes=1, radius=1.0, rng=substream(5, 4))

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(InvalidParameter, match="radius must be positive and finite"):
            estimate_lipschitz(LinearTest(np.ones(2)), probes=2, radius=radius,
                               rng=substream(5, 4))


def test_hint_prefers_supplied_constant(svm_objective):
    # rows are unit-normalized, so the hinge is 1-Lipschitz per sample
    assert svm_objective.lipschitz_hint == pytest.approx(
        1.0 + svm_objective.lam * svm_objective.dim, rel=1e-9
    )


def bits(value):
    return struct.pack("<d", value)


@st.composite
def svm_points(draw):
    """A capped-L1 SVM with an empty row, a point and a stack of points.

    The point entries include -0.0 and values below, at and beyond the cap
    +-alpha; lam is 0 or the default 1e-5 / n.
    """
    n, d = draw(st.integers(2, 6)), draw(st.integers(1, 10))
    values = st.floats(-4.0, 4.0).filter(bool)
    dense = np.array([[draw(values) if draw(st.booleans()) else 0.0 for _ in range(d)]
                      for _ in range(n)])
    dense[draw(st.integers(0, n - 1))] = 0.0
    labels = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)])
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    entries = st.sampled_from([-0.0, 0.0, alpha, -alpha, np.nextafter(alpha, 0.0),
                               np.nextafter(alpha, 9.0)]) | st.floats(-3 * alpha, 3 * alpha)
    x = np.array([draw(entries) for _ in range(d)])
    stacked = np.array([[draw(entries) for _ in range(d)]
                        for _ in range(draw(st.integers(1, 5)))])
    lam = draw(st.sampled_from([0.0, 1e-5 / n]))
    return sp.csr_matrix(dense), labels, lam, alpha, x, stacked


@settings(derandomize=True, deadline=None)
@given(case=svm_points())
def test_oracle_and_observation_keep_their_summation_order(case):
    A, labels, lam, alpha, x, stacked = case
    obj = CappedL1Svm(A, labels, lam=lam, alpha=alpha)
    assert np.diff(A.indptr).min() == 0  # the empty row is kept
    data, idx, ptr = A.data, A.indices, A.indptr
    penalty = lam * float(np.add.reduce(np.minimum(np.abs(x), alpha)))
    for xi in range(A.shape[0]):
        lo, hi = ptr[xi], ptr[xi + 1]
        hinge = max(1.0 - labels[xi] * float(np.dot(data[lo:hi], x[idx[lo:hi]])), 0.0)
        assert bits(obj.eval(x, xi)) == bits(hinge + penalty), xi
    loss = float(np.maximum(1.0 - labels * A.dot(x), 0.0).mean()) + penalty
    assert bits(obj.full_loss(x)) == bits(loss)
    spread = float(((stacked - stacked.mean(axis=0)) ** 2).sum())
    assert bits(consensus_error(stacked)) == bits(spread)
    # the batch kernel on every (point, row) pair, the labels applied after the bincount
    points = np.vstack([x, stacked])
    P, xis = np.tile(points, (A.shape[0], 1)), np.repeat(np.arange(A.shape[0]), len(points))
    counts = ptr[xis + 1] - ptr[xis]
    rows = np.repeat(np.arange(len(xis)), counts)
    nz = np.concatenate([np.arange(ptr[xi], ptr[xi + 1]) for xi in xis])
    dots = np.bincount(rows, weights=data[nz] * P[rows, idx[nz]], minlength=len(xis))
    want = (np.maximum(1.0 - labels[xis] * dots, 0.0)
            + lam * np.minimum(np.abs(P), alpha).sum(axis=1))
    assert obj.eval_batch(P, xis).tobytes() == want.tobytes()


@st.composite
def int32_csr_cases(draw):
    """An int32-indexed CSR matrix with empty rows, one-entry rows and negative values.

    Also labels, a penalty, a point and a batch of (row of P, sample index)
    pairs; the points' scale spans four decades.
    """
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    counts = rng.integers(0, d + 1, n)
    counts[:2] = 0, 1
    rng.shuffle(counts)
    indices = np.concatenate([np.sort(rng.choice(d, k, replace=False)) for k in counts])
    indptr = np.concatenate(([0], np.cumsum(counts)))
    features = sp.csr_matrix((rng.uniform(-2.0, 2.0, indices.size), indices, indptr), (n, d))
    labels = rng.choice([-1.0, 1.0], n)
    lam, alpha = draw(st.sampled_from([0.0, 1e-5 / n, 0.1])), draw(st.floats(0.01, 3.0))
    x = 10.0 ** rng.uniform(-2.0, 2.0) * rng.standard_normal(d)
    r = draw(st.integers(0, 2 * n))
    P = 10.0 ** rng.uniform(-2.0, 2.0, (r, 1)) * rng.standard_normal((r, d))
    return features, labels, lam, alpha, x, P, rng.integers(0, n, r)


@settings(derandomize=True, deadline=None)
@given(case=int32_csr_cases())
def test_the_svm_reads_intp_indices_as_int32_ones_read(case):
    # the SVM keeps its own intp indices and row bounds; every value it gives
    # is bit for bit the same computation through the caller's int32 ones
    features, labels, lam, alpha, x, P, xis = case
    assert features.indices.dtype == features.indptr.dtype == np.int32
    before = [a.copy() for a in (features.data, features.indices, features.indptr)]
    obj = CappedL1Svm(features, labels, lam=lam, alpha=alpha)
    after = (features.data, features.indices, features.indptr)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(before, after))
    assert obj._indices.dtype == obj._indptr.dtype == np.intp
    assert obj._matrix.indices is obj._indices and obj._matrix.indptr is obj._indptr
    idx32, ptr32 = features.indices, features.indptr
    data = features.data * np.repeat(labels, np.diff(ptr32))
    penalty = lam * float(np.add.reduce(np.minimum(np.abs(x), alpha)))
    for xi in range(features.shape[0]):
        lo, hi = ptr32[xi], ptr32[xi + 1]
        hinge = max(1.0 - float(data[lo:hi].dot(x.take(idx32[lo:hi]))), 0.0)
        assert bits(obj.eval(x, xi)) == bits(hinge + penalty), xi
    hinge = np.maximum(1.0 - labels * (features @ x), 0.0)
    assert bits(obj.full_loss(x)) == bits(float(np.add.reduce(hinge) / len(labels)) + penalty)
    counts = ptr32[xis + 1] - ptr32[xis]
    rows = np.repeat(np.arange(len(xis)), counts)
    nz = np.concatenate([np.arange(ptr32[xi], ptr32[xi + 1]) for xi in xis] + [[]]).astype(int)
    dots = np.bincount(rows, weights=data[nz] * P[rows, idx32[nz]], minlength=len(xis))
    want = np.maximum(1.0 - dots, 0.0) + lam * np.minimum(np.abs(P), alpha).sum(axis=1)
    assert obj.eval_batch(P, xis).tobytes() == want.tobytes()
