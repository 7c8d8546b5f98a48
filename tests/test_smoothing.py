import numpy as np
import pytest
from conftest import EvalCounter

from dgfm import (
    AbsTest,
    DrawLayout,
    LinearTest,
    QuadraticTest,
    SampleBatch,
    SmoothingParams,
    minibatch_estimate,
    require_unit_norm,
    sample_batch,
    sample_sphere,
    sigma_squared,
    spider_difference,
    substream,
    surrogate_smoothness,
    two_point_estimate,
)
from dgfm.errors import EmptyBatch, InvalidParameter, ShapeError


class TestSampleSphere:
    def test_unit_norm(self):
        rng = substream(0, 1)
        for d in (1, 2, 7, 40):
            for _ in range(50):
                assert abs(np.linalg.norm(sample_sphere(d, rng)) - 1.0) <= 1e-12

    def test_d1_is_sign_flip(self):
        rng = substream(1, 1)
        draws = np.array([sample_sphere(1, rng)[0] for _ in range(10_000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs((draws > 0).mean() - 0.5) <= 0.02

    def test_d5_moments(self):
        rng = substream(2, 1)
        n = 100_000
        ws = np.array([sample_sphere(5, rng) for _ in range(n)])
        # E[w] = 0 with componentwise std 1/sqrt(5)
        assert np.max(np.abs(ws.mean(axis=0))) <= 4.0 / np.sqrt(5 * n)
        second = ws.T @ ws / n
        assert np.max(np.abs(second - np.eye(5) / 5)) <= 0.01

    def test_zero_dim_rejected(self):
        with pytest.raises(ShapeError):
            sample_sphere(0, substream(0, 0))


# require_unit_norm's verdict on each input: None to pass, else the error's
# type and message. Rows whose norm is off by 0.5e-12 pass and by 2e-12 fail.
UNIT_NORM_VERDICTS = {
    "nan-row": (np.array([[1.0, 0.0], [np.nan, 0.0]]),
                (InvalidParameter, "directions must be unit norm, worst error nan")),
    "inf-row": (np.array([[1.0, 0.0], [np.inf, 0.0]]),
                (InvalidParameter, "directions must be unit norm, worst error inf")),
    "empty": (np.empty((0, 3)),
              (ValueError, "zero-size array to reduction operation maximum which has no identity")),
    "over-by-0.5e-12": (np.array([[1.0, 0.0], [0.0, 1.0 + 0.5e-12]]), None),
    "under-by-0.5e-12": (np.array([[1.0 - 0.5e-12, 0.0]]), None),
    "over-by-2e-12": (np.array([[0.0, 1.0], [1.0 + 2e-12, 0.0]]),
                      (InvalidParameter, "directions must be unit norm, worst error 2.000e-12")),
    "under-by-2e-12": (np.array([[1.0 - 2e-12, 0.0]]),
                       (InvalidParameter, "directions must be unit norm, worst error 2.000e-12")),
    "one-row": (np.array([0.6, 0.8]), None),
    "block": (np.array([[[0.6, 0.8], [0.0, -1.0]], [[1.0, 0.0], [-0.8, 0.6]]]), None),
}


@pytest.mark.parametrize("case", list(UNIT_NORM_VERDICTS))
def test_require_unit_norm_verdicts_are_pinned(case):
    ws, verdict = UNIT_NORM_VERDICTS[case]
    ws = ws.copy()
    before = ws.tobytes()
    if verdict is None:
        require_unit_norm(ws)
    else:
        kind, message = verdict
        with pytest.raises(ValueError) as info:
            require_unit_norm(ws)
        assert type(info.value) is kind
        assert str(info.value) == message
    # the caller's array is left as it was
    assert ws.tobytes() == before
    assert ws.flags.writeable


class TestSmoothingParams:
    def test_rejects_zero_delta(self):
        with pytest.raises(InvalidParameter):
            SmoothingParams(delta=0.0, dim=3)
        with pytest.raises(InvalidParameter):
            SmoothingParams(delta=-1.0, dim=3)
        with pytest.raises(InvalidParameter):
            SmoothingParams(delta=0.1, dim=0)


class TestTwoPoint:
    def test_linear_closed_form(self):
        c = np.array([1.0, -2.0, 0.5])
        obj = LinearTest(c)
        params = SmoothingParams(delta=0.05, dim=3)
        rng = substream(3, 1)
        for _ in range(200):
            w = sample_sphere(3, rng)
            g = two_point_estimate(obj, np.array([0.3, -1.0, 2.0]), params, w, 0)
            expected = 3 * (c @ w) * w
            assert np.linalg.norm(g - expected) <= 1e-9 * (1 + np.linalg.norm(expected))

    def test_linear_unbiased(self):
        c = np.array([0.6, -0.8])
        obj = LinearTest(c)
        params = SmoothingParams(delta=0.01, dim=2)
        rng = substream(4, 1)
        n = 100_000
        acc = np.zeros(2)
        acc_sq = np.zeros(2)
        x = np.zeros(2)
        for _ in range(n):
            g = two_point_estimate(obj, x, params, sample_sphere(2, rng), 0)
            acc += g
            acc_sq += g * g
        mean = acc / n
        se = np.sqrt((acc_sq / n - mean**2) / n)
        assert np.all(np.abs(mean - c) <= 3 * se)

    def test_constant_gives_zero(self):
        obj = LinearTest(np.zeros(4))
        params = SmoothingParams(delta=0.1, dim=4)
        g = two_point_estimate(obj, np.ones(4), params, sample_sphere(4, substream(5, 1)), 0)
        assert np.array_equal(g, np.zeros(4))

    def test_quadratic_at_origin_is_exactly_zero(self):
        obj = QuadraticTest(dim=6)
        params = SmoothingParams(delta=0.2, dim=6)
        # f(delta w) and f(-delta w) are the same float, so the difference is 0.0
        g = two_point_estimate(obj, np.zeros(6), params, sample_sphere(6, substream(6, 1)), 0)
        assert np.array_equal(g, np.zeros(6))

    def test_antithetic_symmetry(self):
        obj = QuadraticTest(3)
        params = SmoothingParams(delta=0.1, dim=3)
        w = sample_sphere(3, substream(7, 1))
        x = np.array([1.0, 2.0, -0.5])
        assert np.array_equal(
            two_point_estimate(obj, x, params, w, 0),
            two_point_estimate(obj, x, params, -w, 0),
        )

    def test_counter_and_shape(self):
        obj = EvalCounter(QuadraticTest(3))
        params = SmoothingParams(delta=0.1, dim=3)
        two_point_estimate(obj, np.zeros(3), params, sample_sphere(3, substream(8, 1)), 0)
        assert obj.calls == 2
        with pytest.raises(ShapeError):
            two_point_estimate(obj, np.zeros(4), params, np.ones(3), 0)


class TestBatches:
    def test_batch_validation(self):
        with pytest.raises(EmptyBatch):
            SampleBatch(xis=np.array([], dtype=int), ws=np.zeros((0, 3)))
        with pytest.raises(InvalidParameter):
            SampleBatch(xis=np.array([0]), ws=np.array([[1.0, 1.0]]))
        with pytest.raises(EmptyBatch):
            sample_batch(np.arange(5), 0, 3, substream(0, 2))

    def test_an_empty_shard_is_an_empty_batch(self):
        with pytest.raises(EmptyBatch, match="shard 0 is empty"):
            sample_batch(np.array([], dtype=int), 2, 3, substream(0, 2))
        with pytest.raises(EmptyBatch, match="shard 1 is empty"):
            DrawLayout([np.arange(2), np.arange(0), np.arange(1)], 2, 3)
        with pytest.raises(EmptyBatch, match="^no shard to draw from$"):
            DrawLayout([], 2, 3)

    def test_identical_pairs_equal_single(self):
        obj = QuadraticTest(4)
        params = SmoothingParams(delta=0.05, dim=4)
        w = sample_sphere(4, substream(9, 1))
        batch = SampleBatch(xis=np.zeros(8, dtype=int), ws=np.tile(w, (8, 1)))
        x = np.array([0.1, -0.2, 0.3, 1.0])
        single = two_point_estimate(obj, x, params, w, 0)
        assert np.allclose(minibatch_estimate(obj, x, params, batch), single, atol=1e-15)

    @pytest.mark.parametrize("make, d, layout", [
        (AbsTest, 5, "C"), (AbsTest, 5, "F"),
        (QuadraticTest, 5, "C"), (QuadraticTest, 5, "F"), (QuadraticTest, 123, "F"),
    ], ids=["C", "F", "quadratic-C", "quadratic-F", "quadratic-d123-F"])
    def test_mean_is_the_pair_by_pair_sum_in_either_layout(self, make, d, layout):
        # AbsTest's value sums |x| in one order whatever the stride of x, but
        # QuadraticTest's x @ x rounds by stride: the batch keeps its
        # directions C-ordered, so each probe is a contiguous row
        obj = make(d, n_samples=10)
        params = SmoothingParams(delta=0.05, dim=d)
        drawn = sample_batch(np.arange(10), 40, d, substream(11, 1))
        batch = SampleBatch(xis=drawn.xis, ws=np.asarray(drawn.ws, order=layout))
        x = np.linspace(-1.0, 1.0, d)
        total = two_point_estimate(obj, x, params, batch.ws[0], batch.xis[0])
        for xi, w in zip(batch.xis[1:], batch.ws[1:]):
            total += two_point_estimate(obj, x, params, w, xi)
        assert minibatch_estimate(obj, x, params, batch).tobytes() == (total / 40).tobytes()

    def test_oracle_accounting(self):
        obj = EvalCounter(QuadraticTest(4, n_samples=10))
        params = SmoothingParams(delta=0.05, dim=4)
        batch = sample_batch(np.arange(10), 16, 4, substream(10, 1))
        minibatch_estimate(obj, np.zeros(4), params, batch)
        assert obj.calls == 2 * 16
        spider_difference(obj, np.ones(4), np.zeros(4), params, batch)
        assert obj.calls == 2 * 16 + 4 * 16

    def test_variance_scales_inversely_with_batch(self):
        c = np.zeros(10)
        c[0] = 1.0
        obj = LinearTest(c)
        params = SmoothingParams(delta=0.01, dim=10)
        rng = substream(11, 1)
        reps = 1000

        def mean_sq_err(b):
            total = 0.0
            for _ in range(reps):
                batch = sample_batch(np.arange(1), b, 10, rng)
                g = minibatch_estimate(obj, np.zeros(10), params, batch)
                total += float(((g - c) ** 2).sum())
            return total / reps

        v1 = mean_sq_err(1)
        v64 = mean_sq_err(64)
        assert abs(v64 * 64 / v1 - 1.0) <= 0.20


class TestSpiderDifference:
    def test_same_point_is_exactly_zero(self):
        obj = AbsTest(5)
        params = SmoothingParams(delta=0.05, dim=5)
        batch = sample_batch(np.arange(1), 4, 5, substream(12, 1))
        x = np.array([0.5, -1.0, 0.0, 2.0, -0.3])
        diff = spider_difference(obj, x, x.copy(), params, batch)
        assert np.array_equal(diff, np.zeros(5))

    def test_linear_is_location_independent(self):
        obj = LinearTest(np.array([2.0, -1.0, 0.5]))
        params = SmoothingParams(delta=0.05, dim=3)
        batch = sample_batch(np.arange(1), 8, 3, substream(13, 1))
        diff = spider_difference(obj, np.ones(3), -np.ones(3), params, batch)
        assert np.linalg.norm(diff) <= 1e-9

    def test_per_pair_lipschitz_bound(self):
        d = 5
        obj = AbsTest(d)  # sqrt(d)-Lipschitz
        lip = np.sqrt(d)
        delta = 0.05
        params = SmoothingParams(delta=delta, dim=d)
        rng = substream(14, 1)
        for _ in range(1000):
            w = sample_sphere(d, rng)
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            gx = two_point_estimate(obj, x, params, w, 0)
            gy = two_point_estimate(obj, y, params, w, 0)
            bound = d * lip / delta * np.linalg.norm(x - y)
            assert np.linalg.norm(gx - gy) <= bound * (1 + 1e-9)

    def test_shape_mismatch(self):
        obj = AbsTest(3)
        params = SmoothingParams(delta=0.1, dim=3)
        batch = sample_batch(np.arange(1), 2, 3, substream(15, 1))
        with pytest.raises(ShapeError):
            spider_difference(obj, np.zeros(3), np.zeros(4), params, batch)


def surrogate_grad(obj, x, params, n, rng):
    """Mean of n two-point estimates over pairs drawn from the whole objective."""
    batch = sample_batch(np.arange(obj.n_samples), n, params.dim, rng)
    return minibatch_estimate(obj, x, params, batch)


class TestSurrogateGradient:
    def test_quadratic_matches_exact_surrogate(self):
        obj = QuadraticTest(dim=4)
        params = SmoothingParams(delta=0.05, dim=4)
        x = np.array([1.0, 0.0, -2.0, 0.5])
        n = 40_000
        rng = substream(16, 1)
        est = surrogate_grad(obj, x, params, n, rng)
        # componentwise variance of the single-pair estimator is bounded by
        # sigma^2; 3 * sqrt(sigma2/n) is a conservative componentwise band
        band = 3 * np.sqrt(sigma_squared(4, 2 * np.linalg.norm(x) + 1) / n)
        assert np.max(np.abs(est - obj.smoothed_grad(x))) <= band

    def test_constant_objective(self):
        obj = LinearTest(np.zeros(3))
        params = SmoothingParams(delta=0.1, dim=3)
        est = surrogate_grad(obj, np.ones(3), params, 100, substream(17, 1))
        assert np.array_equal(est, np.zeros(3))

    def test_abs_at_origin(self):
        obj = AbsTest(1)
        params = SmoothingParams(delta=0.1, dim=1)
        n = 20_000
        est = surrogate_grad(obj, np.zeros(1), params, n, substream(18, 1))
        assert abs(est[0]) <= 3 * np.sqrt(sigma_squared(1, 1.0) / n)


class TestMomentConstants:
    def test_sigma_squared_values(self):
        assert abs(sigma_squared(1, 1.0) - 40.106052394096) <= 1e-9
        assert abs(sigma_squared(28, 1.0) - 1122.969467034688) <= 1e-8

    def test_sigma_squared_quadratic_in_lipschitz(self):
        assert sigma_squared(7, 2.0) == 4.0 * sigma_squared(7, 1.0)

    def test_second_moment_bound_holds_empirically(self):
        c = np.zeros(5)
        c[2] = 1.0  # exactly 1-Lipschitz
        obj = LinearTest(c)
        params = SmoothingParams(delta=0.01, dim=5)
        rng = substream(20, 1)
        n = 20_000
        total = 0.0
        for _ in range(n):
            g = two_point_estimate(obj, np.zeros(5), params, sample_sphere(5, rng), 0)
            total += float(g @ g)
        assert total / n <= 1.1 * sigma_squared(5, 1.0)

    def test_smoothing_sandwich(self):
        obj = AbsTest(3)
        lip = np.sqrt(3)
        delta = 0.2
        x = np.array([0.4, -0.1, 0.7])
        rng = substream(21, 1)
        n = 20_000
        vals = np.array([obj.eval(x + delta * sample_sphere(3, rng), 0) for _ in range(n)])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - obj.eval(x, 0)) <= delta * lip + 3 * se

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameter):
            sigma_squared(0, 1.0)
        with pytest.raises(InvalidParameter):
            sigma_squared(3, 0.0)
        with pytest.raises(InvalidParameter):
            surrogate_smoothness(3, 1.0, 0.0)


def test_substream_determinism():
    a = substream(42, 0, 3, 17).standard_normal(32)
    b = substream(42, 0, 3, 17).standard_normal(32)
    c = substream(42, 0, 3, 18).standard_normal(32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
