import numpy as np
import pytest

from dgfm import (
    MixingMatrix,
    build_metropolis_hastings,
    build_ring,
    mix,
    validate,
)
from dgfm.errors import DisconnectedGraph, InvalidTopology, ShapeError
from dgfm.topology import averaging_matrix


def random_stack(rng, m, d):
    return rng.standard_normal((m, d))


class TestBuildRing:
    def test_m4_gap_is_one_third(self):
        # circulant eigenvalues 1/3 + (2/3)cos(pi k / 2); largest off-mean is 1/3
        assert abs(build_ring(4).rho - 1.0 / 3.0) <= 1e-12

    def test_m3_equals_averaging_matrix(self):
        ring = build_ring(3)
        assert np.allclose(ring.weights, averaging_matrix(3), atol=1e-15)
        assert ring.rho <= 1e-12

    def test_m20_matches_eigendecomposition_oracle(self):
        ring = build_ring(20)
        analytic = max(
            abs(1.0 / 3.0 + 2.0 / 3.0 * np.cos(2.0 * np.pi * k / 20)) for k in range(1, 20)
        )
        numeric = max(
            abs(v)
            for v in np.linalg.eigvals(ring.weights - averaging_matrix(20))
        )
        assert abs(ring.rho - analytic) <= 1e-10
        assert abs(ring.rho - numeric) <= 1e-10

    def test_invariants(self):
        ring = build_ring(7)
        assert np.max(np.abs(ring.weights.sum(axis=1) - 1)) <= 1e-12
        assert np.max(np.abs(ring.weights.sum(axis=0) - 1)) <= 1e-12
        assert np.all(np.diag(ring.weights) > 0)
        assert 0 <= ring.rho < 1

    def test_too_small(self):
        with pytest.raises(InvalidTopology):
            build_ring(2)


class TestMetropolisHastings:
    def test_complete_m3_equals_averaging(self):
        adj = np.ones((3, 3), dtype=bool)
        mh = build_metropolis_hastings(adj)
        assert np.allclose(mh.weights, averaging_matrix(3), atol=1e-15)
        assert mh.rho <= 1e-12

    def test_path_graph_hand_values(self):
        adj = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        mh = build_metropolis_hastings(adj)
        third = 1.0 / 3.0
        expected = np.array([[2 * third, third, 0], [third, third, third], [0, third, 2 * third]])
        assert np.allclose(mh.weights, expected, atol=1e-15)
        assert np.max(np.abs(mh.weights.sum(axis=0) - 1)) <= 1e-12

    def test_ring4_adjacency_matches_ring_builder(self):
        adj = np.eye(4, dtype=bool)
        for i in range(4):
            adj[i, (i + 1) % 4] = adj[(i + 1) % 4, i] = True
        mh = build_metropolis_hastings(adj)
        assert mh.rho <= build_ring(4).rho + 1e-9
        # independent SVD oracle
        svd_rho = np.linalg.svd(mh.weights - averaging_matrix(4), compute_uv=False)[0]
        assert abs(mh.rho - svd_rho) <= 1e-12

    def test_disconnected_raises(self):
        adj = np.eye(4, dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        with pytest.raises(DisconnectedGraph):
            build_metropolis_hastings(adj)

    def test_asymmetric_and_missing_self_loops(self):
        bad = np.array([[1, 1], [0, 1]], dtype=bool)
        with pytest.raises(InvalidTopology):
            build_metropolis_hastings(bad)
        no_loops = np.array([[0, 1], [1, 0]], dtype=bool)
        with pytest.raises(InvalidTopology):
            build_metropolis_hastings(no_loops)


class TestValidate:
    def test_identity_passes_stochasticity_fails_connectivity(self):
        report = validate(np.eye(2))
        assert report.row_stochastic and report.col_stochastic and report.nonnegative
        assert not report.connected
        assert abs(report.rho - 1.0) <= 1e-12

    def test_row_stochastic_only_fails_columns(self):
        report = validate(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert report.row_stochastic
        assert not report.col_stochastic
        assert abs(report.worst_col_error - 0.4) <= 1e-12

    def test_ring5_passes_everything(self):
        assert validate(build_ring(5).weights).ok

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            validate(np.ones((2, 3)))

    def test_constructor_consumes_report(self):
        with pytest.raises(InvalidTopology):
            MixingMatrix.from_weights(np.array([[0.9, 0.1], [0.5, 0.5]]))
        with pytest.raises(DisconnectedGraph):
            MixingMatrix.from_weights(np.eye(3))


class TestDirectBuild:
    """``MixingMatrix(m=, weights=, rho=)`` validates as `from_weights` does."""

    def test_weights_that_are_not_doubly_stochastic_are_rejected(self):
        with pytest.raises(InvalidTopology, match="row sums off"):
            MixingMatrix(m=4, weights=2 * np.eye(4), rho=0.25)

    def test_disconnected_weights_are_rejected(self):
        with pytest.raises(DisconnectedGraph):
            MixingMatrix(m=3, weights=np.eye(3), rho=1.0)

    def test_m_other_than_the_row_count_is_rejected(self):
        ring = build_ring(4)
        with pytest.raises(ShapeError, match="m is 5, but the weights have 4 rows"):
            MixingMatrix(m=5, weights=ring.weights, rho=ring.rho)

    def test_rho_other_than_the_gap_is_rejected(self):
        ring = build_ring(4)
        with pytest.raises(InvalidTopology, match="rho is 0.25, but the weights' gap is 0.333"):
            MixingMatrix(m=4, weights=ring.weights, rho=0.25)
        assert MixingMatrix(m=4, weights=ring.weights, rho=ring.rho + 1e-13).m == 4

    def test_weights_that_are_not_an_array_are_rejected(self):
        with pytest.raises(ShapeError, match="got list"):
            MixingMatrix(m=2, weights=[[0.5, 0.5], [0.5, 0.5]], rho=0.0)

    def test_the_array_passed_in_is_kept_read_only(self):
        weights = build_ring(5).weights.copy()
        matrix = MixingMatrix(m=np.int64(5), weights=weights)
        assert matrix.weights is weights and not weights.flags.writeable
        assert type(matrix.m) is int
        assert matrix.rho == validate(weights).rho

    def test_a_view_of_writable_weights_is_rejected(self):
        # writing through the base after the check would gossip unchecked weights
        base = build_ring(4).weights.copy()
        with pytest.raises(InvalidTopology, match="from_weights, which copies"):
            MixingMatrix(m=4, weights=base[:, :])
        base.setflags(write=False)
        assert MixingMatrix(m=4, weights=base[:, :]).rho == build_ring(4).rho


class TestSpectralGap:
    def test_averaging_matrix_is_zero(self):
        for m in (2, 5, 11):
            assert validate(averaging_matrix(m)).rho <= 1e-12

    def test_ring4(self):
        assert abs(validate(build_ring(4).weights).rho - 1.0 / 3.0) <= 1e-12

    def test_two_block_disconnected_is_one(self):
        block = np.zeros((4, 4))
        block[:2, :2] = 0.5
        block[2:, 2:] = 0.5
        assert abs(validate(block).rho - 1.0) <= 1e-12

    def test_matches_cached_rho(self):
        ring = build_ring(9)
        assert abs(validate(ring.weights).rho - ring.rho) <= 1e-14


class TestMix:
    def test_consensus_is_fixed(self):
        ring = build_ring(5)
        z = np.tile(np.array([1.5, -2.0, 0.25]), (5, 1))
        assert np.allclose(mix(ring, z), z, atol=1e-14)

    def test_two_agent_average(self):
        mat = MixingMatrix.from_weights(np.full((2, 2), 0.5))
        out = mix(mat, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_contraction_over_random_states(self):
        ring = build_ring(6)
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = random_stack(rng, 6, 4)
            dev = z - z.mean(axis=0)
            out_dev = mix(ring, z) - z.mean(axis=0)
            assert np.linalg.norm(out_dev) <= ring.rho * np.linalg.norm(dev) * (1 + 1e-12) + 1e-12

    def test_mean_preserved(self):
        ring = build_ring(8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = random_stack(rng, 8, 3)
            drift = np.linalg.norm(mix(ring, z).mean(axis=0) - z.mean(axis=0))
            assert drift <= 1e-12 * np.linalg.norm(z)

    def test_repeated_gossip_contracts_geometrically(self):
        ring = build_ring(6)
        rng = np.random.default_rng(2)
        z = random_stack(rng, 6, 5)
        dev0 = np.linalg.norm(z - z.mean(axis=0))
        out = z
        for rounds in range(1, 8):
            # the unchecked round is the checked one, byte for byte
            assert ring.gossip(out).tobytes() == mix(ring, out).tobytes()
            out = mix(ring, out)
            dev = np.linalg.norm(out - out.mean(axis=0))
            assert dev <= ring.rho**rounds * dev0 * (1 + 1e-12) + 1e-12

    def test_shape_mismatch(self):
        ring = build_ring(4)
        with pytest.raises(ShapeError):
            mix(ring, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            mix(ring, np.zeros(4))


def test_weights_are_immutable():
    ring = build_ring(4)
    with pytest.raises(ValueError):
        ring.weights[0, 0] = 5.0
