import dataclasses
import json
import math

import numpy as np
import pytest

from dgfm import (
    AbsTest,
    QuadraticTest,
    RunEntry,
    RunRecord,
    build_ring,
    consensus_error,
    mix,
    read_csv_rows,
    sample_batch,
    stationarity_estimate,
    substream,
    two_point_estimate,
    write_records,
)
from dgfm.errors import InvalidParameter, ShapeError
from dgfm.smoothing import SmoothingParams


class TestConsensusError:
    def test_zero_on_agreement(self):
        x = np.tile(np.array([1.0, -2.0]), (5, 1))
        assert consensus_error(x) == 0.0

    def test_hand_computed_two_agents(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert consensus_error(x) == pytest.approx(2.0, abs=1e-15)

    def test_translation_invariant(self):
        rng = substream(0, 7)
        x = rng.standard_normal((6, 4))
        shifted = x + rng.standard_normal(4)
        assert consensus_error(shifted) == pytest.approx(consensus_error(x), rel=1e-12)

    def test_quadratic_scaling(self):
        rng = substream(1, 7)
        x = rng.standard_normal((6, 4))
        dev = x - x.mean(axis=0)
        for s in (0.5, 2.0, 7.0):
            assert consensus_error(x.mean(axis=0) + s * dev) == pytest.approx(
                s**2 * consensus_error(x), rel=1e-12
            )

    def test_takes_the_stack_only(self):
        with pytest.raises(ShapeError):
            consensus_error(np.ones(3))

    def test_contracts_under_mix(self):
        ring = build_ring(4)
        rng = substream(2, 7)
        for _ in range(50):
            z = rng.standard_normal((4, 3))
            before = consensus_error(z)
            after = consensus_error(mix(ring, z))
            assert after <= ring.rho**2 * before + 1e-12


class TestStationarity:
    def test_quadratic_at_origin(self):
        obj = QuadraticTest(dim=3)
        est = stationarity_estimate(obj, np.zeros(3), delta=0.05, n_samples=2000,
                                    rng=substream(3, 7))
        assert est.value <= 3 * est.stderr + 1e-12

    def test_quadratic_at_unit_point(self):
        obj = QuadraticTest(dim=3)
        x = np.array([1.0, 0.0, 0.0])
        est = stationarity_estimate(obj, x, delta=0.05, n_samples=4000,
                                    rng=substream(4, 7))
        assert abs(est.value - 2.0) <= 3 * est.stderr

    def test_abs_away_from_kink(self):
        obj = AbsTest(1)
        delta = 0.1
        est = stationarity_estimate(obj, np.array([2 * delta]), delta=delta,
                                    n_samples=4000, rng=substream(5, 7))
        # beyond the kink neighborhood the one-dimensional estimator is
        # deterministic, so stderr is 0 up to round-off
        assert abs(est.value - 1.0) <= 3 * est.stderr + 1e-12

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidParameter):
            stationarity_estimate(AbsTest(2), np.zeros(2), delta=0.1, n_samples=0,
                                  rng=substream(19, 1))

    @pytest.mark.parametrize("make", [AbsTest, QuadraticTest], ids=["abs", "quadratic"])
    @pytest.mark.parametrize("n_samples", [1, 2, 7, 32])
    def test_batched_proxy_is_the_per_pair_loop(self, make, n_samples):
        obj = make(4, n_samples=3)
        for k in range(20):
            x = substream(20, 7, k).standard_normal(4) * 10.0 ** (k % 4 - 2)
            got = stationarity_estimate(obj, x, 0.05, n_samples, substream(21, 7, k))
            want = per_pair_reference(obj, x, 0.05, n_samples, substream(21, 7, k))
            assert tuple(got) == want

    def test_batched_proxy_matches_the_per_pair_loop_on_svm(self, svm_objective):
        for k in range(50):
            x = 0.5 * substream(22, 7, k).standard_normal(svm_objective.dim)
            got = stationarity_estimate(svm_objective, x, 1e-3, 32, substream(23, 7, k))
            want = per_pair_reference(svm_objective, x, 1e-3, 32, substream(23, 7, k))
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def per_pair_reference(obj, x, delta, n_samples, rng):
    """The proxy as one `two_point_estimate` per pair, the same draw, accumulated in order."""
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
        return float(np.linalg.norm(mean)), math.inf
    var = np.maximum(acc_sq / n_samples - mean**2, 0.0) * n_samples / (n_samples - 1)
    return float(np.linalg.norm(mean)), math.sqrt(float(var.sum()) / n_samples)


def sample_record(algo="gfm", seed=5, n=3, with_stationarity=False):
    record = RunRecord(metadata={"algo": algo, "seed": seed, "config": {"eta": 0.1}})
    for k in range(1, n + 1):
        record.append(
            RunEntry(
                iteration=k,
                zo_calls=2 * k,
                comm_rounds=0,
                loss=1.0 / k,
                consensus_err=0.125 * k,
                stationarity=0.3 if (with_stationarity and k == n) else None,
                wall_ms=0.5 * k,
            )
        )
    return record


PINNED_CSV = """\
algo,seed,iter,zo_calls,comm_rounds,loss,consensus_err,stationarity,wall_ms
dgfm,3,1,9007199254740993,0,-0.0,5e-324,,0.30000000000000004
dgfm,3,2,4,1,1.7976931348623157e+308,0.0,0.30000000000000004,1.5
gfm,4,5,10,0,0.5,0.0,5e-324,-0.0
"""
PINNED_JSON = """\
[
 {
  "metadata": {
   "algo": "dgfm",
   "seed": 3
  },
  "entries": [
   {
    "iter": 1,
    "zo_calls": 9007199254740993,
    "comm_rounds": 0,
    "loss": -0.0,
    "consensus_err": 5e-324,
    "stationarity": null,
    "wall_ms": 0.30000000000000004
   },
   {
    "iter": 2,
    "zo_calls": 4,
    "comm_rounds": 1,
    "loss": 1.7976931348623157e+308,
    "consensus_err": 0.0,
    "stationarity": 0.30000000000000004,
    "wall_ms": 1.5
   }
  ],
  "restarts": []
 },
 {
  "metadata": {
   "algo": "gfm",
   "seed": 4
  },
  "entries": [
   {
    "iter": 5,
    "zo_calls": 10,
    "comm_rounds": 0,
    "loss": 0.5,
    "consensus_err": 0.0,
    "stationarity": 5e-324,
    "wall_ms": -0.0
   }
  ],
  "restarts": []
 }
]
"""


def test_entry_has_slots_and_is_frozen():
    # a long CLI run holds one entry per recorded iteration: no per-entry dict
    entry = sample_record(n=1).entries[0]
    assert not hasattr(entry, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.loss = 0.0


class TestWriteRecords:
    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records([], path)
        assert path.read_text() == (
            "algo,seed,iter,zo_calls,comm_rounds,loss,consensus_err,stationarity,wall_ms\n"
        )

    def test_csv_roundtrip_is_lossless(self, tmp_path):
        record = sample_record(with_stationarity=True)
        record.entries.append(
            RunEntry(iteration=4, zo_calls=8, comm_rounds=0,
                     loss=0.1 + 0.2, consensus_err=1.0 / 3.0,
                     stationarity=None, wall_ms=2.000000000000001)
        )
        path = tmp_path / "r.csv"
        write_records([record], path)
        rows = read_csv_rows(path)
        assert len(rows) == 4
        for row, entry in zip(rows, record.entries):
            assert row["loss"] == entry.loss
            assert row["consensus_err"] == entry.consensus_err
            assert row["stationarity"] == entry.stationarity
            assert row["wall_ms"] == entry.wall_ms
            assert row["algo"] == "gfm" and row["seed"] == 5

    def test_long_records_come_back_whole_and_in_order(self, tmp_path):
        # rows must not be lost or reordered, within a record or across records
        records = [RunRecord(metadata={"algo": "dgfm", "seed": s}) for s in (1, 2)]
        for n, record in zip((700, 257), records):
            for k in range(1, n + 1):
                record.append(RunEntry(iteration=k, zo_calls=2 * k, comm_rounds=k, loss=1.0 / k,
                                       consensus_err=0.5 / k,
                                       stationarity=None if k % 7 else 0.25, wall_ms=0.1 * k))
        path = tmp_path / "r.csv"
        write_records(records, path)
        assert [(r["seed"], r["iter"], r["loss"], r["stationarity"]) for r in read_csv_rows(path)] == [
            (record.metadata["seed"], e.iteration, e.loss, e.stationarity)
            for record in records for e in record.entries]

    def test_bytes_are_pinned(self, tmp_path):
        # literal output of the writer: a cell whose format drifts fails here, even
        # where its value would still round-trip
        records = [
            RunRecord(metadata={"algo": "dgfm", "seed": 3}, entries=[
                RunEntry(iteration=1, zo_calls=2**53 + 1, comm_rounds=0, loss=-0.0,
                         consensus_err=5e-324, stationarity=None, wall_ms=0.1 + 0.2),
                RunEntry(iteration=2, zo_calls=4, comm_rounds=1, loss=1.7976931348623157e308,
                         consensus_err=0.0, stationarity=0.1 + 0.2, wall_ms=1.5)]),
            RunRecord(metadata={"algo": "gfm", "seed": 4}, entries=[
                RunEntry(iteration=5, zo_calls=10, comm_rounds=0, loss=0.5,
                         consensus_err=0.0, stationarity=5e-324, wall_ms=-0.0)]),
        ]
        write_records(records, tmp_path / "r.csv")
        write_records(records, tmp_path / "r.json", format="json")
        assert (tmp_path / "r.csv").read_text() == PINNED_CSV
        assert (tmp_path / "r.json").read_text() == PINNED_JSON

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records([sample_record()], path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_json_has_metadata_block_per_record(self, tmp_path):
        records = [sample_record(seed=s) for s in range(5)]
        path = tmp_path / "r.json"
        write_records(records, path, format="json")
        blob = json.loads(path.read_text())
        assert len(blob) == 5
        assert [b["metadata"]["seed"] for b in blob] == list(range(5))
        assert blob[0]["entries"][0]["loss"] == 1.0

    def test_unwritable_path_has_context(self, tmp_path):
        with pytest.raises(OSError) as err:
            write_records([sample_record()], tmp_path / "no" / "such" / "dir.csv")
        assert "dir.csv" in str(err.value)
