"""Golden trajectory fingerprints of the four optimizers.

Each case runs one optimizer at a fixed seed on the a9a-shaped conftest
corpus, with the schedules of acceptance criterion 09, and hashes its
recorded (iteration, zo_calls, comm_rounds, loss, consensus_err,
stationarity) series bit for bit. A change to the numerics of the
optimizers then changes a hash, so it can only land deliberately, with the
hash regenerated and the reason recorded.

The hashes pin the exact floating-point results of the numpy/BLAS build
they were generated with (numpy 2.4.6 on OpenBLAS 0.3.31, x86-64). Another
numpy version, BLAS library or CPU may round differently and change a hash
with no change to the package; regenerate them there with
``python tests/test_golden.py``.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    TopologySchedule,
    build_complete,
    build_metropolis_hastings,
    build_ring,
    dgfm_plus_run,
    dgfm_run,
    gfm_plus_run,
    gfm_run,
    partition,
)

M = 8
DELTA = 1e-3
SEED = 5
# Criterion 09 schedules and step sizes.
DGFM_PLUS = dict(period=10, mega_batch=10, batch=1, gossip_rounds=5)
GFM_BATCH = 16
GFM_PLUS = dict(period=50, mega_batch=100, batch=2)
RECORDING = dict(record_every=5, stationarity_every=3, stationarity_samples=8,
                 keep_iterates=False)


def chorded_ring(m):
    """Metropolis-Hastings weights on a ring with chords i -- i + m/2."""
    adj = np.eye(m, dtype=bool)
    for i in range(m):
        for j in ((i + 1) % m, (i + m // 2) % m):
            adj[i, j] = adj[j, i] = True
    return build_metropolis_hastings(adj)


def run_case(name, obj):
    ring = build_ring(M)
    part = partition(obj.n_samples, M, SEED)
    if name == "dgfm":
        cfg = DgfmConfig(eta=0.01, delta=DELTA, iters=60, seed=SEED)
        return dgfm_run(ring, part, obj, cfg, **RECORDING)[1]
    if name == "dgfm-plus":
        cfg = DgfmPlusConfig(eta=0.01, delta=DELTA, iters=40, seed=SEED, **DGFM_PLUS)
        return dgfm_plus_run(ring, part, obj, cfg, **RECORDING)[1]
    if name == "dgfm-plus-schedule":
        # overrides on a plain iteration (k), on a restart iteration (k), and
        # on single gossip repetitions inside restarts ((k, tau))
        complete, chords = build_complete(M), chorded_ring(M)
        sched = TopologySchedule(base=ring, schedule={
            3: complete, 10: chords, (10, 2): complete, (20, 4): chords, 27: chords,
        })
        cfg = DgfmPlusConfig(eta=0.01, delta=DELTA, iters=30, seed=SEED, **DGFM_PLUS)
        return dgfm_plus_run(sched, part, obj, cfg, **RECORDING)[1]
    if name == "gfm":
        cfg = DgfmConfig(eta=0.01, delta=DELTA, iters=60, seed=SEED, batch=GFM_BATCH)
        return gfm_run(obj, cfg, **RECORDING)
    cfg = DgfmPlusConfig(eta=0.005, delta=DELTA, iters=120, seed=SEED, **GFM_PLUS)
    return gfm_plus_run(obj, cfg, **RECORDING)


def fingerprint(record):
    """SHA-256 over the raw bytes of every recorded entry but wall time."""
    h = hashlib.sha256()
    for e in record.entries:
        sampled = e.stationarity is not None
        h.update(struct.pack(
            "<qqqdd?d", e.iteration, e.zo_calls, e.comm_rounds, e.loss, e.consensus_err,
            sampled, e.stationarity if sampled else math.nan,
        ))
    return h.hexdigest()


GOLDEN = {
    "dgfm": "faca26d40f2746360b3592aa6c42c0a5b321e3ebde222da239bdf8e139d42693",
    "dgfm-plus": "638b37c53cc3521848301860af861f1f123121576a9aae952ef7a472658e657d",
    "dgfm-plus-schedule": "5a52aad4b12175bfdc5dc902458cf8779281bdceaa1011808556897ae79c9afe",
    "gfm": "8a081517a7dbffc6576941edbcc4202c172b7759fb6e3c29e01787cd0949cf5b",
    "gfm-plus": "89a2b8506d4dbfc2bed2a1d9e4921fe1733e79a9d3a3344adc9b0f97587e8c60",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name, svm_objective):
    record = run_case(name, svm_objective)
    assert any(e.stationarity is not None for e in record.entries)
    assert fingerprint(record) == GOLDEN[name]


if __name__ == "__main__":
    import dgfm
    from conftest import synthetic_svm_text

    obj = dgfm.CappedL1Svm.from_dataset(
        dgfm.normalize_rows(dgfm.parse_libsvm(synthetic_svm_text())), name="a9a-like[n=2000]"
    )
    for case in sorted(GOLDEN):
        print(f'    "{case}": "{fingerprint(run_case(case, obj))}",')
