"""Golden trajectories of the four optimizers, in two tiers.

Each case runs one optimizer at a fixed seed on the a9a-shaped conftest
corpus, with the schedules of acceptance criterion 09, except
``dgfm-abs``: dgfm on sum_j |x_j| with a radius of the iterates' scale,
so the estimates depend on delta (the SVM cases barely do).

* The hash tier hashes the recorded (iteration, zo_calls, comm_rounds,
  loss, consensus_err, stationarity) series bit for bit. Any change to the
  numerics of the optimizers changes a hash, so it can only land
  deliberately, with the hash regenerated and the reason recorded.
* The tolerance tier keeps the case's ``loss`` and ``consensus_err``
  series and checks them to ``LOSS_RTOL`` of each loss and
  ``CONSENSUS_RTOL`` of the largest consensus error of the series.
  Round-off is far inside these bounds, and another stream far outside
  them (see the comment above ``LOSS_RTOL``).

The hashes pin the exact floating-point results of the numpy/BLAS build
they were generated with (numpy 2.4.6 on OpenBLAS 0.3.31, x86-64). Another
numpy version, BLAS library or CPU may round differently and change a hash
with no change to the package. So may a change that only reorders
floating-point sums. Such a change regenerates the hashes only, and the
tolerance tier passes unedited. A change to the random streams, the
smoothing or the estimates regenerates both tiers, and says why.
``python tests/test_golden.py`` prints both. The bits may not depend on
the number of threads, the BLAS's or the package's own: one case is run
again in a child process on one BLAS thread, and must give the same hash.
"""

import hashlib
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgfm import (
    AbsTest,
    DgfmConfig,
    DgfmPlusConfig,
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
# dgfm-abs: from x0 = 0.1, steps of about eta d / 2 take the iterates to
# |x_j| < ABS_DELTA within 20 iterations, inside the kinks of |x_j|
ABS_DELTA = 0.05
ABS_DIM = 4


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
    if name == "dgfm-abs":
        cfg = DgfmConfig(eta=0.01, delta=ABS_DELTA, iters=60, seed=SEED)
        return dgfm_run(ring, partition(M, M, SEED), AbsTest(dim=ABS_DIM, n_samples=M), cfg,
                        x0=np.full(ABS_DIM, 0.1), **RECORDING)[1]
    if name == "dgfm":
        cfg = DgfmConfig(eta=0.01, delta=DELTA, iters=60, seed=SEED)
        return dgfm_run(ring, part, obj, cfg, **RECORDING)[1]
    if name == "dgfm-plus":
        cfg = DgfmPlusConfig(eta=0.01, delta=DELTA, iters=40, seed=SEED, **DGFM_PLUS)
        return dgfm_plus_run(ring, part, obj, cfg, **RECORDING)[1]
    if name == "dgfm-plus-metropolis":
        # a non-ring Metropolis-Hastings matrix, gossiped 5 times at each restart
        cfg = DgfmPlusConfig(eta=0.01, delta=DELTA, iters=30, seed=SEED, **DGFM_PLUS)
        return dgfm_plus_run(chorded_ring(M), part, obj, cfg, **RECORDING)[1]
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
    "dgfm-plus-metropolis": "875c31a13bac15dbd6490dd291bee7837af8651f9a1c941fea8984cdef1f780f",
    "gfm": "8a081517a7dbffc6576941edbcc4202c172b7759fb6e3c29e01787cd0949cf5b",
    "gfm-plus": "89a2b8506d4dbfc2bed2a1d9e4921fe1733e79a9d3a3344adc9b0f97587e8c60",
    "dgfm-abs": "685a4fec11a606c57a8a985e0c94874ddad42063e876c96cd18b43f6d1376335",
}


# The tolerance tier: relative to each loss, and to the series' largest
# consensus error (late entries are small differences of near-equal rows).
# Evaluating each block with two `eval_batch` calls, or summing its pairs
# in reverse order, moved them by at most 7.4e-14 and 4.3e-11; drawing from
# another stream lane moved them by 1.1e-3 and 0.27 or more. The smoothed
# SVM is close to linear along these runs, so doubling delta moved the
# losses by at most 6.3e-11; the consensus error of the Metropolis case
# moved by 1.5e-7, and that case fails it. The dgfm-abs case pins delta:
# doubling it moved that case's losses by up to 3.1 times their value,
# while computing d (f+ - f-) / (2 delta) in another order moved them by
# at most 1.7e-13.
LOSS_RTOL = 1e-9
CONSENSUS_RTOL = 1e-8

SERIES = {
    "dgfm": {
        "loss": [
            1.0004623777216821, 1.0003629679989627, 1.0010403812402544,
            0.9990093461278271, 0.9988371003220955, 0.9998899085354742,
            1.0001002916555275, 0.9998703854653588, 1.0004083971445192,
            0.9990773618478813, 0.9982846159750054, 0.995846522435132,
        ],
        "consensus_err": [
            0.016886149121816504, 0.01737127361211016, 0.013320037055115391,
            0.01861900262605108, 0.020859606403235083, 0.015593882921166704,
            0.01518458465149481, 0.01905253114499581, 0.008939271783620426,
            0.020417491431883723, 0.012734082519051615, 0.017127685622890305,
        ],
    },
    "dgfm-plus": {
        "loss": [
            1.0001843503780352, 1.000368700802259, 0.9990275515955566,
            0.9976864032061943, 0.9973976389174688, 0.9971088754829404,
            0.9974360328260528, 0.9977631910826883,
        ],
        "consensus_err": [
            0.0006582775556533435, 0.0002999254540470914, 0.0007621160619490892,
            0.00033472234808917177, 0.0009536673577082359, 0.00041650475665229653,
            0.0009265490584277617, 0.0004030411590926063,
        ],
    },
    "dgfm-plus-metropolis": {
        "loss": [
            1.0001843503906238, 1.0003687007803397, 0.9990275515609751,
            0.9976864031493292, 0.9973976388779857, 0.9971088755122446,
        ],
        "consensus_err": [
            3.668057447286903e-08, 1.4291061841493074e-10, 6.181981976307258e-08,
            2.4111952807259903e-10, 6.27668663244208e-08, 2.4470369021080893e-10,
        ],
    },
    "gfm": {
        "loss": [
            0.9995924161955432, 0.9985112384202929, 0.9978519305126508,
            0.9970936225706838, 0.9966451881143078, 0.9957201250406209,
            0.9957004561835784, 0.9963019031478155, 0.9956152525927062,
            0.9950595232435154, 0.9947644921282205, 0.9953238283503908,
        ],
        "consensus_err": [
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
        ],
    },
    "gfm-plus": {
        "loss": [
            1.000170035160238, 1.0003400703057057, 1.0005101054520205,
            1.000680140597165, 1.0008501757427202, 1.0010202108885524,
            1.0011902460342585, 1.0013602811800069, 1.0015303163258136,
            1.001700351471673, 1.0016629122998666, 1.001625473283071,
            1.0015880344146297, 1.0015505956326667, 1.0015131569704454,
            1.0014757184471892, 1.0014382800216477, 1.0014008416276856,
            1.0013634032832566, 1.0013259649712103, 1.0010522455162285,
            1.0007785260975017, 1.000504806696686, 1.00023108737333,
        ],
        "consensus_err": [
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
            0.0, 0.0, 0.0,
        ],
    },
    "dgfm-abs": {
        "loss": [
            0.18302870880711028, 0.052909648979303905, 0.006267842025805046,
            0.003415489279766634, 0.0012408423815672299, 0.0005925227655322663,
            0.00048299850098968555, 0.0003013827888581059, 0.000482913064120668,
            0.00021807962317714285, 7.947645474021854e-05, 6.604902076420985e-05,
        ],
        "consensus_err": [
            0.0028866441643118556, 0.00021275394949139684, 9.233621126053437e-05,
            6.842971429330416e-05, 3.087131799313105e-05, 9.879595859049128e-06,
            4.822919690714478e-06, 2.473213494955012e-06, 1.4140322556112774e-06,
            6.284493258357747e-07, 3.9973695284926685e-07, 1.6540132619209217e-07,
        ],
    },
}


def series(record):
    return {column: [getattr(e, column) for e in record.entries]
            for column in ("loss", "consensus_err")}


@pytest.fixture(scope="module")
def records(svm_objective):
    """Each case's record, run once for both tiers."""
    cache = {}

    def record_of(name):
        if name not in cache:
            cache[name] = run_case(name, svm_objective)
        return cache[name]

    return record_of


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name, records):
    record = records(name)
    assert any(e.stationarity is not None for e in record.entries)
    assert fingerprint(record) == GOLDEN[name]


def test_golden_hash_holds_on_one_blas_thread(records):
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    code = ("import test_golden as g; "
            "print(g.fingerprint(g.run_case('dgfm-plus-metropolis', g.a9a_like_objective())))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    in_process = fingerprint(records("dgfm-plus-metropolis"))
    assert done.stdout.split() == [in_process] == [GOLDEN["dgfm-plus-metropolis"]]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_series(name, records):
    got, want = series(records(name)), SERIES[name]
    assert len(got["loss"]) == len(want["loss"])
    np.testing.assert_allclose(got["loss"], want["loss"], rtol=LOSS_RTOL, atol=0)
    scale = max(want["consensus_err"])
    np.testing.assert_allclose(got["consensus_err"], want["consensus_err"], rtol=0,
                               atol=CONSENSUS_RTOL * scale)


def a9a_like_objective():
    """The conftest corpus's SVM, as the ``svm_objective`` fixture builds it."""
    import dgfm
    from conftest import synthetic_svm_text

    return dgfm.CappedL1Svm.from_dataset(
        dgfm.normalize_rows(dgfm.parse_libsvm(synthetic_svm_text())), name="a9a-like[n=2000]"
    )


if __name__ == "__main__":
    obj = a9a_like_objective()
    runs = {case: run_case(case, obj) for case in sorted(GOLDEN)}
    print("GOLDEN = {")
    for case, record in runs.items():
        print(f'    "{case}": "{fingerprint(record)}",')
    print("}\n\nSERIES = {")
    for case, record in runs.items():
        print(f'    "{case}": {{')
        for column, values in series(record).items():
            print(f'        "{column}": [')
            for i in range(0, len(values), 3):
                print("            " + " ".join(f"{v!r}," for v in values[i:i + 3]))
            print("        ],")
        print("    },")
    print("}")
