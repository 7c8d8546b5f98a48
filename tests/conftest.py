import numpy as np
import pytest

import dgfm


def synthetic_svm_text(n=2000, d=123, nnz=14, seed=123, flip=0.05):
    """Deterministic LIBSVM text shaped like the a9a adult-income data:
    binary features, ~14 active per row, labels from a sparse hyperplane
    with a small flip rate."""
    rng = np.random.default_rng(seed)
    wstar = rng.standard_normal(d)
    lines = []
    for _ in range(n):
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        label = 1 if wstar[idx].sum() > 0 else -1
        if rng.uniform() < flip:
            label = -label
        pairs = " ".join(f"{j + 1}:1" for j in idx)
        lines.append(f"{label} {pairs}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def svm_dataset():
    return dgfm.normalize_rows(dgfm.parse_libsvm(synthetic_svm_text()))


@pytest.fixture(scope="session")
def svm_objective(svm_dataset):
    return dgfm.CappedL1Svm.from_dataset(svm_dataset, name="a9a-like[n=2000]")


@pytest.fixture(scope="session")
def small_svm_objective():
    ds = dgfm.normalize_rows(dgfm.parse_libsvm(synthetic_svm_text(n=50, d=12, nnz=4, seed=7)))
    return dgfm.CappedL1Svm.from_dataset(ds, name="small-svm")


class EvalCounter:
    """Proxy objective that counts ``eval`` calls.

    It forwards only the attributes in ``FORWARDED``: the objective's
    shape and name, and ``full_loss`` and ``eval_batch``, which only
    measurement calls. Any other attribute raises AttributeError, so a new
    oracle entry point fails the counting tests instead of slipping past
    the count.
    """

    FORWARDED = frozenset({"n_samples", "dim", "name", "lipschitz_hint", "full_loss",
                           "eval_batch"})

    def __init__(self, objective):
        self._objective = objective
        self.calls = 0

    def eval(self, x, xi):
        self.calls += 1
        return self._objective.eval(x, xi)

    def __getattr__(self, attr):
        if attr not in self.FORWARDED:
            raise AttributeError(f"EvalCounter does not forward {attr!r}")
        return getattr(self._objective, attr)


def entries_match(a, b):
    """Entry equality modulo wall-clock time."""
    return (
        a.iteration == b.iteration
        and a.zo_calls == b.zo_calls
        and a.comm_rounds == b.comm_rounds
        and a.loss == b.loss
        and a.consensus_err == b.consensus_err
        and a.stationarity == b.stationarity
    )


def records_match(r1, r2):
    if len(r1.entries) != len(r2.entries) or len(r1.snapshots) != len(r2.snapshots):
        return False
    if not all(entries_match(a, b) for a, b in zip(r1.entries, r2.entries)):
        return False
    return all(
        ka == kb and np.array_equal(xa, xb)
        for (ka, xa), (kb, xb) in zip(r1.snapshots, r2.snapshots)
    )


def step_trajectory(matrix, part, obj, cfg, x0):
    """state.x after each of the cfg.iters calls of the public `step` from x0, as copies."""
    state = dgfm.NetworkState.initial(part.m, x0)
    trajectory = []
    for _ in range(cfg.iters):
        dgfm.step(state, matrix, part, obj, cfg)
        trajectory.append(state.x.copy())
    return trajectory


def centralized_trajectory(obj, cfg, x0):
    """`step_trajectory` of the centralized run: gfm_run's one agent and partition."""
    return step_trajectory(dgfm.build_complete(1), dgfm.partition(obj.n_samples, 1, cfg.seed),
                           obj, cfg, x0)


def output_candidate(record, trajectory, record_every=1):
    """Row ``pick % m`` of the trajectory at the record's kept iteration k*, as a
    (1, d) array, after checking that k* = (pick // m + 1) * record_every."""
    [(k, _)] = record.snapshots
    m = trajectory[0].shape[0]
    pick = dgfm.algorithms._draw_output(record.metadata["seed"],
                                        m * (len(trajectory) // record_every))
    assert k == (pick // m + 1) * record_every
    return trajectory[k - 1][pick % m:pick % m + 1]
