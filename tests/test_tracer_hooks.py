"""The package side of the benchmark tracer's contract.

``perfbench/tracing.py`` traces a run from outside: it patches the
functions named in its ``LOOP_CALLS`` where `dgfm.algorithms` looks them
up, and it counts oracle calls by wrapping the objective's ``eval``. A
traced run fails if one of those names is gone, or if the optimizers form
an estimate without one ``eval`` per counted oracle call, or without one
gossip product per counted communication round. These tests catch all
three from the package's own suite. The stationarity proxy is
measurement and evaluates through ``eval_batch``, so the count holds with
it switched on too. The oracle count is also taken on draws that come in
windows of a few iterations, in several blocks of agents and in
sub-blocks of one agent's pairs, with ``dgfm.smoothing.BLOCK_ENTRIES`` set
low: a window or block that skips or repeats a probe then fails here, not
only in a traced benchmark run.
"""

import ast
import pathlib

import numpy as np
import pytest
from conftest import EvalCounter

from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    DrawLayout,
    MixingMatrix,
    algorithms,
    build_complete,
    build_ring,
    dgfm_run,
    gfm_run,
    partition,
    smoothing,
    substream,
)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def loop_call_names():
    """The names the tracer patches, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LOOP_CALLS" for t in node.targets):
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError(f"no LOOP_CALLS assignment in {TRACING}")


def test_every_name_the_tracer_patches_is_in_algorithms():
    names = loop_call_names()
    assert "substream" in names and "sample_batch" in names
    missing = [name for name in names if not callable(getattr(algorithms, name, None))]
    assert not missing, f"perfbench's tracer patches {missing}, gone from dgfm.algorithms"


def test_every_unused_import_in_algorithms_is_one_the_tracer_patches():
    # the converse: a name the tracer stops patching leaves no dead import behind
    source = pathlib.Path(algorithms.__file__).read_text()
    lines = source.splitlines()
    kept = [alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names if "F401" in lines[alias.lineno - 1]]
    stale = sorted(set(kept) - set(loop_call_names()))
    assert not stale, f"dgfm.algorithms keeps {stale} for a tracer that no longer patches them"


M = 4
PLUS = dict(period=3, mega_batch=5, batch=2, gossip_rounds=2)
# BLOCK_ENTRIES values at which the draws below split, at d = 12: 300 puts
# the draws of three dgfm iterations (m b d = 96) in one window, of 3, 3 and
# 2 iterations, and those of two paired dgfm-plus iterations between
# restarts; 48 puts two agents' pairs (b d = 24) in a block and cuts a
# mega-batch of 5 pairs into sub-blocks of 4 and 1; 12 gives every pair a
# sub-block of its own.
SPLITS = (300, 48, 12)


def blocks(m, b, d):
    """Number of blocks `DrawLayout.draw` yields for m agents of b pairs in R^d."""
    return sum(1 for _ in DrawLayout([np.arange(1)] * m, b, d).draw(substream(0, 0)))


@pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus", "gfm", "gfm-plus"])
def test_each_counted_oracle_call_is_one_eval(algo, small_svm_objective, monkeypatch):
    obj = EvalCounter(small_svm_objective)
    plus = algo.endswith("-plus")
    cfg = (DgfmPlusConfig(eta=0.01, delta=1e-3, iters=8, seed=3, **PLUS) if plus
           else DgfmConfig(eta=0.01, delta=1e-3, iters=8, seed=3, batch=2))
    # no stationarity proxy: its evals are measurement, not counted oracle calls
    opts = dict(stationarity_every=0, keep_iterates=False)
    if algo.startswith("dgfm"):
        part = partition(obj.n_samples, M, seed=3)
        calls = dgfm_run(build_ring(M), part, obj, cfg, **opts)[0].oracle_calls
    else:
        calls = gfm_run(obj, cfg, **opts).entries[-1].zo_calls
    assert calls > 0
    assert obj.calls == calls
    # the same runs on draws split into blocks of agents and sub-blocks of pairs
    m = M if algo.startswith("dgfm") else 1
    sizes = (cfg.mega_batch, cfg.batch) if plus else (cfg.batch,)
    for entries in SPLITS:
        monkeypatch.setattr(smoothing, "BLOCK_ENTRIES", entries)
        obj = EvalCounter(small_svm_objective)
        if m > 1:
            split = dgfm_run(build_ring(M), part, obj, cfg, **opts)[0].oracle_calls
        else:
            split = gfm_run(obj, cfg, **opts).entries[-1].zo_calls
        assert split == calls
        assert obj.calls == calls
    # the last split drew every pair in a sub-block of its own
    assert all(blocks(m, b, obj.dim) == m * b for b in sizes)


class ProductCounter(np.ndarray):
    """Gossip weights that count their ``@`` products, like perfbench's ``_GossipWeights``."""

    def __matmul__(self, other):
        self.products[0] += 1
        return np.asarray(self) @ other


def counting_matrix(matrix):
    weights = matrix.weights.view(ProductCounter)
    weights.products = [0]
    return MixingMatrix(m=matrix.m, weights=weights, rho=matrix.rho)


def test_building_a_matrix_makes_no_gossip_product():
    # a direct build validates the weights without multiplying by them
    assert counting_matrix(build_ring(4)).weights.products == [0]


def test_a_gossip_round_is_one_product_and_none_for_one_agent():
    ring = counting_matrix(build_ring(4))
    ring.gossip(np.ones((4, 3)))
    assert ring.weights.products == [1]
    # W = [[1]]: one agent has no neighbours, so its round returns its input
    alone, z = counting_matrix(build_complete(1)), np.ones((1, 3))
    assert alone.gossip(z) is z
    assert alone.weights.products == [0]


@pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus", "gfm", "gfm-plus"])
def test_each_counted_comm_round_is_one_gossip_product(algo, small_svm_objective):
    obj = small_svm_objective
    cfg = (DgfmPlusConfig(eta=0.01, delta=1e-3, iters=8, seed=3, **PLUS) if algo.endswith("-plus")
           else DgfmConfig(eta=0.01, delta=1e-3, iters=8, seed=3, batch=2))
    # gfm and gfm-plus are the one-agent runs, on W = [[1]] (see gfm_run)
    m = M if algo.startswith("dgfm") else 1
    matrix = counting_matrix(build_ring(M) if m > 1 else build_complete(1))
    state = dgfm_run(matrix, partition(obj.n_samples, m, seed=3), obj, cfg,
                     stationarity_every=0, keep_iterates=False)[0]
    assert state.comm_rounds == matrix.weights.products[0]
    assert (state.comm_rounds > 0) == (m > 1)


@pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus", "gfm", "gfm-plus"])
def test_the_stationarity_proxy_makes_no_scalar_eval(algo, small_svm_objective):
    obj = EvalCounter(small_svm_objective)
    plus = algo.endswith("-plus")
    cfg = (DgfmPlusConfig(eta=0.01, delta=1e-3, iters=8, seed=3, **PLUS) if plus
           else DgfmConfig(eta=0.01, delta=1e-3, iters=8, seed=3, batch=2))
    opts = dict(stationarity_every=1, keep_iterates=False)
    if algo.startswith("dgfm"):
        part = partition(obj.n_samples, M, seed=3)
        record = dgfm_run(build_ring(M), part, obj, cfg, **opts)[1]
    else:
        record = gfm_run(obj, cfg, **opts)
    assert all(e.stationarity is not None for e in record.entries)
    assert obj.calls == record.entries[-1].zo_calls
