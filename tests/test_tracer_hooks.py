"""The package side of the benchmark tracer's contract.

``perfbench/tracing.py`` traces a run from outside: it patches the
functions named in its ``LOOP_CALLS`` where `dgfm.algorithms` looks them
up, and it counts oracle calls by wrapping the objective's ``eval``. A
traced run fails if one of those names is gone, or if the optimizers form
an estimate without one ``eval`` per counted oracle call. These tests
catch both from the package's own suite. The stationarity proxy is
measurement and evaluates through ``eval_batch``, so the count holds with
it switched on too.
"""

import ast
import pathlib

import pytest

from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    algorithms,
    build_ring,
    dgfm_run,
    gfm_run,
    partition,
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


class EvalCounter:
    """Proxy objective that counts ``eval`` calls and forwards everything else."""

    def __init__(self, objective):
        self._objective = objective
        self.calls = 0

    def eval(self, x, xi):
        self.calls += 1
        return self._objective.eval(x, xi)

    def __getattr__(self, attr):
        return getattr(self._objective, attr)


M = 4
PLUS = dict(period=3, mega_batch=5, batch=2, gossip_rounds=2)


@pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus", "gfm", "gfm-plus"])
def test_each_counted_oracle_call_is_one_eval(algo, small_svm_objective):
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
