"""The value rules of `dgfm.errors`, over every entry point that takes a
count, seed, rate or radius.

A count or seed must be an integer at or above its floor, so 2.5, nan, inf
and the value below the floor are refused; numpy integers are accepted and
kept as Python ints. A rate or radius must be positive and finite, so nan,
inf and 0 are refused. Each refusal is an `InvalidParameter` whose
``name`` is the field's, except where a value below a count's floor has
an error type of its own (`InvalidPartition`, `InvalidTopology`,
`EmptyBatch`).
"""

import math

import numpy as np
import pytest

from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    NetworkState,
    QuadraticTest,
    SmoothingParams,
    build_complete,
    build_ring,
    dgfm_run,
    estimate_lipschitz,
    gfm_run,
    parse_libsvm,
    partition,
    sample_batch,
    sigma_squared,
    stationarity_estimate,
    subset,
    substream,
    surrogate_smoothness,
    theorem_params_dgfm,
    theorem_params_dgfm_plus,
)
from dgfm.errors import (
    EmptyBatch,
    InvalidParameter,
    InvalidPartition,
    InvalidTopology,
    require_int,
    require_positive,
)


class Untouchable(QuadraticTest):
    """An objective no step may evaluate: a run checks its values first."""

    def eval(self, x, xi):
        raise AssertionError("a step ran before the run's values were checked")


OBJ = QuadraticTest(dim=3, n_samples=4)
DATASET = parse_libsvm("1 1:1\n-1 2:1\n1 1:2 2:1\n")
CONFIG = dict(eta=0.1, delta=0.01, iters=3, seed=0, batch=1)
PLUS = dict(CONFIG, period=2, mega_batch=2, gossip_rounds=1)
THEOREM = dict(rho=0.5, lipschitz=1.0, d=5, delta=0.01, epsilon=0.1, m=4, value_gap=1.0)


def keyword(entry, **fixed):
    """``entry`` called with ``fixed`` and the field set to the value."""
    return lambda field, value: entry(**{**fixed, field: value})


def runs_on(obj):
    """`gfm_run` and `dgfm_run` on ``obj``, 4 agents on a ring for the latter."""
    return {"gfm_run": lambda field, value: gfm_run(obj, DgfmConfig(**CONFIG), **{field: value}),
            "dgfm_run": lambda field, value: dgfm_run(build_ring(4), partition(4, 4, 0), obj,
                                                      DgfmConfig(**CONFIG), **{field: value})}


# (entry point, field, floor, a value it takes, what it stores of the
# field or None, the error below the floor)
COUNTS = [
    ("SmoothingParams", "dim", 1, 3, lambda p: p.dim, InvalidParameter),
    ("sigma_squared", "d", 1, 3, None, InvalidParameter),
    ("surrogate_smoothness", "d", 1, 3, None, InvalidParameter),
    ("QuadraticTest", "dim", 1, 3, lambda o: o.dim, InvalidParameter),
    ("QuadraticTest", "n_samples", 1, 4, lambda o: o.n_samples, InvalidParameter),
    ("estimate_lipschitz", "probes", 2, 3, None, InvalidParameter),
    ("stationarity_estimate", "n_samples", 1, 2, None, InvalidParameter),
    ("sample_batch", "b", 1, 2, lambda batch: batch.size, EmptyBatch),
    ("sample_batch", "d", 1, 3, None, InvalidParameter),
    ("NetworkState.initial", "m", 1, 2, lambda state: state.m, InvalidParameter),
    ("partition", "dataset", 0, 10, lambda p: p.n, InvalidParameter),
    ("partition", "m", 1, 2, lambda p: p.m, InvalidPartition),
    ("partition", "seed", 0, 1, None, InvalidParameter),
    ("subset", "subset size", 1, 2, lambda d: d.n, InvalidParameter),
    ("subset", "subset seed", 0, 1, None, InvalidParameter),
    ("theorem_params_dgfm", "d", 1, 5, None, InvalidParameter),
    ("theorem_params_dgfm", "m", 1, 4, None, InvalidParameter),
    ("theorem_params_dgfm_plus", "m", 1, 4, None, InvalidParameter),
    ("DgfmConfig", "iters", 0, 3, lambda c: c.iters, InvalidParameter),
    ("DgfmConfig", "seed", 0, 1, lambda c: c.seed, InvalidParameter),
    ("DgfmConfig", "batch", 1, 2, lambda c: c.batch, InvalidParameter),
    *(("DgfmPlusConfig", field, 1, 2, lambda c, f=field: getattr(c, f), InvalidParameter)
      for field in ("period", "batch", "mega_batch", "gossip_rounds")),
    ("gfm_run", "record_every", 1, 1, None, InvalidParameter),
    ("gfm_run", "stationarity_every", 0, 0, None, InvalidParameter),
    ("gfm_run", "stationarity_samples", 1, 2, None, InvalidParameter),
    ("dgfm_run", "record_every", 1, 1, None, InvalidParameter),
    ("build_ring", "m", 3, 4, lambda r: r.m, InvalidTopology),
    ("build_complete", "m", 1, 2, lambda r: r.m, InvalidTopology),
]

# (entry point, field)
RATES = [
    ("SmoothingParams", "delta"),
    ("sigma_squared", "lipschitz"),
    *(("surrogate_smoothness", field) for field in ("lipschitz", "delta", "c")),
    ("estimate_lipschitz", "radius"),
    ("stationarity_estimate", "delta"),
    *(("theorem_params_dgfm", field) for field in ("lipschitz", "delta", "epsilon", "value_gap", "c")),
    ("theorem_params_dgfm_plus", "delta"),
    *(("DgfmConfig", field) for field in ("eta", "delta")),
    ("DgfmPlusConfig", "eta"),
]

ENTRY = {
    "SmoothingParams": keyword(SmoothingParams, delta=0.1, dim=3),
    "sigma_squared": keyword(sigma_squared, d=3, lipschitz=1.0),
    "surrogate_smoothness": keyword(surrogate_smoothness, d=3, lipschitz=1.0, delta=0.1),
    "QuadraticTest": keyword(QuadraticTest, dim=3, n_samples=4),
    "estimate_lipschitz": lambda field, value: estimate_lipschitz(
        **{"obj": OBJ, "probes": 4, "radius": 1.0, "rng": substream(0, 0), field: value}),
    "stationarity_estimate": lambda field, value: stationarity_estimate(
        **{"obj": OBJ, "x": np.ones(3), "delta": 0.01, "n_samples": 4, "rng": substream(0, 1),
           field: value}),
    "sample_batch": keyword(sample_batch, indices=np.arange(4), b=2, d=3,
                            rng=substream(0, 2)),
    "NetworkState.initial": keyword(NetworkState.initial, m=2, x0=np.zeros(3)),
    "partition": keyword(partition, dataset=10, m=2, seed=0),
    "subset": lambda field, value: subset(
        DATASET, **({"n": value} if field == "subset size" else {"n": 2, "seed": value})),
    "theorem_params_dgfm": keyword(theorem_params_dgfm, **THEOREM),
    "theorem_params_dgfm_plus": keyword(theorem_params_dgfm_plus, **THEOREM),
    "DgfmConfig": keyword(DgfmConfig, **CONFIG),
    "DgfmPlusConfig": keyword(DgfmPlusConfig, **PLUS),
    **runs_on(Untouchable(dim=3, n_samples=4)),
    "build_ring": lambda field, value: build_ring(value),
    "build_complete": lambda field, value: build_complete(value),
}

BAD_COUNTS = [(entry, field, value, error if value < floor else InvalidParameter)
              for entry, field, floor, _, _, error in COUNTS
              for value in (2.5, math.nan, math.inf, floor - 1)]
BAD_RATES = [(entry, field, value) for entry, field in RATES
             for value in (math.nan, math.inf, 0.0)]


def case_id(entry, field, value, *_):
    return f"{entry}-{field}-{value}"


@pytest.mark.parametrize("entry, field, value, error", BAD_COUNTS,
                         ids=[case_id(*case) for case in BAD_COUNTS])
def test_a_count_or_seed_off_the_rule_is_refused(entry, field, value, error):
    with pytest.raises(error) as refused:
        ENTRY[entry](field, value)
    if error is InvalidParameter:
        assert refused.value.name == field
        assert str(refused.value) == f"{field} {refused.value.rule}"


@pytest.mark.parametrize("entry, field, value", BAD_RATES,
                         ids=[case_id(*case) for case in BAD_RATES])
def test_a_rate_or_radius_off_the_rule_is_refused(entry, field, value):
    with pytest.raises(InvalidParameter, match="must be positive and finite") as refused:
        ENTRY[entry](field, value)
    assert refused.value.name == field


@pytest.mark.parametrize("entry, field, ok, stored", [case[:2] + case[3:5] for case in COUNTS],
                         ids=[f"{case[0]}-{case[1]}" for case in COUNTS])
def test_a_numpy_integer_count_is_kept_as_an_int(entry, field, ok, stored):
    result = {**ENTRY, **runs_on(OBJ)}[entry](field, np.int64(ok))
    if stored is not None:
        assert type(stored(result)) is int and stored(result) == ok


def test_the_helpers_state_the_rules():
    assert require_int(0, a=np.int64(0), b=np.uint8(3)) == (0, 3)
    assert type(require_int(1, a=np.int32(7))) is int
    for value in (2.0, np.float64(2.0), "2"):
        with pytest.raises(InvalidParameter, match=r"^a must be an integer, got "):
            require_int(0, a=value)
    with pytest.raises(InvalidParameter, match=r"^b must be >= 1, got 0$"):
        require_int(1, a=1, b=0)
    require_positive(a=1e-300, b=np.float32(2.5))
    with pytest.raises(InvalidParameter, match=r"^b must be positive and finite, got -inf$"):
        require_positive(a=1.0, b=-math.inf)
    unnamed = InvalidParameter("x0 must be finite")
    assert unnamed.name is None and str(unnamed) == "x0 must be finite"
