"""Decentralized gradient-free optimization of nonsmooth nonconvex finite sums.

A library and simulator for zeroth-order optimization over a synchronous
multi-agent network: agents hold disjoint shards of a finite-sum objective,
see function values only, estimate descent directions by two-point
randomized smoothing, and coordinate through gossip averaging with doubly
stochastic mixing matrices. Includes the tracked method (``dgfm``), its
variance-reduced variant (``dgfm_plus``), their centralized baselines
(``gfm``, ``gfm_plus``), prescribed parameter settings, and a benchmark
CLI for capped-L1 SVM experiments on LIBSVM data.
"""

from .algorithms import (
    DgfmConfig,
    DgfmPlusConfig,
    NetworkState,
    dgfm_plus_run,
    dgfm_run,
    gfm_plus_run,
    gfm_run,
    select_output,
    step,
)
from .data import (
    Partition,
    SparseDataset,
    load_libsvm,
    normalize_rows,
    parse_libsvm,
    partition,
    subset,
    to_libsvm,
)
from .metrics import (
    RunEntry,
    RunRecord,
    consensus_error,
    read_csv_rows,
    stationarity_estimate,
    write_records,
)
from .objectives import (
    AbsTest,
    CappedL1Svm,
    LinearTest,
    QuadraticTest,
    StochasticObjective,
    estimate_lipschitz,
)
from .params import TheoremParams, theorem_params_dgfm, theorem_params_dgfm_plus
from .rng import substream
from .smoothing import (
    OracleCounter,
    SampleBatch,
    SmoothingParams,
    minibatch_estimate,
    sample_batch,
    sample_batches,
    sample_sphere,
    sigma_squared,
    spider_difference,
    surrogate_smoothness,
    two_point_estimate,
)
from .topology import (
    MixingMatrix,
    build_complete,
    build_metropolis_hastings,
    build_ring,
    load_adjacency,
    mix,
    validate,
)

__version__ = "0.1.0"
