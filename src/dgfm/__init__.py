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

from .algorithms import *  # noqa: F403
from .data import *  # noqa: F403
from .metrics import *  # noqa: F403
from .objectives import *  # noqa: F403
from .params import *  # noqa: F403
from .rng import *  # noqa: F403
from .smoothing import *  # noqa: F403
from .topology import *  # noqa: F403

__version__ = "0.1.0"
