"""Experiment runner.

Wires a dataset (LIBSVM file or builtin test function), a topology, and one
of the four optimizers into a multi-seed benchmark run, then writes the
trajectories as CSV or JSON. Each ``key = value`` line of an optional
``--config`` file is the flag ``--key=value``, parsed in front of the
command line, so flags override it. Exit codes: 0 success, 2 configuration
error (bad flag, config key or value), 3 data error,
4 numeric failure (non-finite loss aborts the run with the offending
iteration in the message).

    dgfm --algo dgfm --dataset a9a --subset 2000 --m 8 --topology ring \
         --eta 0.001 --delta 0.001 --iters 5000 --repeats 5 --out runs.csv

Builtin objectives (``builtin:quadratic``, ``builtin:abs``) need no data
file; ``--dim`` sets their dimension, and a data file sets its own.
``--params theorem:<epsilon>`` resolves the step size and batch
schedule from the prescribed settings of :mod:`dgfm.params` instead of
``--eta`` and the schedule flags; the resolved values are echoed in the
output metadata. `FLAG_RULES` states which runs have no use for which
flags; such a flag is a configuration error, never silently dropped.
"""

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from .algorithms import DgfmConfig, DgfmPlusConfig, dgfm_run, gfm_run
from .errors import InvalidParameter, InvalidTopology, NumericFailure, ParseError
from .metrics import write_records
from .objectives import AbsTest, CappedL1Svm, QuadraticTest, estimate_lipschitz
from .params import RHO_FLOOR, theorem_params_dgfm, theorem_params_dgfm_plus
from .rng import substream
from .topology import build_complete, build_metropolis_hastings, build_ring, load_adjacency

ALGOS = ("dgfm", "dgfm-plus", "gfm", "gfm-plus")
REQUIRED = ("algo", "dataset", "out")
# The flag rules, in the order `validate` applies them: (why, which runs, flags).
# A run that `which runs` selects has no use for the flags, so `validate`
# rejects each one given, as "<why>; drop --flag, ...".
FLAG_RULES = (
    ("a builtin objective has no data rows or SVM penalty",
     lambda cfg: cfg.dataset.startswith("builtin:"), ("subset", "subset-seed", "lam", "alpha")),
    ("a data file sets the dimension",
     lambda cfg: not cfg.dataset.startswith("builtin:"), ("dim",)),
    ("--subset-seed needs --subset", lambda cfg: cfg.subset is None, ("subset-seed",)),
    ("not used by {algo}", lambda cfg: cfg.algo.startswith("gfm"), ("m", "topology")),
    ("not used by {algo}", lambda cfg: not cfg.algo.endswith("-plus"), ("period", "mega-batch")),
    ("not used by {algo}", lambda cfg: cfg.algo != "dgfm-plus", ("gossip",)),
    ("--params theorem:<epsilon> prescribes the step size and schedule",
     lambda cfg: cfg.params.startswith("theorem:"),
     ("eta", "batch", "mega-batch", "period", "gossip")),
)
# Config fields that a flag of another name sets: a config error names the
# flag. The other run values' fields are spelled as their flags.
FIELD_FLAGS = {"mega_batch": "--mega-batch", "gossip_rounds": "--gossip"}
# argparse leaves these None, so that `validate` can tell them given; it fills
# them in at its end
DEFAULTS = {"dim": 10, "m": 1, "topology": "ring", "batch": 1, "gossip": 1, "alpha": 2.0}
OUT_DIR_ENV = "DGFM_OUT_DIR"

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    p = _Parser(
        prog="dgfm",
        description="Benchmark gradient-free optimizers on a simulated agent network.",
        allow_abbrev=False,
    )
    p.add_argument("--config", help="key=value file supplying defaults; flags override")
    # --algo, --dataset and --out are required; `validate` checks them, after
    # argparse has reported any unrecognized flag, such as a misspelled one.
    p.add_argument("--algo", choices=ALGOS)
    p.add_argument("--dataset",
                   help="LIBSVM path (.gz ok), builtin:quadratic, or builtin:abs")
    p.add_argument("--subset", type=int, help="restrict to the first/sampled N rows")
    p.add_argument("--subset-seed", type=int, help="sample the subset with this seed instead of taking the first rows")
    p.add_argument("--dim", type=int,
                   help="dimension for builtin objectives (default 10)")
    p.add_argument("--m", type=int, help="number of agents (decentralized algorithms)")
    p.add_argument("--topology", help="ring | complete | metropolis:<adjacency file>")
    p.add_argument("--eta", type=float, help="step size (manual mode)")
    p.add_argument("--delta", type=float, default=1e-3, help="smoothing radius (default 1e-3)")
    p.add_argument("--iters", type=int, default=1000, help="iteration count per run")
    p.add_argument("--batch", type=int,
                   help="pairs per agent and iteration (all algorithms)")
    p.add_argument("--mega-batch", type=int, help="restart batch size (*-plus)")
    p.add_argument("--period", type=int, help="restart period (*-plus)")
    p.add_argument("--gossip", type=int, help="gossip rounds at a restart (dgfm-plus)")
    p.add_argument("--seed", type=int, default=0, help="base seed; repeats use seed, seed+1, ...")
    p.add_argument("--repeats", type=int, default=1, help="number of seeds to run")
    p.add_argument("--record-every", type=int, default=1, help="record metrics every k iterations")
    p.add_argument("--out",
                   help=f"output path (relative paths resolve under ${OUT_DIR_ENV})")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--params", default="manual", help="manual | theorem:<epsilon>")
    p.add_argument("--lam", type=float, help="SVM penalty weight (default 1e-5/n)")
    p.add_argument("--alpha", type=float, help="SVM penalty cap (default 2)")
    return p


def _config_file_flags(path):
    """Each ``key = value`` line of a config file as the flag ``--key=value``."""
    flags = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key = key.strip().replace("_", "-")
                if key == "config":
                    raise ConfigError("unknown config key 'config'")
                flags.append(f"--{key}={value.strip()}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return flags


def parse_args(argv):
    """Parse argv, with the ``--config`` file's lines as flags in front of it, and validate."""
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    prefix = _config_file_flags(path) if path is not None else []
    args = build_parser().parse_args(prefix + list(argv))
    validate(args)
    return args


def validate(cfg):
    """The checks argparse cannot express: required flags after unknown ones, value
    ranges and flags that depend on each other. Fills `DEFAULTS` in after them."""
    missing = [f"--{name}" for name in REQUIRED if getattr(cfg, name) is None]
    if missing:
        raise ConfigError(f"the following arguments are required: {', '.join(missing)}")
    if cfg.repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {cfg.repeats}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.subset is not None and cfg.subset < 1:
        raise ConfigError(f"subset must be >= 1, got {cfg.subset}")
    if cfg.iters < 1:
        raise ConfigError(f"iters must be >= 1, got {cfg.iters}")
    if not 1 <= cfg.record_every <= cfg.iters:
        # a longer interval records nothing
        raise ConfigError(f"record-every must be in [1, iters] = [1, {cfg.iters}], "
                          f"got {cfg.record_every}")
    if not 0 < cfg.delta < np.inf:
        raise ConfigError(f"delta must be positive and finite, got {cfg.delta}")
    for why, applies, flags in FLAG_RULES:
        given = [f"--{flag}" for flag in flags
                 if getattr(cfg, flag.replace("-", "_")) is not None]
        if given and applies(cfg):
            raise ConfigError(f"{why.format(algo=cfg.algo)}; drop {', '.join(given)}")
    if cfg.params.startswith("theorem:"):
        if cfg.algo not in ("dgfm", "dgfm-plus"):
            raise ConfigError("theorem mode is defined for the decentralized algorithms only")
        try:
            eps = float(cfg.params.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad epsilon in {cfg.params!r}") from None
        if not 0 < eps < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {eps}")
    elif cfg.params != "manual":
        raise ConfigError(f"params must be 'manual' or 'theorem:<epsilon>', got {cfg.params!r}")
    else:
        if cfg.eta is None:
            raise ConfigError("--eta is required in manual parameter mode")
        if cfg.algo in ("dgfm-plus", "gfm-plus"):
            if cfg.period is None:
                raise ConfigError(f"--period is required for {cfg.algo}")
            if cfg.mega_batch is None:
                raise ConfigError(f"--mega-batch is required for {cfg.algo}")
    for name, value in DEFAULTS.items():
        if getattr(cfg, name) is None:
            setattr(cfg, name, value)
    if cfg.params == "manual":
        try:
            _run_config(cfg, cfg.seed)  # the library config states the run values' ranges
        except InvalidParameter as exc:  # "<field> must be ...": name the flag instead
            field, rest = str(exc).split(" ", 1)
            raise ConfigError(f"{FIELD_FLAGS.get(field, field)} {rest}") from None
    if cfg.algo in ("dgfm", "dgfm-plus") and cfg.m < 3 and cfg.topology == "ring":
        # ring needs >= 3 agents; fail here with a friendlier message
        raise ConfigError("ring topology needs --m >= 3")


def _run_config(cfg, seed):
    """The library config of the run with this seed."""
    if cfg.algo.endswith("-plus"):
        return DgfmPlusConfig(eta=cfg.eta, delta=cfg.delta, iters=cfg.iters, seed=seed,
                              batch=cfg.batch, period=cfg.period, mega_batch=cfg.mega_batch,
                              gossip_rounds=cfg.gossip)
    return DgfmConfig(eta=cfg.eta, delta=cfg.delta, iters=cfg.iters, seed=seed, batch=cfg.batch)


def _load_objective(cfg):
    """Dataset/builtin -> (objective, dataset id string)."""
    if cfg.dataset.startswith("builtin:"):
        name = cfg.dataset.split(":", 1)[1]
        if name == "quadratic":
            return QuadraticTest(dim=cfg.dim, n_samples=cfg.m), cfg.dataset
        if name == "abs":
            return AbsTest(dim=cfg.dim, n_samples=cfg.m), cfg.dataset
        raise ConfigError(f"unknown builtin objective {name!r}")
    if not os.path.exists(cfg.dataset):
        raise DataError(f"dataset not found: {cfg.dataset}")
    try:
        dataset = data_mod.load_libsvm(cfg.dataset)
    except ParseError as exc:
        raise DataError(f"{cfg.dataset}: {exc}") from exc
    if dataset.d == 0:
        raise DataError(f"{cfg.dataset}: no sample has a feature, so there is nothing to fit")
    dataset = data_mod.normalize_rows(dataset)
    dataset_id = os.path.basename(cfg.dataset)
    if cfg.subset is not None:
        dataset = data_mod.subset(dataset, cfg.subset, seed=cfg.subset_seed)
        dataset_id += f"[n={dataset.n}]"
    objective = CappedL1Svm.from_dataset(dataset, lam=cfg.lam, alpha=cfg.alpha, name=dataset_id)
    return objective, dataset_id


def _build_topology(cfg):
    if cfg.topology == "ring":
        return build_ring(cfg.m), "ring"
    if cfg.topology == "complete":
        return build_complete(cfg.m), "complete"
    if cfg.topology.startswith("metropolis:"):
        path = cfg.topology.split(":", 1)[1]
        if not os.path.exists(path):
            raise DataError(f"adjacency file not found: {path}")
        matrix = build_metropolis_hastings(load_adjacency(path))
        if matrix.m != cfg.m:
            raise ConfigError(f"adjacency file {path} has {matrix.m} agents, --m is {cfg.m}")
        return matrix, f"metropolis:{os.path.basename(path)}"
    raise ConfigError(f"unknown topology {cfg.topology!r}")


def _lipschitz(objective, seed):
    if objective.lipschitz_hint is not None:
        return objective.lipschitz_hint
    # Probe-based lower estimate; good enough to scale the prescriptions.
    return max(estimate_lipschitz(objective, probes=200, radius=1.0, rng=substream(seed, 9)), 1e-6)


def _resolve_theorem(cfg, objective, rho):
    """Fill eta/batch schedule from the prescribed settings at the target epsilon."""
    epsilon = float(cfg.params.split(":", 1)[1])
    lipschitz = _lipschitz(objective, cfg.seed)
    # Initial gap of the smoothed objective, assuming the infimum is >= 0
    # (true for every objective this runner can build).
    value_gap = objective.full_loss(np.zeros(objective.dim)) + cfg.delta * lipschitz
    if cfg.algo == "dgfm":
        params = theorem_params_dgfm(rho, lipschitz, objective.dim, cfg.delta, epsilon, cfg.m, value_gap)
    else:
        params = theorem_params_dgfm_plus(rho, lipschitz, objective.dim, cfg.delta, epsilon, cfg.m, value_gap)
        cfg.batch = params.batch
        cfg.mega_batch = params.mega_batch
        cfg.period = params.period
        cfg.gossip = params.gossip_rounds
    cfg.eta = params.eta
    return params


def run_experiment(cfg):
    """Execute one configured experiment: repeats runs, one output file."""
    objective, dataset_id = _load_objective(cfg)
    theorem_echo = None
    network = cfg.algo.startswith("dgfm")
    if network:
        if objective.n_samples < cfg.m:
            raise ConfigError(
                f"dataset has {objective.n_samples} samples, cannot shard across {cfg.m} agents"
            )
        matrix, topology_id = _build_topology(cfg)
        if cfg.params.startswith("theorem:"):
            # a complete graph mixes in one round (rho = 0), outside the analysis' (0, 1)
            theorem_echo = _resolve_theorem(cfg, objective, max(matrix.rho, RHO_FLOOR)).echo()

    # Builtin test functions are minimized at the origin, so start them at
    # ones; dataset runs start at zero per the benchmark protocol.
    x0 = np.ones(objective.dim) if cfg.dataset.startswith("builtin:") else None

    records = []
    for r in range(cfg.repeats):
        seed = cfg.seed + r
        extra = {"dataset": dataset_id, "repeat": r}
        if network:
            extra["topology"] = topology_id
        if theorem_echo:
            extra["theorem_params"] = theorem_echo
        run_cfg = _run_config(cfg, seed)
        # the runs never select an output iterate, so they keep no snapshots
        opts = dict(x0=x0, record_every=cfg.record_every, metadata=extra, keep_iterates=False)
        if network:
            part = data_mod.partition(objective.n_samples, cfg.m, seed)
            records.append(dgfm_run(matrix, part, objective, run_cfg, **opts)[1])
        else:
            records.append(gfm_run(objective, run_cfg, **opts))

    out = cfg.out
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(out):
        out = os.path.join(out_dir, out)
    write_records(records, out, format=cfg.format)
    final_losses = [record.final_loss for record in records]
    mean = float(np.mean(final_losses))
    std = float(np.std(final_losses))
    print(f"{cfg.algo}: final loss {mean:.6g} +- {std:.6g} over {cfg.repeats} seed(s) -> {out}")
    return 0


def main(argv=None):
    try:
        return run_experiment(parse_args(sys.argv[1:] if argv is None else argv))
    except (ConfigError, InvalidParameter, InvalidTopology) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ParseError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
