"""Experiment runner.

Wires a dataset (LIBSVM file or builtin test function), a topology, and one
of the four optimizers into a multi-seed benchmark run, then writes the
trajectories as CSV or JSON. Flags mirror the config fields in kebab-case;
an optional ``key=value`` config file supplies defaults that flags
override. Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric failure (non-finite loss aborts the run with the offending
iteration in the message).

    dgfm --algo dgfm --dataset a9a --subset 2000 --m 8 --topology ring \
         --eta 0.001 --delta 0.001 --iters 5000 --repeats 5 --out runs.csv

Builtin objectives (``builtin:quadratic``, ``builtin:abs``) need no data
file. ``--params theorem:<epsilon>`` resolves the step size and batch
schedule from the prescribed settings instead of ``--eta``; the resolved
values are echoed in the output metadata.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import data as data_mod
from .algorithms import (
    DgfmConfig,
    DgfmPlusConfig,
    dgfm_plus_run,
    dgfm_run,
    gfm_plus_run,
    gfm_run,
    theorem_params_dgfm,
    theorem_params_dgfm_plus,
)
from .errors import InvalidParameter, InvalidTopology, NumericFailure, ParseError
from .metrics import write_records
from .objectives import AbsTest, CappedL1Svm, QuadraticTest, estimate_lipschitz
from .rng import substream
from .topology import build_complete, build_metropolis_hastings, build_ring, load_adjacency

RUNS = {"dgfm": dgfm_run, "dgfm-plus": dgfm_plus_run, "gfm": gfm_run, "gfm-plus": gfm_plus_run}
ALGOS = tuple(RUNS)
OUT_DIR_ENV = "DGFM_OUT_DIR"

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    algo: str
    dataset: str
    out: str
    subset: int | None = None
    subset_seed: int | None = None
    dim: int = 10
    m: int = 1
    topology: str = "ring"
    eta: float | None = None
    delta: float = 1e-3
    iters: int = 1000
    batch: int = 1
    mega_batch: int | None = None
    period: int | None = None
    gossip: int = 1
    seed: int = 0
    repeats: int = 1
    record_every: int = 1
    format: str = "csv"
    params: str = "manual"
    lam: float | None = None
    alpha: float = 2.0

    def validate(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.record_every < 1:
            raise ConfigError(f"record-every must be >= 1, got {self.record_every}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        theorem = self.params.startswith("theorem:")
        if self.params != "manual" and not theorem:
            raise ConfigError(f"params must be 'manual' or 'theorem:<epsilon>', got {self.params!r}")
        if theorem:
            if self.eta is not None:
                raise ConfigError("--eta conflicts with --params theorem:<epsilon>")
            if self.algo not in ("dgfm", "dgfm-plus"):
                raise ConfigError("theorem mode is defined for the decentralized algorithms only")
            try:
                eps = float(self.params.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad epsilon in {self.params!r}") from None
            if not eps > 0:
                raise ConfigError(f"epsilon must be positive, got {eps}")
        else:
            if self.eta is None:
                raise ConfigError("--eta is required in manual parameter mode")
            if not self.eta > 0:
                raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.algo in ("dgfm-plus", "gfm-plus") and self.params == "manual":
            if self.period is None:
                raise ConfigError(f"--period is required for {self.algo}")
            if self.mega_batch is None:
                raise ConfigError(f"--mega-batch is required for {self.algo}")
        if self.algo in ("dgfm", "dgfm-plus") and self.m < 3 and self.topology == "ring":
            # ring needs >= 3 agents; fail here with a friendlier message
            raise ConfigError("ring topology needs --m >= 3")


def build_parser():
    p = argparse.ArgumentParser(
        prog="dgfm",
        description="Benchmark gradient-free optimizers on a simulated agent network.",
    )
    p.add_argument("--config", help="key=value file supplying defaults; flags override")
    p.add_argument("--algo", choices=ALGOS)
    p.add_argument("--dataset", help="LIBSVM path (.gz ok), builtin:quadratic, or builtin:abs")
    p.add_argument("--subset", type=int, help="restrict to the first/sampled N rows")
    p.add_argument("--subset-seed", type=int, help="sample the subset with this seed instead of taking the first rows")
    p.add_argument("--dim", type=int, help="dimension for builtin objectives (default 10)")
    p.add_argument("--m", type=int, help="number of agents (decentralized algorithms)")
    p.add_argument("--topology", help="ring | complete | metropolis:<adjacency file>")
    p.add_argument("--eta", type=float, help="step size (manual mode)")
    p.add_argument("--delta", type=float, help="smoothing radius (default 1e-3)")
    p.add_argument("--iters", type=int, help="iteration count per run")
    p.add_argument("--batch", type=int, help="pairs per agent and iteration (all algorithms)")
    p.add_argument("--mega-batch", type=int, help="restart batch size (*-plus)")
    p.add_argument("--period", type=int, help="restart period (*-plus)")
    p.add_argument("--gossip", type=int, help="gossip rounds at a restart (dgfm-plus)")
    p.add_argument("--seed", type=int, help="base seed; repeats use seed, seed+1, ...")
    p.add_argument("--repeats", type=int, help="number of seeds to run")
    p.add_argument("--record-every", type=int, help="record metrics every k iterations")
    p.add_argument("--out", help=f"output path (relative paths resolve under ${OUT_DIR_ENV})")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--params", help="manual | theorem:<epsilon>")
    p.add_argument("--lam", type=float, help="SVM penalty weight (default 1e-5/n)")
    p.add_argument("--alpha", type=float, help="SVM penalty cap (default 2)")
    return p


def parse_config_file(path):
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


_INT_FIELDS = frozenset(
    "subset subset_seed dim m iters batch mega_batch period gossip seed repeats record_every".split()
)
_FLOAT_FIELDS = frozenset("eta delta lam alpha".split())


def resolve_config(args):
    """Merge config-file defaults and flags into a validated ExperimentConfig."""
    field_names = {f.name for f in fields(ExperimentConfig)}
    merged = {}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in field_names:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = raw
    for key in field_names:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value

    def convert(key, raw):
        if not isinstance(raw, str):
            return raw
        if key in _INT_FIELDS:
            return int(raw)
        if key in _FLOAT_FIELDS:
            return float(raw)
        return raw

    for required in ("algo", "dataset", "out"):
        if required not in merged:
            raise ConfigError(f"--{required} is required")
    try:
        kwargs = {k: convert(k, v) for k, v in merged.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def _load_objective(cfg):
    """Dataset/builtin -> (objective, dataset id string)."""
    n_agents = cfg.m if cfg.algo.startswith("dgfm") else 1
    if cfg.dataset.startswith("builtin:"):
        name = cfg.dataset.split(":", 1)[1]
        n = max(n_agents, 1)
        if name == "quadratic":
            return QuadraticTest(dim=cfg.dim, n_samples=n), cfg.dataset
        if name == "abs":
            return AbsTest(dim=cfg.dim, n_samples=n), cfg.dataset
        raise ConfigError(f"unknown builtin objective {name!r}")
    if not os.path.exists(cfg.dataset):
        raise DataError(f"dataset not found: {cfg.dataset}")
    try:
        dataset = data_mod.load_libsvm(cfg.dataset)
    except ParseError as exc:
        raise DataError(f"{cfg.dataset}: {exc}") from exc
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
            raise ConfigError(f"adjacency has {matrix.m} agents, --m is {cfg.m}")
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
    if cfg.algo.startswith("dgfm"):
        if objective.n_samples < cfg.m:
            raise ConfigError(
                f"dataset has {objective.n_samples} samples, cannot shard across {cfg.m} agents"
            )
        matrix, topology_id = _build_topology(cfg)
        if cfg.params.startswith("theorem:"):
            theorem_echo = _resolve_theorem(cfg, objective, matrix.rho).echo()

    # Builtin test functions are minimized at the origin, so start them at
    # ones; dataset runs start at zero per the benchmark protocol.
    x0 = np.ones(objective.dim) if cfg.dataset.startswith("builtin:") else None

    plus = cfg.algo.endswith("-plus")
    plus_fields = dict(period=cfg.period, mega_batch=cfg.mega_batch,
                       gossip_rounds=cfg.gossip) if plus else {}
    records = []
    for r in range(cfg.repeats):
        seed = cfg.seed + r
        extra = {"dataset": dataset_id, "repeat": r}
        if theorem_echo:
            extra["theorem_params"] = theorem_echo
        run_cfg = (DgfmPlusConfig if plus else DgfmConfig)(
            eta=cfg.eta, delta=cfg.delta, iters=cfg.iters, seed=seed, batch=cfg.batch, **plus_fields
        )
        # the runs never select an output iterate, so they keep no snapshots
        opts = dict(x0=x0, record_every=cfg.record_every, metadata=extra, keep_iterates=False)
        if cfg.algo.startswith("dgfm"):
            part = data_mod.partition(objective.n_samples, cfg.m, seed)
            records.append(RUNS[cfg.algo](matrix, part, objective, run_cfg, **opts)[1])
        else:
            records.append(RUNS[cfg.algo](objective, run_cfg, **opts))

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
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run_experiment(cfg)
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
