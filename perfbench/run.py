"""Equal-oracle-budget benchmark of the four optimizers, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload a9a-ring8 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --compare old.json new.json

One run generates its corpus from ``--seed``, sets up several times (the
median is ``setup_s``), then repeats the equal-budget protocol for
``--seconds`` and reports medians over the repetitions. Times are taken on
the calibrated clock of ``clock.py``; the result file keeps the wall-clock
samples and the calibration bursts next to them. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced repetitions for the same time and reports the per-layer metrics,
the layer microbenchmarks and the computed traffic. Every run's outputs are
checked; a run with any failed check counts as failed. The last line of
standard output is one JSON object; the full result, with the environment,
goes to ``--out`` (default ``perfbench/out/<workload>-trace<t>.json``).
``--workload all`` runs each workload in its own process, one after the
other, so that each peak RSS belongs to one workload.
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench.catalog import (  # noqa: E402
    ALGOS, COMPUTED, END_TO_END, PER_LAYER, PER_RUN, SETUP_LAYERS, WHY,
)

# At least this many set-ups, and more up to SETUP_MAX while under SETUP_S.
SETUP_MIN, SETUP_MAX, SETUP_S = 5, 25, 2.0
BLAS_THREADS = 1


def _import_package():
    """Put this checkout's ``src`` first on the path and import dgfm from it."""
    src = ROOT / "src"
    if not (src / "dgfm" / "__init__.py").is_file():
        raise SystemExit(f"no dgfm package under {src}")
    # One BLAS thread whatever the caller's environment says: all load comes
    # from this single process and thread.
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import dgfm

    if Path(dgfm.__file__).resolve().parent != (src / "dgfm").resolve():
        raise SystemExit(f"dgfm imported from {dgfm.__file__}, not from {src}")


def _openblas_threads():
    """Threads of numpy's bundled OpenBLAS; None when numpy uses another BLAS."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def environment():
    import platform

    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_workload(name, seed, seconds, trace):
    import resource

    import numpy as np

    from perfbench import micro, protocol, tracing
    from perfbench.clock import Clock

    wl = protocol.WORKLOADS[name]
    env = environment()
    if env["openblas_threads"] is not None and env["openblas_threads"] > env["nproc"]:
        raise SystemExit(f"{env['openblas_threads']} OpenBLAS threads > nproc {env['nproc']}")
    failures = []
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{name}-{os.getpid()}"
    corpus_path, csv_path = stem.with_suffix(".svm"), stem.with_suffix(".csv")
    try:
        # A child process makes the corpus, so the generator's memory is not
        # in this process's peak RSS.
        subprocess.run([sys.executable, "-m", "perfbench.corpus", wl.corpus, str(seed),
                        str(corpus_path)], cwd=ROOT, check=True)
        # A first set-up warms the caches and gives the shapes the clock needs.
        problem = protocol.setup(corpus_path, wl.m, seed)
        clock = Clock(problem.objective.dim, wl.m, problem.nnz_per_row, wl.clock_reference_s)

        setup_s, setup_layers = [], {layer: [] for layer in SETUP_LAYERS}
        began = time.perf_counter()
        while len(setup_s) < SETUP_MIN or (
                len(setup_s) < SETUP_MAX and time.perf_counter() - began < SETUP_S):
            problem = None  # free the previous set-up's data before the next
            gc.collect()
            tracer = tracing.Tracer() if trace else None
            t0 = time.perf_counter()
            problem = protocol.setup(corpus_path, wl.m, seed, tracer.wrap if trace else None)
            wall = time.perf_counter() - t0
            factor = clock.factor()
            setup_s.append(wall * factor)
            if trace:
                for span in tracer.spans:
                    setup_layers[span[0]].append((span[2] - span[1]) * 1e-9 * factor)
        start_loss = problem.objective.full_loss(np.zeros(problem.objective.dim))

        attempted = failed = 0
        reference = {}
        plain, traced = [], []

        def count(label, bad):
            nonlocal attempted, failed
            attempted += 1
            failed += bool(bad)
            failures.extend(f"{label}: {msg}" for msg in bad)

        def repetition(is_traced):
            gc.collect()
            rep = protocol.protocol(wl, problem, seed, csv_path, clock, traced=is_traced)
            for run in rep.runs.values():
                count(run.algo, protocol.check_run(wl, run, start_loss, reference.get(run.algo)))
                reference.setdefault(run.algo, run.record.losses())
            if wl.cli_recording:
                count("write_records", protocol.check_csv(rep, csv_path))
            for run in rep.runs.values():
                run.record = run.state = None  # keep no trajectories across repetitions
            return rep

        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            plain.append(repetition(False))
            if trace:
                traced.append(repetition(True))
                if len(traced) > 1:  # only the last traced repetition's spans are written
                    for run in traced[-2].runs.values():
                        run.spans = []
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break

        def rates(algo, calibrated=True):
            return [r.runs[algo].calls / (r.runs[algo].seconds
                                          * (r.runs[algo].factor if calibrated else 1.0))
                    for r in plain]

        if not trace:
            values = {f"calls_per_s.{a}": median(rates(a)) for a in ALGOS}
            values["protocol_s"] = median([r.protocol_s for r in plain])
            values["setup_s"] = median(setup_s)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spec = END_TO_END
        else:
            values = {}
            for algo in ALGOS:
                for key in PER_RUN:
                    full = f"{key}.{algo}"
                    if full not in PER_LAYER:
                        continue
                    if PER_LAYER[full][0] in ("count", "B"):  # exact, the same in every run
                        values[full] = traced[-1].runs[algo].layers[key]
                    else:
                        scale = key.endswith("_s")  # times run on the calibrated clock
                        values[full] = median([
                            r.runs[algo].layers[key] * (r.runs[algo].factor if scale else 1.0)
                            for r in traced])
            # Untraced repetitions write the same CSV, without tracing in protocol_s.
            values["metrics.write_records.share"] = median([r.write_s / r.protocol_s
                                                             for r in plain])
            values["metrics.write_records.bytes"] = traced[-1].write_bytes
            for layer, times in setup_layers.items():
                values[f"{layer}.busy_s"] = median(times)
            clock.factor()  # opens the microbenchmarks' section
            micro_us = micro.layer_microbenchmarks(problem.objective, problem.partition,
                                                   problem.ring, seed)
            factor = clock.factor()
            values.update({k: v * factor for k, v in micro_us.items()})
            values.update(micro.traffic(problem.nnz_per_row, problem.objective.dim, wl.m))
            values["trace.overhead_s"] = (median([r.protocol_s for r in traced])
                                          - median([r.protocol_s for r in plain]))
            spec = PER_LAYER
            tracing.write_spans(OUT / f"{name}.spans.csv",
                                [(a, r.spans) for a, r in traced[-1].runs.items()])
        if set(values) != set(spec):
            raise RuntimeError(f"metric names drifted: {sorted(set(values) ^ set(spec))}")
    finally:
        for path in (corpus_path, csv_path):
            path.unlink(missing_ok=True)

    result = {
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": len(plain),
        "clock": {"reference_s": clock.reference_s, "kernel_s": clock.kernel_s},
        "wall_samples": {
            **{f"calls_per_s.{a}": rates(a, calibrated=False) for a in ALGOS},
            "protocol_s": [r.wall_s for r in plain],
        },
        "calibrated_samples": {
            **{f"calls_per_s.{a}": rates(a) for a in ALGOS},
            "protocol_s": [r.protocol_s for r in plain],
            "setup_s": setup_s,
        },
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "metrics": {k: {"value": values[k], "unit": spec[k][0]} for k in spec},
        "computed": sorted(COMPUTED) if trace else [],
        "environment": env,
    }
    return result


def print_result(result):
    print(f"# {result['workload']}: seed {result['seed']}, {result['repetitions']} "
          f"repetition(s) in {result['seconds']} s, trace {result['trace']}")
    for name, m in result["metrics"].items():
        label = "  (computed)" if name in result["computed"] else ""
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}{label}")
    print(f"# runs attempted {result['attempted']}, failed {result['failed']}")
    for msg in result["failures"]:
        print(f"# FAILED {msg}")


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak RSS is per workload."""
    from perfbench import protocol

    results = {}
    for name in protocol.WORKLOADS:
        part = OUT / f"{name}-trace{trace}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(part)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        if done.returncode != 0:
            raise SystemExit(f"{name} exited with {done.returncode}")
        results[name] = json.loads(part.read_text())["workloads"][name]
    return results


def compare(old_path, new_path):
    """Print new/old ratios: end-to-end one row per workload, then per layer."""
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    common = [w for w in old if w in new]

    def ratio(w, name):
        a = old[w]["metrics"].get(name, {}).get("value")
        b = new[w]["metrics"].get(name, {}).get("value")
        if a is None or b is None:
            return "-"
        if a == 0:
            return "=" if b == 0 else "new"
        return f"{b / a:.3f}"

    names = [n for n in END_TO_END if any(n in old[w]["metrics"] for w in common)]
    if names:
        print("end to end, new/old:")
        print(f"{'workload':18s}" + "".join(f"{n:>{len(n) + 2}s}" for n in names))
        for w in common:
            print(f"{w:18s}" + "".join(f"{ratio(w, n):>{len(n) + 2}s}" for n in names))
    names = [n for n in PER_LAYER if any(n in old[w]["metrics"] for w in common)]
    if names:
        print("per layer, new/old (one column per workload):")
        print(f"{'metric':42s}" + "".join(f"{w:>18s}" for w in common))
        for n in names:
            print(f"{n:42s}" + "".join(f"{ratio(w, n):>18s}" for w in common))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print new/old ratios of two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    _import_package()
    from perfbench import protocol

    if args.workload != "all" and args.workload not in protocol.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(protocol.WORKLOADS)} or all")
    out = Path(args.out) if args.out else OUT / f"{args.workload}-trace{args.trace}.json"
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_result(result)
        results = {args.workload: result}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workloads": results}, indent=1) + "\n")
    if args.workload == "all":
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
