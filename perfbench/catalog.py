"""Names, units and directions of every metric the benchmark reports.

They are defined once, in ``BENCHMARK.json`` at the repository root; this
module reads them from there and adds the key lists the code iterates
over. End-to-end metrics come from untraced runs (``--trace 0``), per-layer
metrics from traced runs (``--trace 1``). Counts and busy times of one
algorithm run carry the suffix ``.<algo>``; ``BENCHMARK.json`` lists the
topology ones for the gossiping algorithms only.
"""

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

ALGOS = ("dgfm", "dgfm-plus", "gfm", "gfm-plus")

# name -> (unit, better)
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in _SPEC["workloads"]}

# Per-run layer metrics, reported as ``<key>.<algo>`` where PER_LAYER has it.
PER_RUN = ("rng.substream.calls", "rng.substream.busy_s", "smoothing.sample_batch.pairs",
           "smoothing.sample_batch.busy_s", "smoothing.estimate.self_s",
           "objectives.eval.calls", "objectives.eval.busy_s", "objectives.eval.counted_ratio",
           "topology.gossip.rounds", "topology.gossip.busy_s", "algorithms.self_s",
           "metrics.observe.calls", "metrics.observe.busy_s", "metrics.stationarity.share",
           "metrics.observe.share", "metrics.snapshot_bytes")
SETUP_LAYERS = ("data.load_libsvm", "data.normalize_rows", "data.partition",
                 "objectives.build", "topology.build")
# Traffic computed from the shapes, not measured.
COMPUTED = ("objectives.eval.bytes_per_call", "topology.gossip.bytes_per_round")
