"""The four optimizers on a toy network, and the structure that makes the
decentralized ones tick.

All four run the same iteration, ``step``: each agent forms a new estimate,
the tracking variable follows the estimates through a gossip round, and the
iterates descend it. The config picks the estimate (a two-point mini-batch
for ``DgfmConfig``, mega-batch restarts and paired differences for
``DgfmPlusConfig``), and the centralized baselines are the same step with a
single agent. Two exact relationships hold at every iteration, independent
of the data: the mean of the tracking variable equals the mean of the
current estimates, and the mean iterate descends it. With one agent the
decentralized methods reproduce their centralized counterparts bit for bit.
"""

import numpy as np

from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    NetworkState,
    QuadraticTest,
    build_complete,
    build_ring,
    consensus_error,
    dgfm_plus_run,
    dgfm_run,
    gfm_run,
    make_quadratic_test,
    partition,
    select_output,
    step,
)

m, d = 8, 6
obj = QuadraticTest(d, n_samples=2 * m)
ring = build_ring(m)
part = partition(obj.n_samples, m, seed=0)

print("=== tracked descent on a ring of 8 agents ===")
cfg = DgfmConfig(eta=0.02, delta=0.01, iters=300, seed=0)
state = NetworkState.initial(m, np.ones(d))
for k in range(cfg.iters):
    xbar_before = state.mean_x.copy()
    step(state, ring, part, obj, cfg)
    if k % 60 == 0:
        drift = np.linalg.norm(state.y.mean(axis=0) - state.v.mean(axis=0))
        print(f"iter {k:3d}: loss {obj.full_loss(state.mean_x):8.4f}   "
              f"consensus err {consensus_error(state.x):9.2e}   "
              f"tracking identity drift {drift:.1e}")

print("\n=== variance-reduced variant with periodic mega-batch restarts ===")
cfgp = DgfmPlusConfig(eta=0.02, delta=0.01, iters=200, seed=1,
                      period=20, batch=2, mega_batch=32, gossip_rounds=4)
state, record = dgfm_plus_run(ring, part, obj, cfgp, x0=np.ones(d), record_every=40)
for entry in record.entries:
    print(f"iter {entry.iteration:3d}: loss {entry.loss:8.4f}   "
          f"zo calls {entry.zo_calls:6d}   comm rounds {entry.comm_rounds:4d}")
first = record.restarts[0]["tracking_consensus"]
print("restart gossip squeezes the tracker deviation:",
      " -> ".join(f"{v:.2e}" for v in first))

print("\n=== single-agent degeneration is exact ===")
obj1 = make_quadratic_test(d)
cfg1 = DgfmConfig(eta=0.05, delta=0.01, iters=40, seed=5, batch=1)
# the network's one agent against the centralized run's (gfm_run's partition)
net = NetworkState.initial(1, np.ones(d))
central = NetworkState.initial(1, np.ones(d))
same = True
for _ in range(cfg1.iters):
    step(net, build_complete(1), partition(1, 1, seed=5), obj1, cfg1)
    step(central, build_complete(1), partition(obj1.n_samples, 1, seed=cfg1.seed), obj1, cfg1)
    same = same and np.array_equal(net.x, central.x)
_, rec_net = dgfm_run(build_complete(1), partition(1, 1, seed=5), obj1, cfg1,
                      x0=np.ones(d))
rec_central = gfm_run(obj1, cfg1, x0=np.ones(d))
same = same and np.array_equal(select_output(rec_net), select_output(rec_central))
print("network run with m=1 bit-equals the centralized baseline:", same)
print("comm rounds with one agent (no neighbours):", rec_net.entries[-1].comm_rounds)

print("\n=== uniform output selection over the recorded trajectory ===")
# drawn before the run from the config's seed, so only that iterate is kept
out = select_output(record)
k, _ = record.snapshots[0]
print(f"selected iterate of iteration {k} with loss {obj.full_loss(out):.4f}")
