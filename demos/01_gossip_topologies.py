"""Gossip topologies: build mixing matrices, inspect spectral gaps, watch
consensus contract.

The spectral gap rho of a mixing matrix is the per-round contraction factor
of the deviation from consensus; smaller is better. A ring barely mixes
(rho close to 1 for large rings), the complete graph mixes in one shot
(rho = 0).
"""

import numpy as np

from dgfm import build_complete, build_metropolis_hastings, build_ring, mix, validate

print("=== spectral gaps by topology ===")
for m in (4, 8, 20, 50):
    print(f"ring    m={m:3d}: rho = {build_ring(m).rho:.6f}")
print(f"complete m= 20: rho = {build_complete(20).rho:.6f}")

# Metropolis-Hastings weights for an arbitrary connected graph: here a ring
# with one extra chord, which mixes a bit faster than the plain ring.
m = 8
adj = np.eye(m, dtype=bool)
for i in range(m):
    adj[i, (i + 1) % m] = adj[(i + 1) % m, i] = True
adj[0, 4] = adj[4, 0] = True
chord = build_metropolis_hastings(adj)
print(f"ring m=8 + chord (metropolis weights): rho = {chord.rho:.6f} "
      f"vs plain ring {build_ring(8).rho:.6f}")

print("\n=== validation report for a bad matrix ===")
report = validate(np.array([[0.9, 0.1], [0.5, 0.5]]))
print("ok:", report.ok)
print("failures:", report.failures())

print("\n=== consensus contraction in action ===")
ring = build_ring(8)
rng = np.random.default_rng(0)
z = rng.standard_normal((8, 3))
dev0 = np.linalg.norm(z - z.mean(axis=0))
print(f"gossip round  0: deviation {dev0:10.6f}")
for k in range(1, 11):
    z = mix(ring, z)
    dev = np.linalg.norm(z - z.mean(axis=0))
    print(f"gossip round {k:2d}: deviation {dev:10.6f}   (bound rho^k * dev0 = {ring.rho**k * dev0:.6f})")

z5 = z
for _ in range(5):
    z5 = mix(ring, z5)
print("\nthe mean never moves:", np.round(z5.mean(axis=0) - z.mean(axis=0), 15))
