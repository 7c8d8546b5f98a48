"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The benchmark
reproduction (criterion 9) runs on a deterministic synthetic corpus shaped
like the a9a adult-income data, built by conftest.synthetic_svm_text.
"""

import math
import time

import numpy as np
import pytest

import dgfm
from conftest import (
    centralized_trajectory,
    output_candidate,
    step_trajectory,
    synthetic_svm_text,
)
from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    LinearTest,
    NetworkState,
    QuadraticTest,
    SmoothingParams,
    build_complete,
    build_ring,
    dgfm_plus_run,
    dgfm_run,
    gfm_plus_run,
    gfm_run,
    minibatch_estimate,
    mix,
    partition,
    sample_batch,
    sample_sphere,
    select_output,
    sigma_squared,
    step,
    substream,
    theorem_params_dgfm,
    theorem_params_dgfm_plus,
    two_point_estimate,
)


def report(number, name, elapsed, budget=None):
    limit = f" < {budget:.0f}s" if budget is not None else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s{limit})")


def rel_err(a, ref):
    return np.linalg.norm(a - ref) / (1.0 + np.linalg.norm(ref))


def test_criterion_01_estimator_unbiasedness():
    t0 = time.time()
    d, delta = 5, 0.05
    obj = QuadraticTest(dim=d)
    params = SmoothingParams(delta=delta, dim=d)
    x = np.zeros(d)
    x[0] = 1.0
    target = obj.smoothed_grad(x)  # exactly 2x by sphere symmetry
    rng = substream(101, 0)
    n = 100_000
    acc = np.zeros(d)
    acc_sq = np.zeros(d)
    for _ in range(n):
        g = two_point_estimate(obj, x, params, sample_sphere(d, rng), 0)
        acc += g
        acc_sq += g * g
    mean = acc / n
    se = np.sqrt(np.maximum(acc_sq / n - mean**2, 0.0) / n)
    assert np.all(np.abs(mean - target) <= 3 * se)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, "estimator unbiasedness", elapsed, 5)


def test_criterion_02_second_moment_bound():
    t0 = time.time()
    n = 100_000
    for d in (1, 5, 28):
        c = np.zeros(d)
        c[d // 2] = 1.0  # exactly 1-Lipschitz
        obj = LinearTest(c)
        params = SmoothingParams(delta=0.01, dim=d)
        rng = substream(102, d)
        total = 0.0
        for _ in range(n):
            g = two_point_estimate(obj, np.zeros(d), params, sample_sphere(d, rng), 0)
            total += float(g @ g)
        assert total / n <= 1.1 * sigma_squared(d, 1.0)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "second-moment bound", elapsed, 10)


def test_criterion_03_minibatch_variance_scaling():
    t0 = time.time()
    d = 10
    c = np.zeros(d)
    c[0] = 1.0
    obj = LinearTest(c)
    params = SmoothingParams(delta=0.01, dim=d)
    rng = substream(103, 0)
    reps = 2000
    x = np.zeros(d)

    def mean_sq_dev(b):
        total = 0.0
        for _ in range(reps):
            batch = sample_batch(np.arange(1), b, d, rng)
            g = minibatch_estimate(obj, x, params, batch)
            total += float(((g - c) ** 2).sum())
        return total / reps

    v1 = mean_sq_dev(1)
    for b in (4, 16, 64):
        ratio = mean_sq_dev(b) * b / v1
        assert abs(ratio - 1.0) <= 0.25, f"b={b}: {ratio}"
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report(3, "mini-batch variance 1/b scaling", elapsed, 20)


def test_criterion_04_exact_mean_identities():
    t0 = time.time()
    obj = dgfm.QuadraticTest(4, n_samples=16)
    ring = build_ring(8)
    part = partition(16, 8, seed=4)

    cfg = DgfmConfig(eta=0.02, delta=0.01, iters=200, seed=41)
    state = NetworkState.initial(8, np.ones(4))
    for _ in range(200):
        xbar_before = state.mean_x.copy()
        step(state, ring, part, obj, cfg)
        assert rel_err(state.y.mean(axis=0), state.g_prev.mean(axis=0)) <= 1e-10
        assert rel_err(state.mean_x, xbar_before - cfg.eta * state.y.mean(axis=0)) <= 1e-10

    cfgp = DgfmPlusConfig(eta=0.02, delta=0.01, iters=200, seed=42,
                          period=10, batch=2, mega_batch=16, gossip_rounds=3)
    state = NetworkState.initial(8, np.ones(4))
    for _ in range(200):
        xbar_before = state.mean_x.copy()
        step(state, ring, part, obj, cfgp)
        assert rel_err(state.y.mean(axis=0), state.v.mean(axis=0)) <= 1e-10
        assert rel_err(state.mean_x, xbar_before - cfgp.eta * state.y.mean(axis=0)) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, "exact mean identities", elapsed, 5)


def test_criterion_05_spectral_gap_ground_truth():
    t0 = time.time()
    assert abs(build_ring(4).rho - 1.0 / 3.0) <= 1e-12
    assert build_complete(6).rho <= 1e-12
    ring = build_ring(4)
    rng = substream(105, 0)
    for _ in range(100):
        z = rng.standard_normal((4, 3))
        zbar = z.mean(axis=0)
        assert np.linalg.norm(mix(ring, z) - zbar) <= ring.rho * np.linalg.norm(z - zbar) * (
            1 + 1e-12
        ) + 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(5, "spectral gap ground truth", elapsed, 1)


def test_criterion_06_restart_consensus_contraction():
    t0 = time.time()
    obj = dgfm.QuadraticTest(4, n_samples=16)
    ring = build_ring(8)
    part = partition(16, 8, seed=6)
    limit = ring.rho**2 + 0.05
    period, cycles = 10, 21
    for gossip_rounds in (1, 3, 6):
        cfg = DgfmPlusConfig(eta=0.01, delta=0.01, iters=period * cycles, seed=60,
                             period=period, batch=2, mega_batch=16,
                             gossip_rounds=gossip_rounds)
        _, record = dgfm_plus_run(ring, part, obj, cfg, x0=np.ones(4),
                                  record_every=period, stationarity_every=0,
                                  keep_iterates=False)
        assert len(record.restarts) >= 20
        for restart in record.restarts:
            trace = restart["tracking_consensus"]
            assert len(trace) == gossip_rounds + 1
            for before, after in zip(trace, trace[1:]):
                if before > 1e-18:
                    assert after <= limit * before
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(6, "restart consensus contraction", elapsed, 30)


def test_criterion_07_oracle_and_comm_accounting():
    t0 = time.time()
    m, iters = 4, 100
    obj = dgfm.QuadraticTest(3, n_samples=2 * m)
    ring = build_ring(m)
    part = partition(2 * m, m, seed=7)

    cfg = DgfmConfig(eta=0.01, delta=0.01, iters=iters, seed=70)
    state, _ = dgfm_run(ring, part, obj, cfg, stationarity_every=0, keep_iterates=False)
    assert state.oracle_calls == 2 * m * iters
    assert state.comm_rounds == 2 * iters

    period, batch, mega, gossip = 7, 3, 10, 4
    cfgp = DgfmPlusConfig(eta=0.01, delta=0.01, iters=iters, seed=71, period=period,
                          batch=batch, mega_batch=mega, gossip_rounds=gossip)
    state, _ = dgfm_plus_run(ring, part, obj, cfgp, stationarity_every=0,
                             keep_iterates=False)
    restarts = math.ceil(iters / period)
    others = iters - restarts
    assert state.oracle_calls == restarts * 2 * m * mega + others * 4 * m * batch
    assert state.comm_rounds == restarts * (gossip + 1) + others * 2

    rec = gfm_run(obj, DgfmConfig(eta=0.01, delta=0.01, iters=iters, seed=72, batch=5),
                  stationarity_every=0, keep_iterates=False)
    assert rec.entries[-1].zo_calls == 2 * 5 * iters
    assert rec.entries[-1].comm_rounds == 0

    recp = gfm_plus_run(obj, DgfmPlusConfig(eta=0.01, delta=0.01, iters=iters, seed=73,
                                            period=period, batch=batch, mega_batch=mega),
                        stationarity_every=0, keep_iterates=False)
    assert recp.entries[-1].zo_calls == restarts * 2 * mega + others * 4 * batch
    elapsed = time.time() - t0
    report(7, "oracle/communication accounting", elapsed)


def test_criterion_08_degeneration_equalities():
    t0 = time.time()
    obj = QuadraticTest(dim=5)
    cfg = DgfmConfig(eta=0.05, delta=0.01, iters=80, seed=8, batch=1)
    part = partition(1, 1, seed=8)
    # every iterate, through the public step: the network's one agent and
    # the centralized run's (gfm_run's partition of its own seed)
    traj_d = step_trajectory(build_complete(1), part, obj, cfg, np.ones(5))
    traj_g = centralized_trajectory(obj, cfg, np.ones(5))
    assert len(traj_d) == len(traj_g) == 80
    assert all(np.array_equal(xa, xb) for xa, xb in zip(traj_d, traj_g))
    _, rec_d = dgfm_run(build_complete(1), part, obj, cfg, x0=np.ones(5),
                        stationarity_every=0)
    rec_g = gfm_run(obj, cfg, x0=np.ones(5), stationarity_every=0)
    assert np.array_equal(select_output(rec_d), select_output(rec_g))
    assert np.array_equal(rec_g.snapshots[0][1], output_candidate(rec_g, traj_g))
    assert [e.loss for e in rec_d.entries] == [e.loss for e in rec_g.entries]

    obj2 = dgfm.QuadraticTest(4, n_samples=12)
    cfg_plus = DgfmPlusConfig(eta=0.03, delta=0.01, iters=60, seed=81,
                              period=1, batch=3, mega_batch=9)
    cfg_plain = DgfmConfig(eta=0.03, delta=0.01, iters=60, seed=81, batch=9)
    traj_p = centralized_trajectory(obj2, cfg_plus, np.ones(4))
    traj_q = centralized_trajectory(obj2, cfg_plain, np.ones(4))
    assert len(traj_p) == len(traj_q) == 60
    assert all(np.array_equal(xa, xb) for xa, xb in zip(traj_p, traj_q))
    rec_p = gfm_plus_run(obj2, cfg_plus, x0=np.ones(4), stationarity_every=0)
    rec_q = gfm_run(obj2, cfg_plain, x0=np.ones(4), stationarity_every=0)
    assert np.array_equal(select_output(rec_p), select_output(rec_q))
    assert np.array_equal(rec_p.snapshots[0][1], output_candidate(rec_p, traj_p))
    elapsed = time.time() - t0
    report(8, "degeneration equalities", elapsed)


@pytest.mark.slow
class TestCriterion09Benchmark:
    """Desk-scale benchmark reproduction on the a9a-shaped corpus.

    Step sizes are tuned per algorithm over the grid
    {0.0005, 0.001, 0.005, 0.01} with a short single-seed pilot; the
    variance-reduced schedules use (period, mega batch, batch, gossip)
    picked from the published tuning grids by a prior sweep.
    """

    ETA_GRID = (0.0005, 0.001, 0.005, 0.01)
    BUDGET = 200_000
    PILOT_BUDGET = 50_000
    M = 8
    DGFM_PLUS_SCHEDULE = dict(period=10, mega_batch=10, batch=1, gossip_rounds=5)
    GFM_PLUS_SCHEDULE = dict(period=50, mega_batch=100, batch=2)
    GFM_BATCH = 16

    def run_algo(self, algo, obj, eta, seed, budget, record_every_frac=100):
        delta = 1e-3
        ring = build_ring(self.M)
        if algo == "dgfm":
            iters = budget // (2 * self.M)
            cfg = DgfmConfig(eta=eta, delta=delta, iters=iters, seed=seed)
            part = partition(obj.n_samples, self.M, seed)
            _, rec = dgfm_run(ring, part, obj, cfg,
                              record_every=max(1, iters // record_every_frac),
                              stationarity_every=0, keep_iterates=False)
            return rec
        if algo == "dgfm-plus":
            s = self.DGFM_PLUS_SCHEDULE
            per_cycle = 2 * self.M * s["mega_batch"] + (s["period"] - 1) * 4 * self.M * s["batch"]
            iters = int(budget / per_cycle * s["period"])
            cfg = DgfmPlusConfig(eta=eta, delta=delta, iters=iters, seed=seed, **s)
            part = partition(obj.n_samples, self.M, seed)
            _, rec = dgfm_plus_run(ring, part, obj, cfg,
                                   record_every=max(1, iters // record_every_frac),
                                   stationarity_every=0, keep_iterates=False)
            return rec
        if algo == "gfm":
            iters = budget // (2 * self.GFM_BATCH)
            cfg = DgfmConfig(eta=eta, delta=delta, iters=iters, seed=seed,
                             batch=self.GFM_BATCH)
            return gfm_run(obj, cfg, record_every=max(1, iters // record_every_frac),
                           stationarity_every=0, keep_iterates=False)
        s = self.GFM_PLUS_SCHEDULE
        per_cycle = 2 * s["mega_batch"] + (s["period"] - 1) * 4 * s["batch"]
        iters = int(budget / per_cycle * s["period"])
        cfg = DgfmPlusConfig(eta=eta, delta=delta, iters=iters, seed=seed, **s)
        return gfm_plus_run(obj, cfg, record_every=max(1, iters // record_every_frac),
                            stationarity_every=0, keep_iterates=False)

    def test_benchmark(self, svm_objective):
        t0 = time.time()
        obj = svm_objective
        start_loss = obj.full_loss(np.zeros(obj.dim))

        tuned = {}
        for algo in ("dgfm", "dgfm-plus", "gfm", "gfm-plus"):
            best = min(
                self.ETA_GRID,
                key=lambda eta: self.run_algo(algo, obj, eta, seed=99,
                                              budget=self.PILOT_BUDGET,
                                              record_every_frac=1).final_loss,
            )
            tuned[algo] = best

        records = {
            algo: [self.run_algo(algo, obj, tuned[algo], seed, self.BUDGET)
                   for seed in range(5)]
            for algo in tuned
        }

        for algo, recs in records.items():
            median_final = float(np.median([r.final_loss for r in recs]))
            reduction = (start_loss - median_final) / start_loss
            print(f"  {algo}: eta={tuned[algo]}, median final loss {median_final:.4f} "
                  f"({100 * reduction:.1f}% reduction)")
            assert reduction >= 0.20, f"{algo} reduced loss by only {100 * reduction:.1f}%"

        grid = np.arange(10_000, self.BUDGET + 1, 10_000)
        wins = 0
        for budget in grid:
            std_plain = np.std([r.loss_at_budget(budget) for r in records["dgfm"]])
            std_plus = np.std([r.loss_at_budget(budget) for r in records["dgfm-plus"]])
            wins += std_plus <= std_plain
        fraction = wins / len(grid)
        print(f"  dgfm-plus std <= dgfm std at {wins}/{len(grid)} checkpoints")
        assert fraction >= 0.70

        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(9, "desk-scale benchmark reproduction", elapsed, 300)


def test_criterion_10_parameter_prescriptions():
    t0 = time.time()
    grid = [
        dict(rho=rho, lipschitz=lip, d=d, delta=delta, epsilon=eps, m=m, value_gap=gap, c=c)
        for rho in (0.2, 0.65, 0.95)
        for (lip, d, delta, eps, m, gap, c) in (
            (1.0, 5, 1e-3, 0.1, 4, 1.0, 1.0),
            (2.0, 28, 1e-2, 0.05, 20, 10.0, 1.0),
            (0.5, 123, 1e-3, 0.2, 8, 2.0, 2.0),
        )
    ]
    grid += [
        dict(rho=0.5, lipschitz=1.0, d=10, delta=5e-3, epsilon=eps, m=8, value_gap=3.0, c=1.0)
        for eps in (0.02, 0.05, 0.1, 0.3)
    ]
    grid += [
        dict(rho=0.8, lipschitz=3.0, d=50, delta=1e-2, epsilon=0.1, m=m, value_gap=5.0, c=0.5)
        for m in (2, 5, 12, 40, 100, 256, 1000)
    ]
    assert len(grid) >= 20

    for inputs in grid:
        rho, eps, c, delta = inputs["rho"], inputs["epsilon"], inputs["c"], inputs["delta"]
        r2 = rho**2

        p = theorem_params_dgfm(**inputs)
        sigma = math.sqrt(p.sigma_sq)
        clauses = (
            (1 - r2) ** 2 / (48 * sigma * (1 + r2) * r2) * eps / p.l_delta,
            eps**2 / (32 * p.l_delta * (p.sigma_sq + inputs["lipschitz"])),
            8 * math.sqrt(6 * inputs["m"] * p.sigma_sq) / (eps * p.l_delta),
        )
        for clause in clauses:
            assert p.eta <= clause * (1 + 1e-12)
        assert p.iterations * p.eta * eps**2 >= 32 * inputs["value_gap"] * (1 - 1e-12)
        assert p.alpha_1 == pytest.approx((1 - r2) / (2 * r2), rel=1e-12)

        q = theorem_params_dgfm_plus(**inputs)
        assert q.period >= c**2 / (2 * delta)
        eta_1 = (1 - r2) ** 1.5 * math.sqrt(delta) / (r2 * math.sqrt(1 + r2) * math.sqrt(inputs["d"]) * math.sqrt(24))
        assert q.eta <= eta_1 * (1 + 1e-12)
        assert q.eta <= 0.5 / q.l_delta * (1 + 1e-12)
        assert q.alpha_2 == pytest.approx((1 - r2) / (2 * r2), rel=1e-12)
        assert q.batch >= 1 and q.mega_batch >= 1 and q.gossip_rounds >= 1 and q.cycles >= 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(10, "parameter prescriptions", elapsed, 1)
