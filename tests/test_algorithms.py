import copy
import dataclasses
import math
import os
import resource
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (
    centralized_trajectory,
    output_candidate,
    records_match,
    step_trajectory,
)
import dgfm
from dgfm import (
    DgfmConfig,
    DgfmPlusConfig,
    LinearTest,
    NetworkState,
    QuadraticTest,
    build_complete,
    build_ring,
    dgfm_plus_run,
    dgfm_run,
    estimate_lipschitz,
    gfm_plus_run,
    gfm_run,
    partition,
    select_output,
    sigma_squared,
    step,
    substream,
    surrogate_smoothness,
    theorem_params_dgfm,
    theorem_params_dgfm_plus,
    write_records,
)
from dgfm.errors import (
    BudgetExceeded,
    EmptyTrajectory,
    InvalidParameter,
    InvalidTopology,
    NumericFailure,
    ShapeError,
)
from dgfm.algorithms import _draw, _draw_output, _require_finite
from dgfm.metrics import RunRecord
from dgfm.objectives import AbsTest
from dgfm import smoothing
from dgfm.rng import KEY_BLOCK, StreamCache
from dgfm.smoothing import BLOCK_ENTRIES


def run_bounded(code):
    """Run ``code`` in a child Python held to 1 GiB of address space and 60 s; its stdout.

    A stream key that loops forever then fails its test instead of
    exhausting the machine's memory.
    """
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dgfm.__file__))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def rel_err(a, ref):
    return np.linalg.norm(a - ref) / (1.0 + np.linalg.norm(ref))


def run_briefly(run, obj, **kw):
    """Three iterations of dgfm on a 4-ring, or of gfm, with the given run keywords."""
    cfg = DgfmConfig(eta=0.01, delta=0.01, iters=3, seed=0)
    if run == "gfm_run":
        return gfm_run(obj, cfg, **kw)
    return dgfm_run(build_ring(4), partition(obj.n_samples, 4, seed=0), obj, cfg, **kw)


class TestDgfmStep:
    def test_mean_identities_every_step(self):
        obj = QuadraticTest(3, n_samples=8)
        ring = build_ring(4)
        part = partition(8, 4, seed=1)
        cfg = DgfmConfig(eta=0.02, delta=0.01, iters=50, seed=11)
        state = NetworkState.initial(4, np.ones(3))
        ybar_prev = state.y.mean(axis=0)
        gbar_prev = state.g_prev.mean(axis=0)
        for _ in range(50):
            xbar_before = state.mean_x.copy()
            step(state, ring, part, obj, cfg)
            gbar = state.g_prev.mean(axis=0)
            ybar = state.y.mean(axis=0)
            assert rel_err(ybar, gbar) <= 1e-10
            assert rel_err(ybar, ybar_prev + gbar - gbar_prev) <= 1e-10
            assert rel_err(state.mean_x, xbar_before - cfg.eta * ybar) <= 1e-10
            ybar_prev, gbar_prev = ybar, gbar

    def test_tracking_sum_invariant_under_mix(self):
        # column sums of the weights are 1, so the agent sum of any mixed
        # quantity is conserved
        ring = build_ring(5)
        rng = substream(0, 5)
        z = rng.standard_normal((5, 3))
        mixed = ring.weights @ z
        assert np.allclose(mixed.sum(axis=0), z.sum(axis=0), atol=1e-12)

    def test_constant_objective_freezes(self):
        obj = LinearTest(np.zeros(3), n_samples=4)
        ring = build_ring(4)
        part = partition(4, 4, seed=0)
        cfg = DgfmConfig(eta=0.5, delta=0.1, iters=20, seed=3)
        state = NetworkState.initial(4, np.full(3, 2.0))
        for _ in range(20):
            step(state, ring, part, obj, cfg)
            assert np.array_equal(state.y, np.zeros((4, 3)))
            assert np.allclose(state.x, 2.0, atol=1e-12)

    def test_budget_exceeded(self):
        obj = QuadraticTest(dim=2)
        mat = build_complete(1)
        part = partition(1, 1, seed=0)
        cfg = DgfmConfig(eta=0.1, delta=0.1, iters=1, seed=0)
        state = NetworkState.initial(1, np.zeros(2))
        step(state, mat, part, obj, cfg)
        with pytest.raises(BudgetExceeded):
            step(state, mat, part, obj, cfg)

    def test_a_negative_iteration_is_outside_the_budget(self):
        # it would key a negative stream; the state stays as it was
        assert run_bounded("""
            import numpy as np
            from dgfm import (DgfmConfig, NetworkState, QuadraticTest, build_complete,
                              partition, step)
            from dgfm.errors import BudgetExceeded
            state = NetworkState.initial(1, np.ones(2))
            state.k = -1
            cfg = DgfmConfig(eta=0.1, delta=0.1, iters=1, seed=0)
            try:
                step(state, build_complete(1), partition(1, 1, seed=0), QuadraticTest(dim=2), cfg)
            except BudgetExceeded:
                print(state.k, state.oracle_calls, state.comm_rounds, (state.x == 1).all())
        """) == ["-1", "0", "0", "True"]

    def test_oracle_and_comm_accounting(self):
        obj = QuadraticTest(2, n_samples=8)
        ring = build_ring(8)
        part = partition(8, 8, seed=0)
        cfg = DgfmConfig(eta=0.01, delta=0.01, iters=100, seed=1)
        state, _ = dgfm_run(ring, part, obj, cfg, stationarity_every=0, keep_iterates=False)
        assert state.oracle_calls == 2 * 8 * 100
        assert state.comm_rounds == 2 * 100

    def test_batch_is_honoured(self):
        obj = QuadraticTest(2, n_samples=8)
        ring = build_ring(4)
        part = partition(8, 4, seed=0)
        cfg = DgfmConfig(eta=0.01, delta=0.01, iters=25, seed=1, batch=3)
        state, record = dgfm_run(ring, part, obj, cfg, stationarity_every=0,
                                 keep_iterates=False)
        assert state.oracle_calls == 2 * 4 * 3 * 25
        assert [e.zo_calls for e in record.entries] == [2 * 4 * 3 * k for k in range(1, 26)]

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_blow_up_raises_at_its_step(self):
        # the quadratic squares its scale every step, so a huge step size
        # overflows within a few iterations, long before the one record point
        obj = QuadraticTest(3, n_samples=8)
        cfg = DgfmConfig(eta=1e155, delta=1e-3, iters=50, seed=1)
        with pytest.raises(NumericFailure, match=r"of agent \d+ at iteration") as failure:
            dgfm_run(build_ring(4), partition(8, 4, seed=0), obj, cfg, x0=np.ones(3),
                     record_every=cfg.iters)
        assert failure.value.iteration < cfg.iters

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_estimate_names_agent_and_keeps_state(self):
        obj = QuadraticTest(3, n_samples=8)
        cfg = DgfmConfig(eta=0.01, delta=1e-3, iters=5, seed=1)
        state = NetworkState.initial(4, np.ones(3))
        state.x[2, 0] = 1e300
        x, y, v = state.x.copy(), state.y.copy(), state.v.copy()
        with pytest.raises(NumericFailure, match="estimate of agent 2 at iteration 0"):
            step(state, build_ring(4), partition(8, 4, seed=0), obj, cfg)
        assert np.array_equal(state.x, x) and np.array_equal(state.y, y)
        assert np.array_equal(state.v, v) and state.k == 0
        assert state.oracle_calls == 0 and state.comm_rounds == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_iterate_on_a_restart_keeps_state(self):
        obj = QuadraticTest(3, n_samples=8)
        cfg = DgfmPlusConfig(eta=1e300, delta=1e-3, iters=5, seed=1, period=5, batch=1,
                             mega_batch=2, gossip_rounds=3)
        state = NetworkState.initial(4, 1e10 * np.ones(3))
        x, y, v = state.x.copy(), state.y.copy(), state.v.copy()
        with pytest.raises(NumericFailure, match=r"iterate of agent \d+ at iteration 0"):
            step(state, build_ring(4), partition(8, 4, seed=0), obj, cfg)
        assert np.array_equal(state.x, x) and np.array_equal(state.y, y)
        assert np.array_equal(state.v, v) and state.k == 0
        assert state.oracle_calls == 0 and state.comm_rounds == 0
        assert state.restart_log == []

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_block_whose_sum_overflows_passes_the_finite_check(self):
        _require_finite(np.full((3, 4), 1e308), "iterate", 7)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [{2: math.inf}, {2: math.nan}, {1: math.inf, 3: math.nan},
                                     {2: -math.inf, 3: math.inf}],
                             ids=["inf", "nan", "inf-then-nan", "opposite-infs"])
    def test_finite_check_names_the_first_bad_agent(self, bad):
        z = np.ones((4, 3))
        for agent, value in bad.items():
            z[agent, 1] = value
        message = f"^non-finite estimate of agent {min(bad)} at iteration 7$"
        with pytest.raises(NumericFailure, match=message) as failure:
            _require_finite(z, "estimate", 7)
        assert failure.value.iteration == 7

    def test_single_agent_counts_no_comm_rounds(self):
        obj = QuadraticTest(2, n_samples=4)
        part = partition(4, 1, seed=0)
        cfg = DgfmConfig(eta=0.01, delta=0.01, iters=10, seed=1)
        state, record = dgfm_run(build_complete(1), part, obj, cfg, stationarity_every=0)
        assert state.comm_rounds == 0
        assert state.oracle_calls == 2 * 10
        assert all(e.comm_rounds == 0 for e in record.entries)


    @pytest.mark.parametrize("m, cfg, k", [
        (64, DgfmConfig(eta=0.01, delta=1e-3, iters=2, seed=1), 0),
        (64, DgfmPlusConfig(eta=0.01, delta=1e-3, iters=2, seed=1, period=2, batch=1,
                            mega_batch=1), 1),
        (1, DgfmPlusConfig(eta=0.01, delta=1e-3, iters=1, seed=1, period=1, batch=2,
                           mega_batch=100), 0),
        (1, DgfmConfig(eta=0.01, delta=1e-3, iters=8, seed=1, batch=2), 0),
    ], ids=["dgfm-m64", "paired-m64", "gfm-plus-restart", "gfm-window"])
    def test_peak_memory_is_bounded_by_the_state_and_the_blocks(self, m, cfg, k):
        # Outside the estimate a step holds at most four (m, d) arrays at once:
        # the estimates, a gossip operand, its product and the next tracker or
        # iterate. The estimate holds the sums at one or two points and one
        # block's directions, steps, points and probes, at most eight blocks of
        # BLOCK_ENTRIES. An unblocked draw breaks the bound in the paired and the
        # restart case. In the first case the step draws iterations 0 and 1 at
        # once, as a pair, whose directions fill 7.8 blocks and which keeps
        # iteration 1's draw of 3.9 past the estimate. In the last case the step
        # fills a window of eight iterations' draws, whose directions and steps
        # fill two blocks.
        d = 2000
        obj = QuadraticTest(d, n_samples=2 * m)
        matrix = build_ring(m) if m > 1 else build_complete(1)
        part = partition(obj.n_samples, m, seed=0)
        state = NetworkState.initial(m, np.full(d, 0.5))
        for _ in range(k):
            step(state, matrix, part, obj, cfg)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step(state, matrix, part, obj, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * m * d * 8 + 8 * BLOCK_ENTRIES * 8


class TestStreamCache:
    """Each state draws from its own cached streams, those of its config's seed.

    The runs start three iterations before a key block's edge, so every
    trajectory re-keys across it.
    """

    OBJ = AbsTest(3, n_samples=8)
    RING = build_ring(4)
    PART = partition(8, 4, seed=0)
    START = KEY_BLOCK - 3

    def config(self, seed):
        return DgfmPlusConfig(eta=0.02, delta=0.01, iters=self.START + 8, seed=seed, period=3,
                              batch=2, mega_batch=3)

    def fresh(self):
        state = NetworkState.initial(4, np.linspace(-1.0, 1.0, 3))
        state.k = self.START
        return state

    def trajectory(self, state, cfg, steps):
        return [step(state, self.RING, self.PART, self.OBJ, cfg).x.copy() for _ in range(steps)]

    def test_alternating_states_equal_their_solo_runs(self):
        cfgs = [self.config(3), self.config(4)]
        solo = [self.trajectory(self.fresh(), cfg, 8) for cfg in cfgs]
        states = [self.fresh(), self.fresh()]
        alternating = [[], []]
        for _ in range(8):
            for state, cfg, xs in zip(states, cfgs, alternating):
                xs += self.trajectory(state, cfg, 1)
        for got, want in zip(alternating, solo):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert not np.array_equal(solo[0][-1], solo[1][-1])

    def test_a_deep_copy_continues_as_its_original(self):
        cfg = self.config(3)
        solo = self.trajectory(self.fresh(), cfg, 8)
        state = self.fresh()
        self.trajectory(state, cfg, 3)
        twin = copy.deepcopy(state)
        for _ in range(5):
            for s in (twin, state):
                assert np.array_equal(self.trajectory(s, cfg, 1)[0], solo[s.k - self.START - 1])

    def test_a_negative_key_is_refused(self):
        assert run_bounded("""
            from dgfm.errors import InvalidParameter
            from dgfm.rng import StreamCache, key_block, substream
            for call in (lambda: key_block(-1, 0, 0), lambda: key_block(0, -1, 0),
                         lambda: key_block(0, 0, -1), lambda: StreamCache(-1)(0, 0),
                         lambda: StreamCache(0)(-1, 0), lambda: StreamCache(0)(0, -1),
                         # neither a key that is no integer nor a negative one is
                         # truncated, parsed or passed on to numpy
                         lambda: substream(2.7, 0), lambda: substream("3", 0),
                         lambda: substream(-1, 0), lambda: substream(1, 0.5),
                         lambda: substream(1, 0, -1), lambda: StreamCache(2.7),
                         lambda: StreamCache("3"), lambda: StreamCache(0).pair(0, -1)):
                try:
                    call()
                except InvalidParameter as refused:
                    print(refused.name)
        """) == ["seed", "lane", "k"] * 2 + ["seed"] * 3 + ["path"] * 2 + ["seed"] * 2 + ["k"]

    def test_a_config_with_another_seed_draws_that_seeds_stream(self):
        state = self.fresh()
        self.trajectory(state, self.config(3), 4)
        # the same iterates at the same iteration, with no stream opened yet
        uncached = NetworkState(x=state.x.copy(), y=state.y.copy(), v=state.v.copy(),
                                x_prev=state.x_prev.copy(), k=state.k)
        got = self.trajectory(state, self.config(4), 4)
        want = self.trajectory(uncached, self.config(4), 4)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_a_config_with_another_delta_steps_by_that_delta(self):
        # the state's cached window holds its next draw with its steps delta w,
        # formed under the first config's delta
        state = self.fresh()
        self.trajectory(state, self.config(3), 4)
        uncached = NetworkState(x=state.x.copy(), y=state.y.copy(), v=state.v.copy(),
                                x_prev=state.x_prev.copy(), k=state.k)
        other = dataclasses.replace(self.config(3), delta=0.02)
        got = self.trajectory(state, other, 4)
        want = self.trajectory(uncached, other, 4)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_a_partition_with_other_shards_draws_from_them(self, small_svm_objective):
        # the state's cached window holds its next draw from the first
        # partition's shards; the other has as many agents and samples, and
        # the SVM's values depend on the samples drawn
        obj = small_svm_objective
        first, other = (partition(obj.n_samples, 4, seed=seed) for seed in (0, 1))
        cfg = self.config(3)
        state = NetworkState.initial(4, np.linspace(-1.0, 1.0, obj.dim))
        state.k = self.START
        for _ in range(4):
            step(state, self.RING, first, obj, cfg)
        uncached = NetworkState(x=state.x.copy(), y=state.y.copy(), v=state.v.copy(),
                                x_prev=state.x_prev.copy(), k=state.k)
        got = [step(state, self.RING, other, obj, cfg).x for _ in range(4)]
        want = [step(uncached, self.RING, other, obj, cfg).x for _ in range(4)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class ZeroNormals:
    """A stream whose normal draws are all zero, so no row can be normalized."""

    def __init__(self, rng):
        self.integers = rng.integers

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


class ZeroSecondOfPair(StreamCache):
    """A seed's streams, but with zero normals in the second draw of the pair ending at ``BAD``."""

    BAD = 3

    def pair(self, lane, k):
        first, second = super().pair(lane, k)
        return first, ZeroNormals(second) if k + 1 == self.BAD else second


class TestPairedDraws:
    """Two iterations drawn at once, on two threads, give the numbers of one.

    The runs lower `smoothing.BLOCK_ENTRIES` below twice a step's draw, so
    that every step's draw pairs, and set `smoothing.PAIR_BLOCKS` per case:
    a pair's draws of one block each, of blocks of fewer agents, or of one
    agent's pairs in sub-blocks. A run of gfm or gfm-plus, which draws for
    one agent, takes 1/m of the block. The dgfm runs end on an iteration
    whose pair `cfg.iters` cuts short, and the dgfm-plus runs restart every
    four iterations, so a restart and the iteration before the next one
    stand alone. Each run is compared with the same run on one CPU, which
    never pairs.
    """

    # name: (m, d, BLOCK_ENTRIES, PAIR_BLOCKS); batch 2, mega-batch 3
    LAYOUTS = {
        "one-block": (4, 3, 24, 8),  # 24 entries, one block
        "agent-blocks": (4, 3, 12, 8),  # blocks of two agents
        "sub-blocks": (3, 5, 6, 32),  # b d = 10: sub-blocks of one pair
    }
    PLAIN = dict(eta=0.02, delta=0.01, iters=7, seed=3, batch=2)
    PLUS = dict(eta=0.02, delta=0.01, iters=10, seed=3, period=4, batch=2, mega_batch=3,
                gossip_rounds=2)

    def run(self, monkeypatch, algo, layout, paired):
        m, d, entries, blocks = self.LAYOUTS[layout]
        central = algo.startswith("gfm")
        monkeypatch.setattr(smoothing, "BLOCK_ENTRIES", entries // m if central else entries)
        monkeypatch.setattr(smoothing, "PAIR_BLOCKS", blocks)
        # pairs, or not, whatever CPUs the machine running the test allows
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2 if paired else 1)
        fills = []
        beside = smoothing._beside
        monkeypatch.setattr(smoothing, "_beside", lambda *a: fills.append(a) or beside(*a))
        obj = AbsTest(d, n_samples=4 * m)
        cfg = DgfmPlusConfig(**self.PLUS) if algo.endswith("plus") else DgfmConfig(**self.PLAIN)
        kw = dict(x0=np.linspace(-1.0, 1.0, d), stationarity_every=2, stationarity_samples=3)
        if central:
            return None, gfm_run(obj, cfg, **kw), len(fills)
        matrix = build_ring(m)
        return (*dgfm_run(matrix, partition(obj.n_samples, m, seed=0), obj, cfg, **kw),
                len(fills))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("algo", ["dgfm", "dgfm-plus", "gfm", "gfm-plus"])
    def test_a_paired_run_equals_the_unpaired_run(self, monkeypatch, algo, layout):
        state, record, pairs = self.run(monkeypatch, algo, layout, paired=True)
        want_state, want, unpaired = self.run(monkeypatch, algo, layout, paired=False)
        # dgfm pairs iterations 0-1, 2-3 and 4-5, and draws 6 alone; dgfm-plus
        # pairs 1-2 and 5-6 and draws its restarts 0, 4 and 8, the iterations
        # 3 and 7 before a restart, and 9, the last, alone
        assert (pairs, unpaired) == (2 if algo.endswith("plus") else 3, 0)
        assert records_match(record, want)
        assert record.restarts == want.restarts
        assert [e.loss for e in record.entries] == [e.loss for e in want.entries]
        if state is not None:
            for name in ("x", "y", "v", "x_prev"):
                assert getattr(state, name).tobytes() == getattr(want_state, name).tobytes()
            assert ((state.k, state.oracle_calls, state.comm_rounds)
                    == (want_state.k, want_state.oracle_calls, want_state.comm_rounds))

    def test_zero_normals_in_a_pairs_second_draw_fail_its_own_step(self, monkeypatch):
        m, d = 4, 3
        monkeypatch.setattr(smoothing, "BLOCK_ENTRIES", 24)  # one step's draw
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2)
        obj = AbsTest(d, n_samples=8)
        matrix, part = build_complete(m), partition(8, m, seed=0)
        cfg = DgfmConfig(**self.PLAIN)
        clean = NetworkState.initial(m, np.linspace(-1.0, 1.0, d))
        want = [step(clean, matrix, part, obj, cfg).x.copy() for _ in range(ZeroSecondOfPair.BAD)]
        monkeypatch.setattr(dgfm.algorithms, "StreamCache", ZeroSecondOfPair)
        state = NetworkState.initial(m, np.linspace(-1.0, 1.0, d))
        # iteration 2 fills the pair of 2 and 3, whose second draw divides by 0
        with np.errstate(invalid="ignore"):
            for x in want:
                assert step(state, matrix, part, obj, cfg).x.tobytes() == x.tobytes()
        assert state._window[1:3] == (2, 4)
        before = copy.deepcopy(state)
        with pytest.raises(InvalidParameter,
                           match=r"^directions must be unit norm, worst error nan$"):
            step(state, matrix, part, obj, cfg)
        for name in ("x", "y", "v", "x_prev"):
            assert getattr(state, name).tobytes() == getattr(before, name).tobytes()
        assert ((state.k, state.oracle_calls, state.comm_rounds, state.restart_log)
                == (before.k, before.oracle_calls, before.comm_rounds, before.restart_log))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_an_iteration_taken_again_draws_its_pair_again(self, monkeypatch, layout):
        # a pair hands each draw out once; a step retried after a failure
        # draws the pair from its iteration again, with the same numbers
        m, d, entries, blocks = self.LAYOUTS[layout]
        monkeypatch.setattr(smoothing, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(smoothing, "PAIR_BLOCKS", blocks)
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2)
        part, cfg = partition(4 * m, m, seed=0), DgfmConfig(**self.PLAIN)
        state = NetworkState.initial(m, np.zeros(d))

        def draw_bytes(k):
            state.k = k
            return [(a, f, x, w.tobytes(), s.tobytes()) for a, f, x, w, s in
                    _draw(state, part, cfg, cfg.batch)]

        first = draw_bytes(0)
        assert state._window[1:3] == (0, 2)
        assert draw_bytes(0) == first
        second = draw_bytes(1)
        assert state._window[1:3] == (0, 2) and draw_bytes(1) == second != first
        monkeypatch.setattr(smoothing, "_cpus", lambda: 1)
        state = NetworkState.initial(m, np.zeros(d))  # unpaired
        assert (draw_bytes(0), draw_bytes(1)) == (first, second)

    @pytest.mark.parametrize("entries, count", [
        (96, 4),  # a window of four one-block draws
        (12, 1),  # a lone draw, in blocks of two agents
    ])
    def test_an_iteration_taken_again_draws_again_from_it(self, monkeypatch, entries, count):
        # every window hands each draw out once, as a pair does; taken
        # again, the draw is filled again from its iteration, the same bytes
        m, d = 4, 3
        monkeypatch.setattr(smoothing, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(smoothing, "_cpus", lambda: 1)
        part, cfg = partition(4 * m, m, seed=0), DgfmConfig(**self.PLAIN)
        state = NetworkState.initial(m, np.zeros(d))

        def draw_bytes(state, k):
            state.k = k
            return [(a, f, x, w.tobytes(), s.tobytes()) for a, f, x, w, s in
                    _draw(state, part, cfg, cfg.batch)]

        draw_bytes(state, 0)
        first = draw_bytes(state, 1)
        assert state._window[1:3] == ((0, count) if count > 1 else (1, 2))
        assert state._window[3].take(1 if count > 1 else 0) is None
        assert draw_bytes(state, 1) == first
        assert state._window[1:3] == (1, 1 + count)
        assert first == draw_bytes(NetworkState.initial(m, np.zeros(d)), 1)

    @pytest.mark.parametrize("m, b, d", [
        (64, 1, 2000),  # sparse2k-shaped dgfm: blocks of 16 agents
        (1, 16, 2000),  # sparse2k-shaped gfm: one block
        (1, 2, 20000),  # lone rows longer than einsum's 8192-entry buffer
        (1, 1, 100000),  # one pair, a lone row of a draw of one
    ])
    def test_a_pair_at_full_size_is_each_iterations_own_draw(self, monkeypatch, m, b, d):
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2)
        layout = smoothing.DrawLayout([np.arange(i, i + 5) for i in range(0, 5 * m, 5)], b, d)
        window = layout.draw_window(StreamCache(11).pair(0, 4), 2, 0.01)
        for j in range(2):
            got = [(x, w.tobytes(), s.tobytes()) for _, _, x, w, s in window.take(j)]
            want = [(x.reshape(-1).tolist(), w.tobytes(), (0.01 * w).tobytes())
                    for _, _, x, w in layout.draw(StreamCache(11)(0, 4 + j))]
            assert layout.paired and got == want

    @pytest.mark.parametrize("m, b, d, paired", [
        (4, 1, BLOCK_ENTRIES // 8 + 1, True),  # past half a block
        (4, 1, BLOCK_ENTRIES // 8, False),  # half a block: a window of two
        (1, 1, 8 * BLOCK_ENTRIES // 2, True),  # two draws fill PAIR_BLOCKS blocks
        (1, 1, 8 * BLOCK_ENTRIES // 2 + 1, False),
        (8, 1, 123, False),  # a9a-shaped dgfm, gfm and gfm-plus steps
        (1, 16, 123, False),
        (1, 2, 123, False),
        (64, 1, 2000, True),  # sparse2k-shaped dgfm and gfm steps
        (1, 16, 2000, True),
        (1, 2, 2000, False),  # sparse2k-shaped gfm-plus steps
    ])
    def test_which_draws_pair(self, monkeypatch, m, b, d, paired):
        # a restart's layout may pair too: its draws stand alone all the same
        shards = [np.arange(i, i + 2) for i in range(0, 2 * m, 2)]
        assert smoothing.PAIR_BLOCKS == 8
        with monkeypatch.context() as patch:
            patch.setattr(smoothing, "_cpus", lambda: 2)
            layout = smoothing.DrawLayout(shards, b, d)
        assert layout.paired is paired
        assert layout.window == (2 if paired else BLOCK_ENTRIES // (m * b * d))
        if paired:  # one generator cannot serve two threads
            rng = substream(0, 0)
            with pytest.raises(InvalidParameter, match="two distinct generators"):
                layout.draw_window((rng, rng), 2, 0.1)
        # no draw pairs where the process may run on one CPU only
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert not smoothing.DrawLayout(shards, b, d).paired

    def test_no_worker_starts_for_a9a_shaped_runs(self, monkeypatch, svm_objective):
        fills = []
        monkeypatch.setattr(smoothing, "_beside", lambda *a: fills.append(a))
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2)
        part = partition(svm_objective.n_samples, 8, seed=1)
        plus = dict(eta=0.01, delta=1e-3, iters=12, seed=1)
        dgfm_run(build_ring(8), part, svm_objective, DgfmConfig(**plus), stationarity_every=0)
        dgfm_run(build_ring(8), part, svm_objective,
                 DgfmPlusConfig(**plus, period=10, mega_batch=10, batch=1, gossip_rounds=5),
                 stationarity_every=0)
        gfm_run(svm_objective, DgfmConfig(**plus, batch=16), stationarity_every=0)
        gfm_plus_run(svm_objective, DgfmPlusConfig(**plus, period=50, mega_batch=100, batch=2),
                     stationarity_every=0)
        assert fills == []

    def test_no_worker_starts_on_one_cpu(self, monkeypatch):
        fills = []
        monkeypatch.setattr(smoothing, "_beside", lambda *a: fills.append(a))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        obj = QuadraticTest(4000, n_samples=8)
        cfg = DgfmConfig(eta=0.01, delta=1e-3, iters=4, seed=1)
        dgfm_run(build_ring(8), partition(8, 8, seed=0), obj, cfg, stationarity_every=0)
        assert fills == []

    def test_runs_on_several_threads_share_the_worker(self, monkeypatch):
        # four runs at once, with short switch intervals, each draw their
        # pairs through the one worker and give the numbers they give alone
        monkeypatch.setattr(smoothing, "BLOCK_ENTRIES", 24)  # one step's draw
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2)
        obj, part = AbsTest(3, n_samples=8), partition(8, 4, seed=0)
        cfgs = [DgfmConfig(**{**self.PLAIN, "seed": seed, "iters": 40}) for seed in range(4)]
        want = [dgfm_run(build_ring(4), part, obj, cfg)[0].x.tobytes() for cfg in cfgs]
        got = [None] * 4

        def run(i):
            got[i] = dgfm_run(build_ring(4), part, obj, cfgs[i])[0].x.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_repeated_runs_hold_at_most_one_extra_thread(self, monkeypatch):
        monkeypatch.setattr(smoothing, "_cpus", lambda: 2)
        before = threading.active_count()
        obj = QuadraticTest(4000, n_samples=8)
        cfg = DgfmConfig(eta=0.01, delta=1e-3, iters=4, seed=1)
        for _ in range(3):
            assert dgfm_run(build_ring(8), partition(8, 8, seed=0), obj, cfg,
                            stationarity_every=0)[0]._layouts[1].paired
        workers = [t for t in threading.enumerate() if t.name.startswith("dgfm-draw")]
        assert len(workers) == 1 and threading.active_count() <= before + 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_draws_its_pairs_on_a_worker_of_its_own(self):
        # the parent's worker thread is not copied into the child; the
        # child's first pair starts its own, and draws the parent's numbers
        assert run_bounded("""
            import os, signal
            import numpy as np
            import dgfm
            from dgfm import smoothing
            smoothing._cpus = lambda: 2
            obj, part = dgfm.QuadraticTest(4000, n_samples=8), dgfm.partition(8, 8, seed=0)
            cfg = dgfm.DgfmConfig(eta=0.01, delta=1e-3, iters=4, seed=1)

            def run():
                state, _ = dgfm.dgfm_run(dgfm.build_ring(8), part, obj, cfg, stationarity_every=0)
                assert state._layouts[1].paired
                return state.x.tobytes()

            want = run()
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)  # a child waiting on a worker it lacks ends itself
                os._exit(0 if run() == want else 1)
            print(os.waitpid(pid, 0)[1])
        """) == ["0"]


class TestDgfmPlusStep:
    def make(self, gossip_rounds=3, period=5, iters=25, eta=0.02, seed=5):
        obj = QuadraticTest(3, n_samples=8)
        ring = build_ring(4)
        part = partition(8, 4, seed=1)
        cfg = DgfmPlusConfig(eta=eta, delta=0.01, iters=iters, seed=seed,
                             period=period, batch=2, mega_batch=16,
                             gossip_rounds=gossip_rounds)
        return obj, ring, part, cfg

    def test_mean_identity_every_step_including_restarts(self):
        obj, ring, part, cfg = self.make()
        state = NetworkState.initial(4, np.ones(3))
        for _ in range(25):
            xbar_before = state.mean_x.copy()
            step(state, ring, part, obj, cfg)
            assert rel_err(state.y.mean(axis=0), state.v.mean(axis=0)) <= 1e-10
            assert rel_err(state.mean_x, xbar_before - cfg.eta * state.y.mean(axis=0)) <= 1e-10

    def test_counters_and_restart_markers(self):
        obj, ring, part, cfg = self.make(gossip_rounds=4, period=7, iters=100)
        state, record = dgfm_plus_run(ring, part, obj, cfg,
                                      stationarity_every=0, keep_iterates=False)
        restarts = math.ceil(100 / 7)
        others = 100 - restarts
        assert state.oracle_calls == restarts * 2 * 4 * 16 + others * 4 * 4 * 2
        assert state.comm_rounds == restarts * (4 + 1) + others * 2
        assert [r["iter"] for r in record.restarts] == [7 * i for i in range(restarts)]

    def test_centralized_logs_restarts(self):
        obj = QuadraticTest(3, n_samples=8)
        cfg = DgfmPlusConfig(eta=0.02, delta=0.01, iters=25, seed=5,
                             period=10, batch=2, mega_batch=16, gossip_rounds=2)
        record = gfm_plus_run(obj, cfg, stationarity_every=0, keep_iterates=False)
        assert [r["iter"] for r in record.restarts] == [0, 10, 20]
        assert all(r["tracking_consensus"] == [0.0, 0.0, 0.0] for r in record.restarts)
        assert record.entries[-1].comm_rounds == 0

    def test_period_one_restarts_every_step(self):
        obj, ring, part, cfg = self.make(period=1, iters=10)
        state, record = dgfm_plus_run(ring, part, obj, cfg,
                                      stationarity_every=0, keep_iterates=False)
        assert len(record.restarts) == 10
        assert state.oracle_calls == 10 * 2 * 4 * 16

    def test_constant_objective_freezes(self):
        obj = LinearTest(np.zeros(3), n_samples=8)
        ring = build_ring(4)
        part = partition(8, 4, seed=1)
        cfg = DgfmPlusConfig(eta=0.3, delta=0.05, iters=12, seed=2,
                             period=4, batch=2, mega_batch=8, gossip_rounds=2)
        state, _ = dgfm_plus_run(ring, part, obj, cfg, x0=np.ones(3),
                                 stationarity_every=0, keep_iterates=False)
        assert np.array_equal(state.v, np.zeros((4, 3)))
        assert np.allclose(state.x, 1.0, atol=1e-12)

    def test_estimate_constant_within_cycle_when_frozen(self):
        # eta below one ulp of the iterate freezes x exactly while staying
        # positive, standing in for a zero step size the config forbids
        obj = QuadraticTest(3, n_samples=4)
        mat = build_complete(1)
        part = partition(4, 1, seed=0)
        cfg = DgfmPlusConfig(eta=1e-300, delta=0.05, iters=12, seed=9,
                             period=6, batch=2, mega_batch=8)
        state = NetworkState.initial(1, np.ones(3))
        v_restart = None
        for k in range(12):
            step(state, mat, part, obj, cfg)
            if k % 6 == 0:
                v_restart = state.v.copy()
            else:
                assert np.array_equal(state.v, v_restart)

    def test_restart_consensus_bound(self):
        # post-gossip tracking deviation stays within the moment-based bound
        obj = AbsTest(6, n_samples=8)
        ring = build_ring(8)
        part = partition(8, 8, seed=3)
        gossip_rounds = 3
        cfg = DgfmPlusConfig(eta=0.01, delta=0.05, iters=200, seed=4,
                             period=10, batch=2, mega_batch=16,
                             gossip_rounds=gossip_rounds)
        _, record = dgfm_plus_run(ring, part, obj, cfg,
                                  stationarity_every=0, keep_iterates=False)
        assert len(record.restarts) >= 20
        lip_hat = obj.lipschitz_hint
        sigma_hat = sigma_squared(6, lip_hat)
        bound = 2 * ring.rho**gossip_rounds * 8 * (sigma_hat + lip_hat**2) * 1.5
        for restart in record.restarts:
            assert restart["tracking_consensus"][-1] <= bound


class TestDegenerations:
    # gfm_run is the step on one agent with partition(n_samples, 1, seed):
    # `centralized_trajectory` drives that step directly, and each test also
    # checks that both runs keep the same output, the trajectories' row at k*
    def test_single_agent_equals_centralized_on_quadratic(self):
        obj = QuadraticTest(dim=5)
        cfg = DgfmConfig(eta=0.05, delta=0.01, iters=60, seed=7, batch=1)
        part = partition(obj.n_samples, 1, seed=7)
        traj_d = step_trajectory(build_complete(1), part, obj, cfg, np.ones(5))
        traj_g = centralized_trajectory(obj, cfg, np.ones(5))
        assert len(traj_d) == len(traj_g) == 60
        assert all(np.array_equal(xa, xb) for xa, xb in zip(traj_d, traj_g))
        _, rec_d = dgfm_run(build_complete(1), part, obj, cfg, x0=np.ones(5),
                            stationarity_every=0)
        rec_g = gfm_run(obj, cfg, x0=np.ones(5), stationarity_every=0)
        assert np.array_equal(select_output(rec_d), select_output(rec_g))
        assert np.array_equal(rec_d.snapshots[0][1], output_candidate(rec_d, traj_d))
        assert [e.loss for e in rec_d.entries] == [e.loss for e in rec_g.entries]

    def test_single_agent_equals_centralized_on_svm(self, small_svm_objective):
        obj = small_svm_objective
        cfg = DgfmConfig(eta=0.01, delta=0.001, iters=40, seed=13, batch=1)
        part = partition(obj.n_samples, 1, seed=13)
        x0 = np.zeros(obj.dim)
        traj_d = step_trajectory(build_complete(1), part, obj, cfg, x0)
        traj_g = centralized_trajectory(obj, cfg, x0)
        assert len(traj_d) == len(traj_g) == 40
        assert all(np.array_equal(xa, xb) for xa, xb in zip(traj_d, traj_g))
        _, rec_d = dgfm_run(build_complete(1), part, obj, cfg, stationarity_every=0)
        rec_g = gfm_run(obj, cfg, stationarity_every=0)
        assert np.array_equal(select_output(rec_d), select_output(rec_g))
        assert np.array_equal(rec_g.snapshots[0][1], output_candidate(rec_g, traj_g))

    def test_plus_with_period_one_equals_plain_at_mega_batch(self):
        obj = QuadraticTest(4, n_samples=10)
        cfg_plus = DgfmPlusConfig(eta=0.05, delta=0.01, iters=30, seed=3,
                                  period=1, batch=2, mega_batch=8)
        cfg_plain = DgfmConfig(eta=0.05, delta=0.01, iters=30, seed=3, batch=8)
        traj_p = centralized_trajectory(obj, cfg_plus, np.ones(4))
        traj_g = centralized_trajectory(obj, cfg_plain, np.ones(4))
        assert len(traj_p) == len(traj_g) == 30
        assert all(np.array_equal(xa, xb) for xa, xb in zip(traj_p, traj_g))
        rec_p = gfm_plus_run(obj, cfg_plus, x0=np.ones(4), stationarity_every=0)
        rec_g = gfm_run(obj, cfg_plain, x0=np.ones(4), stationarity_every=0)
        assert np.array_equal(select_output(rec_p), select_output(rec_g))
        assert np.array_equal(rec_p.snapshots[0][1], output_candidate(rec_p, traj_p))


class TestRuns:
    def test_zero_iterations_returns_initial(self):
        obj = QuadraticTest(dim=3)
        cfg = DgfmConfig(eta=0.1, delta=0.1, iters=0, seed=0)
        part = partition(1, 1, seed=0)
        state, record = dgfm_run(build_complete(1), part, obj, cfg, x0=np.ones(3))
        assert state.k == 0
        assert np.array_equal(state.x, np.ones((1, 3)))
        assert record.entries == []

    def test_gfm_quadratic_descends(self):
        obj = QuadraticTest(dim=10)
        finals = []
        for seed in range(5):
            cfg = DgfmConfig(eta=0.1, delta=0.01, iters=200, seed=seed, batch=64)
            rec = gfm_run(obj, cfg, x0=np.ones(10), record_every=50,
                          stationarity_every=0, keep_iterates=False)
            finals.append(rec.final_loss)
        assert np.median(finals) < obj.full_loss(np.ones(10))
        assert np.median(finals) < 1.0

    @pytest.mark.slow
    def test_gfm_plus_more_stable_than_gfm(self):
        # across-seed loss spread at matched oracle budget: the recursive
        # estimator should beat the single-pair baseline at >= 70% of points
        from conftest import synthetic_svm_text
        from dgfm import CappedL1Svm, normalize_rows, parse_libsvm

        ds = normalize_rows(parse_libsvm(synthetic_svm_text(n=500, d=60, nnz=8, seed=11)))
        obj = CappedL1Svm.from_dataset(ds)
        budget = 20_000
        plain_recs, plus_recs = [], []
        for seed in range(5):
            cfg = DgfmConfig(eta=0.005, delta=1e-3, iters=budget // 2, seed=seed, batch=1)
            plain_recs.append(gfm_run(obj, cfg, record_every=100,
                                      stationarity_every=0, keep_iterates=False))
            period, mega, batch = 20, 40, 1
            per_cycle = 2 * mega + (period - 1) * 4 * batch
            iters = int(budget / per_cycle * period)
            cfgp = DgfmPlusConfig(eta=0.005, delta=1e-3, iters=iters, seed=seed,
                                  period=period, batch=batch, mega_batch=mega)
            plus_recs.append(gfm_plus_run(obj, cfgp, record_every=100,
                                          stationarity_every=0, keep_iterates=False))
        grid = np.arange(2_000, budget + 1, 1_000)
        wins = 0
        for g in grid:
            s_plain = np.std([r.loss_at_budget(g) for r in plain_recs])
            s_plus = np.std([r.loss_at_budget(g) for r in plus_recs])
            wins += s_plus <= s_plain
        assert wins / len(grid) >= 0.7

    @pytest.mark.parametrize("run", ["dgfm_run", "gfm_run"])
    def test_x0_of_the_wrong_length_is_rejected(self, run, small_svm_objective):
        for obj in (QuadraticTest(dim=6, n_samples=4), small_svm_objective):
            with pytest.raises(ShapeError, match="x0 must have shape"):
                run_briefly(run, obj, x0=np.ones(obj.dim - 1))

    @pytest.mark.parametrize("config, field", [
        *((DgfmConfig, field) for field in ("eta", "delta", "batch")),
        *((DgfmPlusConfig, field)
          for field in ("eta", "delta", "batch", "period", "mega_batch", "gossip_rounds"))])
    def test_infinite_config_value_is_rejected(self, config, field):
        fields = dict(eta=0.1, delta=0.01, iters=3, seed=0, batch=1)
        if config is DgfmPlusConfig:
            fields.update(period=2, mega_batch=2)
        with pytest.raises(InvalidParameter, match=f"{field} must be positive and finite"):
            config(**{**fields, field: math.inf})

    @pytest.mark.parametrize("config, field", [
        *((DgfmConfig, field) for field in ("iters", "seed", "batch")),
        *((DgfmPlusConfig, field)
          for field in ("iters", "seed", "batch", "period", "mega_batch", "gossip_rounds"))])
    def test_non_integer_config_value_is_rejected(self, config, field):
        fields = dict(eta=0.1, delta=0.01, iters=3, seed=0, batch=1)
        if config is DgfmPlusConfig:
            fields.update(period=2, mega_batch=2)
        for value in (2.5, 2.0, np.float64(2.0)):
            with pytest.raises(InvalidParameter, match=f"{field} must be an integer, got"):
                config(**{**fields, field: value})

    def test_numpy_integer_config_values_are_accepted(self, tmp_path):
        # int16: the draw's b * d = 2 * 20000 would overflow in numpy's width
        cfg = DgfmPlusConfig(eta=0.1, delta=0.01, iters=np.int64(3), seed=np.uint32(1),
                             period=np.int32(2), batch=np.int64(1), mega_batch=np.int16(2),
                             gossip_rounds=np.int64(2))
        record = gfm_run(QuadraticTest(dim=20_000), cfg, stationarity_every=0)
        assert [e.iteration for e in record.entries] == [1, 2, 3]
        assert len(record.restarts) == 2
        write_records([record], tmp_path / "run.json", format="json")
        assert record.metadata["config"]["mega_batch"] == 2

    @pytest.mark.parametrize("run", ["dgfm_run", "gfm_run"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_is_rejected(self, run, bad):
        x0 = np.array([0.5, bad, 1.0])
        with pytest.raises(InvalidParameter, match=f"x0 must be finite, got {bad} at index 1"):
            run_briefly(run, QuadraticTest(dim=3, n_samples=4), x0=x0)

    @pytest.mark.parametrize("run", ["dgfm_run", "gfm_run"])
    def test_record_every_below_one_is_rejected(self, run):
        with pytest.raises(InvalidParameter, match="record_every"):
            run_briefly(run, QuadraticTest(dim=3, n_samples=4), record_every=0)

    @pytest.mark.parametrize("run", ["dgfm_run", "gfm_run"])
    def test_negative_stationarity_every_is_rejected(self, run):
        with pytest.raises(InvalidParameter, match="stationarity_every"):
            run_briefly(run, QuadraticTest(dim=3, n_samples=4), stationarity_every=-2)

    @pytest.mark.parametrize("topology", [build_ring(4).weights, None], ids=["ndarray", "None"])
    def test_topology_that_is_not_a_mixing_matrix_is_rejected(self, topology):
        obj = QuadraticTest(dim=3, n_samples=4)
        part = partition(4, 4, seed=0)
        cfg = DgfmConfig(eta=0.01, delta=0.01, iters=3, seed=0)
        name = type(topology).__name__
        with pytest.raises(InvalidTopology, match=f"MixingMatrix, got {name}; build one with"):
            dgfm_run(topology, part, obj, cfg)
        with pytest.raises(InvalidTopology, match=f"got {name}"):
            step(NetworkState.initial(4, np.zeros(3)), topology, part, obj, cfg)

    @pytest.mark.parametrize(
        "n_samples, covered, agents", [(8, 8, 3), (8, 8, 5), (6, 4, 4), (4, 8, 4)],
        ids=["too-few-agents", "too-many-agents", "too-few-samples", "too-many-samples"])
    def test_partition_that_does_not_fit_the_run_is_rejected(self, n_samples, covered, agents):
        obj = QuadraticTest(dim=3, n_samples=n_samples)
        part = partition(covered, agents, seed=0)
        cfg = DgfmConfig(eta=0.01, delta=0.01, iters=50, seed=0)
        match = (f"partition has {agents} agents and {covered} samples; "
                 f"the run has 4 agents and {n_samples} samples")
        state = NetworkState.initial(4, np.zeros(3))
        with pytest.raises(ShapeError, match=match):
            step(state, build_ring(4), part, obj, cfg)
        assert state.k == 0 and state.oracle_calls == 0
        with pytest.raises(ShapeError, match=match):
            dgfm_run(build_ring(4), part, obj, cfg)

    def test_determinism_bit_identical(self):
        obj = QuadraticTest(3, n_samples=8)
        ring = build_ring(4)
        part = partition(8, 4, seed=2)
        cfg = DgfmConfig(eta=0.02, delta=0.01, iters=30, seed=21)
        _, rec1 = dgfm_run(ring, part, obj, cfg, x0=np.ones(3))
        _, rec2 = dgfm_run(ring, part, obj, cfg, x0=np.ones(3))
        assert records_match(rec1, rec2)


class TestSelectOutput:
    @staticmethod
    def ring_run(iters, seed=0, record_every=1, keep_iterates=True, d=3):
        obj = QuadraticTest(d, n_samples=8)
        cfg = DgfmConfig(eta=0.02, delta=0.01, iters=iters, seed=seed)
        return dgfm_run(build_ring(4), partition(8, 4, seed=seed), obj, cfg, x0=np.ones(d),
                        record_every=record_every, stationarity_every=0,
                        keep_iterates=keep_iterates)[1]

    def test_single_iterate(self):
        # one agent, one recorded iteration: the one candidate, returned as a copy
        obj = QuadraticTest(dim=3)
        cfg = DgfmConfig(eta=0.05, delta=0.01, iters=1, seed=0)
        record = gfm_run(obj, cfg, x0=np.ones(3), stationarity_every=0)
        out = select_output(record)
        assert out.tobytes() == centralized_trajectory(obj, cfg, np.ones(3))[0][0].tobytes()
        out += 1.0
        assert not np.array_equal(out, select_output(record))

    def test_uniform_frequencies(self):
        counts = np.zeros(10)
        for seed in range(10_000):
            counts[_draw_output(seed, 10)] += 1
        assert np.all(np.abs(counts - 1000) <= 150)

    def test_deterministic_in_seed(self):
        assert np.array_equal(select_output(self.ring_run(12, seed=99)),
                              select_output(self.ring_run(12, seed=99)))

    @pytest.mark.parametrize("iters", [10, 1000])
    def test_keeps_one_iterate(self, iters):
        d = 5
        record = self.ring_run(iters, d=d)
        assert sum(x.nbytes for _, x in record.snapshots) == 8 * d

    def test_full_trajectory_snapshots(self):
        obj = QuadraticTest(dim=3)
        cfg = DgfmConfig(eta=0.05, delta=0.01, iters=30, seed=2)
        part = partition(1, 1, seed=2)
        _, sparse = dgfm_run(build_complete(1), part, obj, cfg, x0=np.ones(3),
                             record_every=10, stationarity_every=0)
        assert len(sparse.entries) == 3
        # the kept iterate is the step-driven trajectory's at a recorded iteration
        traj = step_trajectory(build_complete(1), part, obj, cfg, np.ones(3))
        assert sparse.snapshots[0][0] in (10, 20, 30)
        assert np.array_equal(sparse.snapshots[0][1], output_candidate(sparse, traj, 10))

    def test_keep_iterates_off_keeps_nothing(self):
        record = self.ring_run(10, keep_iterates=False)
        assert record.snapshots == []
        with pytest.raises(EmptyTrajectory):
            select_output(record)

    def test_fewer_iterations_than_record_every(self):
        record = self.ring_run(4, record_every=5)
        assert record.entries == [] and record.snapshots == []
        with pytest.raises(EmptyTrajectory):
            select_output(record)

    def test_empty_trajectory(self):
        with pytest.raises(EmptyTrajectory):
            select_output(RunRecord())


class TestTheoremParams:
    def test_alpha_at_reference_rho(self):
        p = theorem_params_dgfm(rho=1 / math.sqrt(3), lipschitz=1.0, d=10,
                                delta=0.01, epsilon=0.1, m=8, value_gap=5.0)
        assert p.alpha_1 == pytest.approx(1.0, rel=1e-12)
        assert p.alpha_2 == p.alpha_1

    def test_iteration_budget_covers_gap(self):
        p = theorem_params_dgfm(rho=0.5, lipschitz=1.0, d=10, delta=0.01,
                                epsilon=0.1, m=8, value_gap=5.0)
        assert p.iterations * p.eta * 0.1**2 >= 32 * 5.0 * (1 - 1e-12)

    def test_gap_doubling_doubles_iteration_bound(self):
        kwargs = dict(rho=0.5, lipschitz=1.0, d=10, delta=0.01, epsilon=0.1, m=8)
        p1 = theorem_params_dgfm(value_gap=5.0, **kwargs)
        p2 = theorem_params_dgfm(value_gap=10.0, **kwargs)
        assert p2.eta == p1.eta
        assert p2.iterations_bound == 2 * p1.iterations_bound

    def test_eta_respects_each_clause(self):
        rho, lip, d, delta, eps, m = 0.7, 2.0, 20, 0.005, 0.05, 10
        p = theorem_params_dgfm(rho, lip, d, delta, eps, m, value_gap=3.0)
        r2 = rho**2
        sigma = math.sqrt(p.sigma_sq)
        assert p.eta <= (1 - r2) ** 2 / (48 * sigma * (1 + r2) * r2) * eps / p.l_delta * (1 + 1e-12)
        assert p.eta <= eps**2 / (32 * p.l_delta * (p.sigma_sq + lip)) * (1 + 1e-12)
        assert p.eta <= 8 * math.sqrt(6 * m * p.sigma_sq) / (eps * p.l_delta) * (1 + 1e-12)

    def test_plus_prescription(self):
        rho, lip, d, delta, eps, m, c = 0.5, 1.0, 10, 0.01, 0.1, 8, 1.0
        p = theorem_params_dgfm_plus(rho, lip, d, delta, eps, m, value_gap=5.0, c=c)
        assert p.period >= c**2 / (2 * delta)
        assert p.eta <= 0.5 / p.l_delta * (1 + 1e-12)
        assert p.batch == math.ceil(d / (m * eps))
        assert p.mega_batch == math.ceil(p.sigma_sq / (12 * eps**2))
        # independent recomputation of the gossip-round prescription
        expected = (math.log(c**2 * eps)
                    - math.log(36 * (p.sigma_sq + lip**2) * (1 - rho**2))) / math.log(rho) + 2
        assert p.gossip_rounds == math.ceil(expected)
        assert p.iterations == p.cycles * p.period
        assert p.mega_batch >= p.batch  # holds for eps this small

    def test_plus_gossip_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            p = theorem_params_dgfm_plus(rho=0.999, lipschitz=1.0, d=1, delta=0.5,
                                         epsilon=5.0, m=2, value_gap=1.0)
        assert p.gossip_rounds == 1

    def test_rho_bounds(self):
        for rho in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidParameter):
                theorem_params_dgfm(rho, 1.0, 5, 0.01, 0.1, 4, 1.0)

    @pytest.mark.parametrize("name", ["lipschitz", "delta", "epsilon", "value_gap"])
    def test_infinite_input_is_rejected(self, name):
        inputs = dict(rho=0.5, lipschitz=1.0, d=5, delta=0.01, epsilon=0.1, m=4, value_gap=1.0)
        for prescribe in (theorem_params_dgfm, theorem_params_dgfm_plus):
            with pytest.raises(InvalidParameter, match=f"{name} must be positive and finite"):
                prescribe(**{**inputs, name: math.inf})

    def test_surrogate_smoothness_feeds_in(self):
        p = theorem_params_dgfm(0.5, 2.0, 16, 0.02, 0.1, 4, 1.0, c=3.0)
        assert p.l_delta == pytest.approx(surrogate_smoothness(16, 2.0, 0.02, 3.0))


def test_lipschitz_estimate_supports_theorem_inputs(small_svm_objective):
    est = estimate_lipschitz(small_svm_objective, probes=300, radius=1.0, rng=substream(4, 8))
    assert 0.0 < est <= small_svm_objective.lipschitz_hint * (1 + 1e-9)
