import importlib.util
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from bifr import engine, prng
from bifr.calibration import PrivacyBudget
from bifr.catalog import FactorizationSpec, Method, inverse_coeffs, strategy_coeffs
from bifr.engine import (
    CorrelatorState,
    UnsupportedMethodError,
    clip_and_aggregate,
    engine_dense_reference,
    engine_init,
    engine_step,
    private_step,
    run_prefix_release,
)
from bifr.metrics import rmse
from bifr.prng import GaussianStream, StateToken
from bifr.sensitivity import ParticipationSchema

from buffered_reference import buffered_noise


def bifr_spec(n=64, gamma=0.5, p=4):
    return FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)


def collect(state, n, dim):
    return np.array([engine_step(state, np.zeros(dim)) for _ in range(n)])


def record_fills(monkeypatch):
    """(first counter, draws) of every fill, from any thread."""
    fills = []
    fill = GaussianStream.fill

    def recording_fill(gen, out):
        fills.append((gen.get_state().counter, out.size))
        return fill(gen, out)

    monkeypatch.setattr(GaussianStream, "fill", recording_fill)
    return fills


def record_seeks(monkeypatch):
    """One entry per ``set_state`` call, from any thread."""
    seeks = []
    set_state = GaussianStream.set_state

    def recording_set_state(gen, token):
        seeks.append(token.counter)
        return set_state(gen, token)

    monkeypatch.setattr(GaussianStream, "set_state", recording_set_state)
    return seeks


def slab_pieces(state):
    """Fills per window row of a row-per-fill step.

    Each of the k slabs fills its part of the row in pieces of
    min(ceil(dim / k), 2^16 // k) draws, the last one ragged.
    """
    k = len(state._slabs)
    piece = min(-(-state.dim // k), (1 << 16) // k)
    return sum(math.ceil((hi - lo) / piece) for lo, hi, _ in state._slabs)


def assert_covers_once(fills, lo, hi):
    """The fills draw every counter of [lo, hi) once and none outside it."""
    ranges = sorted(fills)
    assert ranges[0][0] == lo
    for (a, m), (b, _) in zip(ranges, ranges[1:]):
        assert a + m == b
    assert ranges[-1][0] + ranges[-1][1] == hi


class TestInit:
    def test_rejects_unbanded_inverse(self):
        for kw in (
            dict(method=Method.GAMMA_BFR, n=8, gamma=0.5, bandwidth=2),
            dict(method=Method.INV_DECAY, n=8, c=0.0, bandwidth=3),
        ):
            with pytest.raises(UnsupportedMethodError):
                engine_init(FactorizationSpec(**kw), dim=2, noise_scale=1.0, seed=0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            engine_init(bifr_spec(), dim=0, noise_scale=1.0, seed=0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_scale_that_releases_no_privacy(self, scale):
        with pytest.raises(ValueError, match="noise_scale"):
            engine_init(bifr_spec(), dim=2, noise_scale=scale, seed=0)

    def test_direct_construction_is_checked(self):
        origin = GaussianStream.from_seed(0).get_state()
        kw = dict(spec=bifr_spec(), dim=2, noise_scale=1.0, origin=origin)
        unbanded = FactorizationSpec(method=Method.GAMMA_BFR, n=8, gamma=0.5, bandwidth=2)
        with pytest.raises(UnsupportedMethodError):
            CorrelatorState(**{**kw, "spec": unbanded})
        for bad in (dict(dim=0), dict(noise_scale=math.nan)):
            with pytest.raises(ValueError):
                CorrelatorState(**{**kw, **bad})

    def test_origin_is_the_seed_state(self):
        state = engine_init(bifr_spec(p=5), dim=2, noise_scale=1.0, seed=0)
        assert state.origin == GaussianStream.from_seed(0).get_state()
        assert state.step == 0

    def test_unseeded_engines_release_different_noise(self):
        spec = bifr_spec(n=8, p=3)
        a, b = (engine_init(spec, 4, 1.0) for _ in range(2))
        assert a.origin.key != b.origin.key
        assert a.origin.counter == b.origin.counter == 0
        assert not np.any(collect(a, 8, 4) == collect(b, 8, 4))
        # a fixed seed is still the reproducible choice
        fixed = collect(engine_init(spec, 4, 1.0, seed=3), 8, 4)
        np.testing.assert_array_equal(fixed, engine_dense_reference(spec, 4, 1.0, 3, 8))


class TestStep:
    def test_identity_is_fresh_noise(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=8)
        state = engine_init(spec, dim=3, noise_scale=2.0, seed=5)
        outs = collect(state, 8, 3)
        Z = GaussianStream.from_seed(5).normal((8, 3))
        np.testing.assert_array_equal(outs, 2.0 * Z)

    def test_one_step_correlation(self):
        lam = 0.7
        spec = FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=8, lam=lam)
        state = engine_init(spec, dim=2, noise_scale=1.5, seed=9)
        outs = collect(state, 8, 2)
        Z = GaussianStream.from_seed(9).normal((8, 2))
        expected = 1.5 * Z.copy()
        expected[1:] += 1.5 * (-lam) * Z[:-1]
        np.testing.assert_allclose(outs, expected, atol=1e-12)

    def test_adds_input(self):
        spec = bifr_spec(n=16)
        noise = collect(engine_init(spec, dim=3, noise_scale=1.0, seed=1), 16, 3)
        state = engine_init(spec, dim=3, noise_scale=1.0, seed=1)
        xs = np.arange(48, dtype=np.float64).reshape(16, 3)
        outs = np.array([engine_step(state, x) for x in xs])
        np.testing.assert_allclose(outs, xs + noise, atol=1e-12)

    def test_dim_mismatch(self):
        state = engine_init(bifr_spec(), dim=3, noise_scale=1.0, seed=0)
        with pytest.raises(ValueError):
            engine_step(state, np.zeros(4))

    def test_refuses_to_step_past_horizon(self):
        state = engine_init(bifr_spec(n=4), 2, 1.0, 0)
        collect(state, 4, 2)
        with pytest.raises(ValueError, match="horizon"):
            engine_step(state, np.zeros(2))
        assert state.step == 4

    def test_refuses_negative_step(self):
        # rows = min(-1, p-1) + 1 = 0: such a step would release x with no noise
        state = engine_init(bifr_spec(n=4), 3, 1.0, 0)
        state.step = -1
        out = np.full(3, 7.0)
        with pytest.raises(ValueError, match="horizon"):
            engine_step(state, np.array([1.0, 2.0, 3.0]), out=out)
        np.testing.assert_array_equal(out, 7.0)
        assert state.step == -1

    def test_out_buffer_reused(self):
        state = engine_init(bifr_spec(), dim=3, noise_scale=1.0, seed=0)
        out = np.empty(3)
        ret = engine_step(state, np.zeros(3), out=out)
        assert ret is out


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "spec_kw",
        [
            dict(method=Method.GAMMA_BIFR, n=96, gamma=0.3, bandwidth=4),
            dict(method=Method.GAMMA_BIFR, n=64, gamma=0.5, bandwidth=16),
            dict(method=Method.BISR, n=64, bandwidth=2),
            dict(method=Method.DP_LAMBDA_CGD, n=64, lam=0.5),
            dict(method=Method.IDENTITY, n=32),
        ],
    )
    def test_streaming_equals_dense_and_buffered(self, seed, spec_kw):
        spec = FactorizationSpec(**spec_kw)
        dim = 8
        scale = 1.7
        streaming = collect(engine_init(spec, dim, scale, seed), spec.n, dim)
        buffered = buffered_noise(spec, dim, scale, seed, spec.n)
        dense = engine_dense_reference(spec, dim, scale, seed, spec.n)
        np.testing.assert_array_equal(streaming, dense)
        np.testing.assert_array_equal(streaming, buffered)

    @pytest.mark.parametrize(
        "spec_kw, dim",
        [
            # window of 15 rows drawn 4 rows per fill: chunks of 4, 4, 4 and 3
            (dict(method=Method.GAMMA_BIFR, n=40, gamma=0.55, bandwidth=15), 1000),
            # one row per fill
            (dict(method=Method.GAMMA_BIFR, n=12, gamma=0.55, bandwidth=4), 4096),
            (dict(method=Method.GAMMA_BIFR, n=12, gamma=0.55, bandwidth=4), 4097),
            # no window: fresh noise only
            (dict(method=Method.GAMMA_BIFR, n=12, gamma=0.55, bandwidth=1), 1000),
            (dict(method=Method.IDENTITY, n=12), 4097),
            # 64 narrow rows in one accumulate: a pairwise reduction changes bits
            (dict(method=Method.GAMMA_BIFR, n=160, gamma=0.55, bandwidth=64), 1),
            (dict(method=Method.GAMMA_BIFR, n=160, gamma=0.55, bandwidth=64), 2),
            # rows drawn in 2^16-draw pieces, the last one ragged or full
            (dict(method=Method.GAMMA_BIFR, n=6, gamma=0.55, bandwidth=4), (1 << 16) + 3),
            (dict(method=Method.GAMMA_BIFR, n=6, gamma=0.55, bandwidth=4), 3 << 16),
            (dict(method=Method.DP_LAMBDA_CGD, n=6, lam=0.6), (1 << 16) + 3),
            (dict(method=Method.DP_LAMBDA_CGD, n=6, lam=0.6), 3 << 16),
            (dict(method=Method.IDENTITY, n=6), (1 << 16) + 3),
            (dict(method=Method.IDENTITY, n=6), 3 << 16),
        ],
    )
    def test_wide_window_equals_dense_and_buffered(self, monkeypatch, spec_kw, dim):
        monkeypatch.setattr(engine, "DENSE_REFERENCE_DIM_CAP", dim)
        spec = FactorizationSpec(**spec_kw)
        scale = 0.9
        streaming = collect(engine_init(spec, dim, scale, 5), spec.n, dim)
        buffered = buffered_noise(spec, dim, scale, 5, spec.n)
        dense = engine_dense_reference(spec, dim, scale, 5, spec.n)
        np.testing.assert_array_equal(streaming, dense)
        np.testing.assert_array_equal(streaming, buffered)

    @pytest.mark.parametrize(
        "p, dim",
        [(16, 8), (64, 64), (15, 1000), (4, 4097), (4, (1 << 16) + 3), (3, 3 << 16)],
    )
    def test_window_fill_calls_and_draws(self, monkeypatch, p, dim):
        """Each step fills its window by blocks of rows after one seek, or by column slabs."""
        fills = record_fills(monkeypatch)
        seeks = record_seeks(monkeypatch)
        state = engine_init(bifr_spec(n=2 * p, p=p), dim, 1.0, 0)
        per = max(1, 4096 // dim)
        origin = state.origin.counter
        for i in range(2 * p):
            fills.clear()
            seeks.clear()
            engine_step(state, np.zeros(dim))
            rows = min(i, p - 1) + 1
            sizes = [m for _, m in fills]
            assert sum(sizes) == rows * dim
            assert max(sizes) <= 1 << 16
            if per > 1:
                assert len(sizes) == (1 if p * dim <= 4096 else math.ceil(rows / per))
                assert len(seeks) == 1
            else:
                # each slab seeks once per row and fills the row in whole pieces
                assert len(sizes) == rows * slab_pieces(state)
                assert len(seeks) == rows * len(state._slabs)
                assert_covers_once(fills, origin + (i + 1 - rows) * dim, origin + (i + 1) * dim)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "p, dim", [(1, 5), (4, 4097), (2, 3 << 13), (3, (1 << 16) + 3), (2, 3 << 16)]
    )
    def test_slab_fills_cover_the_window_once(self, monkeypatch, cpus, p, dim):
        """Step i's slabs draw [origin+(i-rows+1)*d, origin+(i+1)*d), each counter once."""
        monkeypatch.setattr(prng, "_cpu_count", lambda: cpus)
        fills = record_fills(monkeypatch)
        seeks = record_seeks(monkeypatch)
        state = engine_init(bifr_spec(n=2 * p, p=p), dim, 1.0, 0)
        k = len(state._slabs)
        assert k == max(1, min(cpus, dim // prng._PARALLEL_MIN_DRAWS))
        origin = state.origin.counter
        for i in range(2 * p):
            fills.clear()
            seeks.clear()
            engine_step(state, np.zeros(dim))
            rows = min(i, p - 1) + 1
            assert_covers_once(fills, origin + (i + 1 - rows) * dim, origin + (i + 1) * dim)
            assert max(m for _, m in fills) <= (1 << 16) // k
            assert len(fills) == rows * slab_pieces(state)
            assert len(seeks) == rows * k

    def test_more_slabs_than_cores_equal_dense(self, monkeypatch):
        """Eight slabs on a fill pool larger than the host, switching threads often."""
        monkeypatch.setattr(prng, "_cpu_count", lambda: 8)
        spec = bifr_spec(n=6, gamma=0.6, p=3)
        dim = 8 * prng._PARALLEL_MIN_DRAWS + 5
        monkeypatch.setattr(engine, "DENSE_REFERENCE_DIM_CAP", dim)
        dense = engine_dense_reference(spec, dim, 1.1, 4, spec.n)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            for _ in range(3):
                state = engine_init(spec, dim, 1.1, 4)
                assert len(state._slabs) == 8
                np.testing.assert_array_equal(collect(state, spec.n, dim), dense)
            assert time.perf_counter() - t0 < 60
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_wide_step_hands_off_once_per_slab(self, monkeypatch, cpus):
        """A wide step submits its k-1 pool slabs and nothing else, never from a task."""
        monkeypatch.setattr(prng, "_cpu_count", lambda: cpus)
        executor = prng._executor
        submits = []

        class CountingPool:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, fn, *args):
                # refuse a submit from inside a task: it could wait on its own pool
                thread = threading.current_thread()
                submits.append(thread)
                if thread is not threading.main_thread() or len(submits) >= cpus:
                    raise AssertionError("a fill inside a slab task submitted to the pool")
                return self.pool.submit(fn, *args)

        monkeypatch.setattr(prng, "_executor", lambda threads: CountingPool(executor(threads)))
        dim = (1 << 16) + 3  # slab pieces of >= 2^14 draws would split outside a task
        state = engine_init(bifr_spec(n=8, p=4), dim, 1.0, 0)
        for _ in range(8):
            submits.clear()
            engine_step(state, np.zeros(dim))
            assert submits == [threading.main_thread()] * (cpus - 1)

    def test_steps_inside_run_tasks_stay_on_their_thread(self, monkeypatch):
        """Two wide engines stepped in parallel by run_tasks, on a pool of one thread."""
        monkeypatch.setattr(prng, "_cpu_count", lambda: 2)
        spec = bifr_spec(n=6, gamma=0.6, p=3)
        dim = (1 << 16) + 3
        seeds = (4, 9)
        expected = [collect(engine_init(spec, dim, 1.1, seed), spec.n, dim) for seed in seeds]
        pool = ThreadPoolExecutor(1, "one-thread")
        submits = []

        class OneThreadPool:
            def submit(self, fn, *args):
                # a task's submit could wait on the one thread that task holds
                submits.append(prng._task.active)
                if prng._task.active:
                    raise AssertionError("a task submitted to the pool it may occupy")
                return pool.submit(fn, *args)

        monkeypatch.setattr(prng, "_executor", lambda threads: OneThreadPool())
        states = [engine_init(spec, dim, 1.1, seed) for seed in seeds]
        assert [len(state._slabs) for state in states] == [2, 2]
        outs = np.empty((2, spec.n, dim))
        try:
            for i in range(spec.n):
                prng.run_tasks(
                    lambda j: engine_step(states[j], np.zeros(dim), out=outs[j, i]), 2
                )
        finally:
            pool.shutdown()
        assert submits == [False] * spec.n
        np.testing.assert_array_equal(outs, expected)

    @pytest.mark.parametrize(
        "spec",
        [bifr_spec(n=32, p=5), FactorizationSpec(method=Method.IDENTITY, n=32)],
        ids=["gamma-bifr-p5", "identity"],
    )
    def test_resume_from_serialized_origin(self, spec):
        """An engine rebuilt from the origin's bytes and the step continues identically."""
        full = collect(engine_init(spec, 4, 1.0, 3), 32, 4)
        state = engine_init(spec, 4, 1.0, 3)
        for _ in range(20):
            engine_step(state, np.zeros(4))
        resumed = CorrelatorState(
            spec=spec,
            dim=4,
            noise_scale=1.0,
            origin=StateToken.from_bytes(state.origin.to_bytes()),
            step=20,
        )
        tail = collect(resumed, 12, 4)
        np.testing.assert_array_equal(tail, full[20:])

    def test_failed_step_can_be_retried(self, monkeypatch):
        """A step whose fill raises leaves the state as it was, so a retry matches."""
        spec = bifr_spec(n=32, gamma=0.5, p=4)
        dim = 3
        calls = 0
        fill = GaussianStream.fill

        def failing_fill(gen, out):
            nonlocal calls
            calls += 1
            if calls == 11:
                raise RuntimeError("injected fill failure")
            return fill(gen, out)

        monkeypatch.setattr(GaussianStream, "fill", failing_fill)
        state = engine_init(spec, dim, 1.3, 6)
        outs = []
        failures = 0
        while state.step < spec.n:
            step = state.step
            try:
                outs.append(engine_step(state, np.zeros(dim)))
            except RuntimeError:
                failures += 1
                assert state.step == step
        assert failures == 1
        dense = engine_dense_reference(spec, dim, 1.3, 6, spec.n)
        np.testing.assert_array_equal(np.array(outs), dense)

    def test_failed_piece_inside_a_row_can_be_retried(self, monkeypatch):
        """A fill that raises inside a row, on this thread or a pool thread, can be retried."""
        spec = bifr_spec(n=6, gamma=0.5, p=4)
        dim = 3 * engine._PIECE_DRAWS  # each row is three pieces on one slab
        monkeypatch.setattr(engine, "DENSE_REFERENCE_DIM_CAP", dim)
        dense = engine_dense_reference(spec, dim, 1.3, 6, spec.n)
        fill = GaussianStream.fill
        calls = 0

        def middle_piece(state):
            # one slab: step 2 fills calls 10..18, three rows of three pieces;
            # call 14 is the middle piece of its middle row
            nonlocal calls
            calls += 1
            return calls == 14

        def pool_slab(state):
            # two slabs: the pool thread's first fill of step 2
            return state.step == 2 and threading.current_thread() is not threading.main_thread()

        for cpus, fails in ((1, middle_piece), (2, pool_slab)):
            monkeypatch.setattr(prng, "_cpu_count", lambda: cpus)
            state = engine_init(spec, dim, 1.3, 6)
            assert len(state._slabs) == cpus
            failed = []

            def failing_fill(gen, out):
                if not failed and fails(state):
                    failed.append(threading.current_thread())
                    raise RuntimeError("injected fill failure")
                return fill(gen, out)

            monkeypatch.setattr(GaussianStream, "fill", failing_fill)
            x = np.zeros(dim)
            out = np.empty(dim)
            outs = []
            failures = 0
            while state.step < spec.n:
                step = state.step
                try:
                    outs.append(engine_step(state, x, out=out).copy())
                except RuntimeError:
                    failures += 1
                    assert state.step == step == 2
            assert failures == 1
            assert (failed[0] is threading.main_thread()) == (cpus == 1)
            np.testing.assert_array_equal(np.array(outs), dense)
            if cpus == 1:
                np.testing.assert_array_equal(
                    np.array(outs), buffered_noise(spec, dim, 1.3, 6, spec.n)
                )
            monkeypatch.setattr(GaussianStream, "fill", fill)


class TestDenseReference:
    def test_caps(self):
        with pytest.raises(ValueError):
            engine_dense_reference(bifr_spec(n=2048, p=2), 2, 1.0, 0, 2000)
        with pytest.raises(ValueError):
            engine_dense_reference(bifr_spec(), 128, 1.0, 0, 8)
        with pytest.raises(ValueError):
            engine_dense_reference(bifr_spec(n=16), 2, 1.0, 0, 17)

    def test_degenerate_band_rows_are_fresh_noise(self):
        spec = bifr_spec(n=8, p=1, gamma=0.5)
        ref = engine_dense_reference(spec, 3, 2.5, 4, 8)
        Z = GaussianStream.from_seed(4).normal((8, 3))
        np.testing.assert_array_equal(ref, 2.5 * Z)


class TestMemoryContract:
    def test_steady_state_step_allocates_no_vectors(self):
        dim = 4096
        state = engine_init(bifr_spec(n=256, p=8), dim, 1.0, 0)
        x = np.zeros(dim)
        out = np.empty(dim)
        for _ in range(16):  # warm up scratch
            engine_step(state, x, out=out)
        tracemalloc.start()
        for _ in range(8):
            engine_step(state, x, out=out)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # token bookkeeping only: far below one extra dim-sized vector per step
        assert peak < 8 * dim

    def test_uneven_window_chunks_allocate_no_vectors(self):
        # p=15 rows of 1000 draws are filled 4 rows at a time: 4, 4, 4, then 3
        dim = 1000
        state = engine_init(bifr_spec(n=64, p=15), dim, 1.0, 0)
        x = np.zeros(dim)
        out = np.empty(dim)
        for _ in range(20):
            engine_step(state, x, out=out)
        tracemalloc.start()
        for _ in range(8):
            engine_step(state, x, out=out)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * dim

    def test_narrow_window_step_allocates_no_block(self):
        # release-narrow's shape: 64 rows of 16 draws, one fill and one accumulate
        p, dim = 64, 16
        state = engine_init(bifr_spec(n=256, p=p), dim, 1.0, 0)
        x = np.zeros(dim)
        out = np.empty(dim)
        for _ in range(p + 8):
            engine_step(state, x, out=out)
        tracemalloc.start()
        for _ in range(8):
            engine_step(state, x, out=out)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # token and seek bookkeeping only: half of one copy of the 8 KiB block
        assert peak < 4 * p * dim

    def test_init_holds_only_the_band(self):
        # release-narrow's shape: two n-long arrays would take 1 MiB
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=65536, gamma=0.5, bandwidth=64)
        engine_init(spec, 16, 1.0, 0)  # warm up imports and caches
        tracemalloc.start()
        engine_init(spec, 16, 1.0, 0)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 64 * 1024

    def test_split_fills_share_the_stream_scratch(self, monkeypatch):
        # each row fill is split into four chunks on pool threads, on any host
        monkeypatch.setattr(prng, "_cpu_count", lambda: 4)
        dim = 4 * prng._PARALLEL_MIN_DRAWS
        state = engine_init(bifr_spec(n=32, p=4), dim, 1.0, 0)
        x = np.zeros(dim)
        out = np.empty(dim)
        for _ in range(6):  # warm up scratch and pool threads
            engine_step(state, x, out=out)
        tracemalloc.start()
        for _ in range(4):
            engine_step(state, x, out=out)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * dim

    def test_scratch_does_not_grow_with_dim(self):
        # a row of 2^18 draws would take 2 MiB; the scratch holds one 512 KiB piece
        p, dim = 4, 1 << 18
        x = np.zeros(dim)
        out = np.empty(dim)
        # the first split fill imports and starts the fill pool
        engine_step(engine_init(bifr_spec(n=32, p=p), dim, 1.0, 1), x, out=out)
        tracemalloc.start()
        state = engine_init(bifr_spec(n=32, p=p), dim, 1.0, 0)
        for _ in range(p + 1):
            engine_step(state, x, out=out)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < (1 << 16) * 8 + 64 * 1024


class TestStats:
    @pytest.mark.parametrize(
        "p, dim", [(1, 5), (2, 3), (16, 8), (64, 16), (4, 4097), (3, (1 << 16) + 3)]
    )
    def test_counts_match_the_draws(self, monkeypatch, p, dim):
        """Fresh and regenerated draws add up to what the fill calls drew."""
        drawn = 0
        fill = GaussianStream.fill

        def counting_fill(gen, out):
            nonlocal drawn
            drawn += out.size
            return fill(gen, out)

        monkeypatch.setattr(GaussianStream, "fill", counting_fill)
        state = engine_init(bifr_spec(n=2 * p + 3, p=p), dim, 1.0, 0)
        x = np.zeros(dim)
        for k in range(1, 2 * p + 4):
            engine_step(state, x)
            stats = state.stats()
            assert (stats["step"], stats["horizon_left"]) == (k, 2 * p + 3 - k)
            assert stats["fresh_draws"] == dim * k
            assert stats["regenerated_draws"] == dim * sum(min(i, p - 1) for i in range(k))
            assert stats["fresh_draws"] + stats["regenerated_draws"] == drawn

    def test_fresh_engine(self):
        stats = engine_init(bifr_spec(n=16, p=4), 8, 1.0, 0).stats()
        # token, 4 scales, and 4 rows of 8 draws under a sum row plus their scales
        assert stats == dict(
            step=0, horizon_left=16, fresh_draws=0, regenerated_draws=0,
            state_bytes=prng.TOKEN_BYTES + 4 * 8 + 5 * 8 * 8 + 4 * 8 * 8,
        )

    def test_state_bytes_do_not_grow_with_dim(self):
        state = engine_init(bifr_spec(n=64, p=16), 1 << 20, 1.0, 0)
        assert state.stats()["state_bytes"] < (1 << 16) * 8 + 4 * 1024

    @pytest.mark.parametrize("cpus, piece", [(1, 1 << 16), (2, 1 << 15), (3, 21845), (4, 1 << 14)])
    def test_state_bytes_count_every_slab(self, monkeypatch, cpus, piece):
        # d = 2^16 + 3 in k slabs, each with a piece of min(ceil(d / k), 2^16 // k) draws
        monkeypatch.setattr(prng, "_cpu_count", lambda: cpus)
        state = engine_init(bifr_spec(n=8, p=4), (1 << 16) + 3, 1.0, 0)
        assert len(state._slabs) == cpus
        scratch = cpus * piece * 8
        assert scratch <= (1 << 16) * 8
        assert state.stats()["state_bytes"] == prng.TOKEN_BYTES + 4 * 8 + scratch

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("p, dim", [(16, 8), (4, 4097), (3, (1 << 15) + 5)])
    def test_stream_ends_each_step_at_its_window_end(self, monkeypatch, cpus, p, dim):
        """After step i, state.gen stands at origin + (i+1)*d: the next fresh counter."""
        monkeypatch.setattr(prng, "_cpu_count", lambda: cpus)
        state = engine_init(bifr_spec(n=2 * p, p=p), dim, 1.0, 0)
        for i in range(2 * p):
            engine_step(state, np.zeros(dim))
            assert state.gen.get_state() == state.origin.advanced((i + 1) * dim)


def _bench_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTracer:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_traced_slab_steps_account_for_every_draw(self, monkeypatch, cpus):
        """The bench's trace self-check holds when slabs fill on pool threads."""
        import bifr

        monkeypatch.setattr(prng, "_cpu_count", lambda: cpus)
        p, dim, first, last = 4, (1 << 15) + 3, 2, 9
        state = bifr.engine_init(bifr_spec(n=last, p=p), dim, 1.0, 0)
        x = np.zeros(dim)
        out = np.empty(dim)
        for _ in range(first):
            bifr.engine_step(state, x, out=out)
        tracer = _bench_tracing().Tracer()
        tracer.seen(state.gen.get_state())
        tracer.install()
        try:
            for _ in range(first, last):
                bifr.engine_step(state, x, out=out)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals()
        # bench/workloads.py check_fill_draws: step i draws min(i, p-1) + 1 rows
        expected = dim * sum(min(i, p - 1) + 1 for i in range(first, last))
        assert totals["prng.fill"]["draws"] == expected
        assert totals["engine.engine_step"]["calls"] == last - first


class TestMonteCarlo:
    def schema(self, n, k=1):
        return ParticipationSchema(n=n, b=n // k, k=k)

    def test_zero_scale(self):
        est = run_prefix_release(
            bifr_spec(n=16), self.schema(16), dim=2, budget=None, trials=5, seed=0,
            noise_scale=0.0,
        )
        assert est.estimate == 0.0

    def test_requires_budget_or_scale(self):
        with pytest.raises(ValueError):
            run_prefix_release(
                bifr_spec(n=16), self.schema(16), dim=2, budget=None, trials=5, seed=0
            )

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    def test_rejects_scale_that_releases_no_privacy(self, scale):
        with pytest.raises(ValueError, match="noise_scale"):
            run_prefix_release(
                bifr_spec(n=16), self.schema(16), dim=2, budget=None, trials=5, seed=0,
                noise_scale=scale,
            )

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            run_prefix_release(
                bifr_spec(n=16), self.schema(16), dim=2, budget=None, trials=0,
                seed=0, noise_scale=1.0,
            )

    def test_identity_matches_analytic(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=16)
        schema = self.schema(16)
        budget = PrivacyBudget(1.0, 1e-5)
        est = run_prefix_release(spec, schema, dim=4, budget=budget, trials=3000, seed=1)
        analytic = rmse(spec, schema, budget).scaled_rmse
        assert abs(est.estimate - analytic) < 3.0 * est.stderr + 1e-12

    @pytest.mark.parametrize("dim", [1, 8])
    @pytest.mark.parametrize(
        "spec, p",
        [
            (bifr_spec(n=96, gamma=0.55, p=16), 16),
            (FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=96, lam=0.7), 2),
            (FactorizationSpec(method=Method.IDENTITY, n=96), 1),
            (FactorizationSpec(method=Method.INV_DECAY, n=96, c=0.1, bandwidth=8), 96),
        ],
        ids=["gamma-bifr-p16", "lambda-cgd", "identity", "inv-decay-full"],
    )
    def test_equals_lfilter_formulation(self, spec, p, dim):
        """Bit for bit the estimate of filtering each trial's noise with lfilter."""
        from scipy.signal import lfilter

        n, trials, seed, scale = spec.n, 4, 11, 1.7
        band = np.trim_zeros(inverse_coeffs(spec).coeffs, "b")
        assert band.size == p
        vals = np.empty(trials)
        for t in range(trials):
            Z = GaussianStream.from_seed(seed, stream=t + 1).normal((n, dim))
            sums = np.cumsum(lfilter(band, [1.0], Z, axis=0), axis=0)
            vals[t] = scale * scale * np.sum(sums * sums) / (n * dim)
        estimate = math.sqrt(float(np.mean(vals)))
        stderr = float(np.std(vals, ddof=1)) / math.sqrt(trials) / (2.0 * estimate)
        got = run_prefix_release(
            spec, self.schema(n), dim=dim, budget=None, trials=trials, seed=seed,
            noise_scale=scale,
        )
        assert (got.estimate, got.stderr) == (estimate, stderr)

    def test_deterministic(self):
        kw = dict(dim=3, budget=None, trials=50, seed=6, noise_scale=1.0)
        a = run_prefix_release(bifr_spec(n=32), self.schema(32), **kw)
        b = run_prefix_release(bifr_spec(n=32), self.schema(32), **kw)
        assert a == b


class TestClipping:
    def test_clip_and_aggregate(self):
        grads = [np.array([3.0, 4.0]), np.array([0.3, 0.0]), np.zeros(2)]
        agg = clip_and_aggregate(grads, clip_norm=1.0)
        np.testing.assert_allclose(agg, [0.6 + 0.3, 0.8])

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_and_aggregate([np.ones(2)], clip_norm=0.0)
        with pytest.raises(ValueError):
            clip_and_aggregate([], clip_norm=1.0)

    def test_private_step_equals_manual(self):
        grads = [np.array([1.0, 2.0, 2.0]), np.array([0.5, 0.0, 0.0])]
        s1 = engine_init(bifr_spec(n=8), dim=3, noise_scale=1.0, seed=0)
        s2 = engine_init(bifr_spec(n=8), dim=3, noise_scale=1.0, seed=0)
        a = private_step(s1, grads, clip_norm=1.0)
        b = engine_step(s2, clip_and_aggregate(grads, clip_norm=1.0))
        np.testing.assert_array_equal(a, b)
