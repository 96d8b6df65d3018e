import functools
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy.special import ndtri

from bifr import prng
from bifr.catalog import FactorizationSpec, Method
from bifr.engine import engine_dense_reference, engine_init, engine_step
from bifr.prng import TOKEN_BYTES, GaussianStream, StateToken, _uniform_to_normal

_MASK64 = (1 << 64) - 1


def _philox4x64_10(ctr, key):
    """Philox4x64-10 in integer arithmetic (Salmon et al., SC 2011)."""
    c, k = list(ctr), list(key)
    for r in range(10):
        if r:
            k = [(k[0] + 0x9E3779B97F4A7C15) & _MASK64,
                 (k[1] + 0xBB67AE8584CAA73B) & _MASK64]
        p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k[0], p1 & _MASK64, (p0 >> 64) ^ c[3] ^ k[1], p0 & _MASK64]
    return c


def _grid_normal(x: int) -> float:
    """The normal a raw 64-bit output x stands for: ndtri(((x >> 12) + 1/2) 2^-52)."""
    return ndtri(((x >> 12) + 0.5) * 2.0**-52)


def _normals_from_raw(raw):
    """The stream's uniform-to-normal map applied to up to four chosen raw outputs.

    They are planted in a Philox's output buffer, so ``Generator.random`` turns
    them into uniforms exactly as it does inside a fill.
    """
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["buffer"] = np.zeros(4, dtype=np.uint64)
    state["buffer"][4 - len(raw) :] = raw
    state["buffer_pos"] = 4 - len(raw)
    bitgen.state = state
    out = np.empty(len(raw))
    np.random.Generator(bitgen).random(out=out)
    _uniform_to_normal(out)
    return out


class TestToken:
    def test_roundtrip(self):
        tok = StateToken(key=(37 << 64) | 11, counter=(5 << 64) | 123456789)
        assert len(tok.to_bytes()) == TOKEN_BYTES
        assert StateToken.from_bytes(tok.to_bytes()) == tok

    def test_layout_little_endian(self):
        tok = StateToken(key=1, counter=2)
        raw = tok.to_bytes()
        assert raw[0] == 1 and raw[16] == 2
        assert set(raw) <= {0, 1, 2}

    def test_range_checks(self):
        with pytest.raises(ValueError):
            StateToken(key=-1, counter=0)
        with pytest.raises(ValueError):
            StateToken(key=0, counter=1 << 128)
        with pytest.raises(ValueError):
            StateToken.from_bytes(b"\x00" * 31)

    def test_advanced_wraps_at_128_bits(self):
        tok = StateToken(key=3, counter=(1 << 128) - 1)
        assert tok.advanced(2) == StateToken(key=3, counter=1)


class TestStream:
    def test_deterministic(self):
        a = GaussianStream.from_seed(7).normal(1000)
        b = GaussianStream.from_seed(7).normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_seeds_and_streams_differ(self):
        base = GaussianStream.from_seed(7).normal(100)
        assert not np.array_equal(base, GaussianStream.from_seed(8).normal(100))
        assert not np.array_equal(
            base, GaussianStream.from_seed(7, stream=1).normal(100)
        )

    def test_counter_advances_by_draw_count(self):
        g = GaussianStream.from_seed(0)
        start = g.get_state().counter
        g.normal((3, 5))
        assert g.get_state().counter == start + 15

    def test_state_replay_is_bitwise(self):
        g = GaussianStream.from_seed(3)
        g.normal(17)  # advance
        tok = g.get_state()
        first = g.normal(64)
        g.normal(10)
        g.set_state(tok)
        np.testing.assert_array_equal(g.normal(64), first)

    def test_replay_from_serialized_token_other_instance(self):
        g = GaussianStream.from_seed(5)
        g.normal(9)
        raw = g.get_state().to_bytes()
        expected = g.normal(33)
        fresh = GaussianStream(StateToken.from_bytes(raw))
        np.testing.assert_array_equal(fresh.normal(33), expected)

    def test_split_draws_equal_one_shot(self):
        g1 = GaussianStream.from_seed(9)
        one = g1.normal(30)
        g2 = GaussianStream.from_seed(9)
        parts = np.concatenate([g2.normal(7), g2.normal(11), g2.normal(12)])
        np.testing.assert_array_equal(one, parts)

    def test_fill_carries_into_high_limb(self):
        """A fill across the low-limb boundary draws the counters past 2^64."""
        key = GaussianStream.from_seed(4).get_state().key
        g = GaussianStream(StateToken(key=key, counter=(1 << 64) - 2))
        across = g.normal(4)
        assert g.get_state().counter == (1 << 64) + 2
        below = GaussianStream(StateToken(key=key, counter=(1 << 64) - 2)).normal(2)
        above = GaussianStream(StateToken(key=key, counter=1 << 64)).normal(2)
        np.testing.assert_array_equal(across, np.concatenate([below, above]))
        wrapped = GaussianStream(StateToken(key=key, counter=0)).normal(2)
        assert not np.array_equal(across[2:], wrapped)

    def test_matches_scalar_reference(self):
        """Draw c is lane c % 4 of an integer-arithmetic Philox4x64-10 at block c // 4."""
        m = 13
        key = GaussianStream.from_seed(21).get_state().key
        for start in [0, 1, 2, 3, 4, 6, 4099, (1 << 64) - 3, (1 << 128) - 6]:
            got = GaussianStream(StateToken(key=key, counter=start)).normal(m)
            expected = np.empty(m)
            for i in range(m):
                c = (start + i) % (1 << 128)
                block = [(c >> 2) & _MASK64, c >> 66, 0, 0]
                raw = _philox4x64_10(block, [key & _MASK64, key >> 64])[c % 4]
                expected[i] = _grid_normal(raw)
            np.testing.assert_array_equal(got, expected, err_msg=f"start {start}")

    @pytest.mark.parametrize("start", [0, 3, 4, 5, 4098, 4 * (1 << 70) + 3])
    def test_block_lane_convention_matches_philox_advance(self, start):
        """numpy steps the counter before each block: block b follows advance(b - 1)."""
        key = GaussianStream.from_seed(17).get_state().key
        got = GaussianStream(StateToken(key=key, counter=start)).normal(9)
        bitgen = np.random.Philox(key=key)  # low 64 bits are key word 0
        bitgen.advance(((start >> 2) - 1) % (1 << 256))
        raw = bitgen.random_raw(12)[start % 4 : start % 4 + 9]
        np.testing.assert_array_equal(got, [_grid_normal(int(x)) for x in raw])

    def test_moments(self):
        x = GaussianStream.from_seed(123).normal(200_000)
        assert abs(np.mean(x)) < 0.01
        assert abs(np.std(x) - 1.0) < 0.01
        # symmetry of tails
        assert abs(np.mean(x > 0) - 0.5) < 0.005

    def test_edge_hashes_give_finite_symmetric_normals(self):
        """Raw outputs 0 and 2^64 - 1, the grid's ends, give finite, opposite normals."""
        lowest, highest = _normals_from_raw([0, _MASK64])
        assert np.isfinite(lowest) and np.isfinite(highest)
        assert lowest == -highest
        assert lowest == ndtri(2.0**-53) < -8
        assert round(highest, 4) == 8.2095

    @pytest.mark.parametrize("g", [0, 1, 2, 2**51 - 1, 2**51, 2**52 - 2, 2**52 - 1])
    def test_grid_points_map_to_centred_uniforms(self, g):
        """Raw x draws ndtri(((x >> 12) + 1/2) * 2^-52), whatever its low 12 bits."""
        got = _normals_from_raw([(g << 12) | low for low in (0, 0xA5C, 0xFFF)])
        np.testing.assert_array_equal(got, ndtri((g + 0.5) * 2.0**-52))

    def test_fill_wraps_at_128_bits(self):
        """A fill across 2^128 continues at counter 0, as the token's counter does."""
        key = GaussianStream.from_seed(4).get_state().key
        g = GaussianStream(StateToken(key=key, counter=(1 << 128) - 3))
        across = g.normal(6)
        assert g.get_state().counter == 3
        below = GaussianStream(StateToken(key=key, counter=(1 << 128) - 3)).normal(3)
        above = GaussianStream(StateToken(key=key, counter=0)).normal(3)
        np.testing.assert_array_equal(across, np.concatenate([below, above]))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(seed=-1),
            dict(seed=1 << 64),
            dict(seed=5, stream=-1),
            dict(seed=5, stream=1 << 64),
        ],
    )
    def test_rejects_seeds_outside_64_bits(self, kw):
        """Seeds 5 and 5 + 2^64 would otherwise give the same noise."""
        with pytest.raises(ValueError, match="2\\^64"):
            GaussianStream.from_seed(**kw)
        top = GaussianStream.from_seed(_MASK64, stream=_MASK64).normal(4)
        assert np.all(np.isfinite(top))

    @pytest.mark.parametrize(
        "out",
        [
            np.zeros((4, 4))[:2, :2],
            np.zeros(8)[::2],
            np.zeros((3, 2)).T,
            np.zeros(4, dtype=np.float32),
        ],
    )
    def test_fill_refuses_arrays_it_cannot_write_in_place(self, out):
        g = GaussianStream.from_seed(6)
        g.normal(3)
        before = g.get_state()
        with pytest.raises(ValueError):
            g.fill(out)
        assert g.get_state() == before
        assert not out.any()

    def test_fill_writes_contiguous_views_in_place(self):
        g = GaussianStream.from_seed(6)
        expected = GaussianStream.from_seed(6).normal(8)
        base = np.zeros((4, 4))
        rows = base[1:3]
        assert g.fill(rows) is rows
        np.testing.assert_array_equal(rows.ravel(), expected)
        assert not base[0].any() and not base[3].any()
        assert g.get_state().counter == 8

    def test_fill_preserves_shape_and_no_nan(self):
        g = GaussianStream.from_seed(1)
        out = np.empty((4, 6))
        ret = g.fill(out)
        assert ret is out
        assert np.all(np.isfinite(out))


def _fill_kernel_calls(monkeypatch):
    """Record the chunks fill computes: (first counter, draws, thread)."""
    calls = []
    kernel = prng._fill_kernel

    def recording(flat, rng, key, counter):
        calls.append((counter, flat.size, threading.get_ident()))
        kernel(flat, rng, key, counter)

    monkeypatch.setattr(prng, "_fill_kernel", recording)
    return calls


class TestParallelFill:
    """A fill split into chunks on worker threads draws the same bits."""

    @pytest.fixture
    def split(self, monkeypatch):
        # chunks of >= 16 draws on up to 8 threads, more than this host has cores
        monkeypatch.setattr(prng, "_PARALLEL_MIN_DRAWS", 16)
        monkeypatch.setattr(prng, "_cpu_count", lambda: 8)

    def test_small_fills_stay_on_the_calling_thread(self, monkeypatch):
        calls = _fill_kernel_calls(monkeypatch)
        GaussianStream.from_seed(1).normal(2 * prng._PARALLEL_MIN_DRAWS - 1)
        assert calls == [(0, 2 * prng._PARALLEL_MIN_DRAWS - 1, threading.get_ident())]

    def test_large_fill_is_split_across_threads(self, monkeypatch, split):
        calls = _fill_kernel_calls(monkeypatch)
        GaussianStream.from_seed(1).normal(100)
        # 100 // 16 = 6 chunks of 16 or 17 draws, the first on this thread
        assert [(a, m) for a, m, _ in sorted(calls)] == [
            (0, 16), (16, 17), (33, 17), (50, 16), (66, 17), (83, 17)
        ]
        threads = {a: thread for a, _, thread in calls}
        assert threads[0] == threading.get_ident()
        assert len(set(threads.values())) > 1

    @pytest.fixture
    def fast_switching(self):
        # hand the interpreter lock between threads as often as it allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_split_fills_equal_single_chunk_fills(
        self, monkeypatch, split, fast_switching
    ):
        key = GaussianStream.from_seed(11).get_state().key
        sizes = [32, 33, 100, 257, 1000, 4099]
        starts = [0, 5, (1 << 64) - 3, (1 << 64) - 500, (1 << 128) - 40]
        cases = [(c, m) for c in starts for m in sizes]

        def draws(counter, m):
            g = GaussianStream(StateToken(key=key, counter=counter))
            return g.normal(m), g.get_state().counter

        with monkeypatch.context() as single:
            single.setattr(prng, "_cpu_count", lambda: 1)
            expected = [draws(c, m) for c, m in cases]
        t0 = time.perf_counter()
        for _ in range(5):
            for (c, m), (want, counter) in zip(cases, expected):
                got, got_counter = draws(c, m)
                np.testing.assert_array_equal(got, want)
                assert got_counter == counter
        assert time.perf_counter() - t0 < 60

    def test_split_engine_equals_dense_reference(
        self, monkeypatch, split, fast_switching
    ):
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=24, gamma=0.55, bandwidth=6)
        dim = 50
        with monkeypatch.context() as single:
            single.setattr(prng, "_cpu_count", lambda: 1)
            dense = engine_dense_reference(spec, dim, 0.7, 3, spec.n)
        calls = _fill_kernel_calls(monkeypatch)
        state = engine_init(spec, dim, 0.7, 3)
        streaming = np.array([engine_step(state, np.zeros(dim)) for _ in range(spec.n)])
        np.testing.assert_array_equal(streaming, dense)
        assert len({thread for _, _, thread in calls}) > 1

    def test_failed_chunk_raises_and_keeps_the_counter(self, monkeypatch, split):
        kernel = prng._fill_kernel

        def failing(flat, rng, key, counter):
            if counter == 5 + 16:  # the second chunk
                raise RuntimeError("chunk failed")
            kernel(flat, rng, key, counter)

        monkeypatch.setattr(prng, "_fill_kernel", failing)
        g = GaussianStream.from_seed(2)
        g.normal(5)
        before = g.get_state()
        with pytest.raises(RuntimeError, match="chunk failed"):
            g.normal(64)
        assert g.get_state() == before

    def test_fill_waits_for_workers_when_its_own_chunk_fails(self, monkeypatch, split):
        kernel = prng._fill_kernel
        finished = []

        def slow_or_failing(flat, rng, key, counter):
            if counter == 0:  # the calling thread's chunk
                raise RuntimeError("chunk failed")
            time.sleep(0.05)
            kernel(flat, rng, key, counter)
            finished.append(counter)

        monkeypatch.setattr(prng, "_fill_kernel", slow_or_failing)
        g = GaussianStream.from_seed(2)
        before = g.get_state()
        with pytest.raises(RuntimeError, match="chunk failed"):
            g.normal(64)
        assert sorted(finished) == [16, 32, 48]
        assert g.get_state() == before

    def test_nested_run_tasks_run_all_on_their_thread(self, split):
        """Inside a task, run_tasks submits nothing, runs every task and re-raises the first error."""
        ran = []

        def inner(outer, j):
            ran.append((outer, j, threading.get_ident()))
            if j > 0:
                raise RuntimeError(f"inner {outer}.{j} failed")

        def outer(j):
            thread = threading.get_ident()
            with pytest.raises(RuntimeError, match=rf"inner {j}\.1 failed"):
                prng.run_tasks(functools.partial(inner, j), 3)
            assert [(o, i, t) for o, i, t in ran if o == j] == [
                (j, 0, thread), (j, 1, thread), (j, 2, thread)
            ]

        prng.run_tasks(outer, 2)
        assert len(ran) == 6

    # forking after the pool's threads exist is the case under test
    @pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
    def test_forked_child_draws_the_parents_bits(self, split):
        expected = GaussianStream.from_seed(8).normal(4096)
        assert prng._pool is not None and prng._pool[0] == os.getpid()
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_child_fill_check, args=(expected,))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive
        assert child.exitcode == 0


def _child_fill_check(expected):
    got = GaussianStream.from_seed(8).normal(expected.size)
    assert prng._pool[0] == os.getpid()
    if not np.array_equal(got, expected):
        raise SystemExit(1)
