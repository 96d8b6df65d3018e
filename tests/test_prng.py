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
from bifr.prng import (
    _GOLDEN,
    _M1,
    _M2,
    TOKEN_BYTES,
    GaussianStream,
    StateToken,
    _mix64_int,
)

_MASK64 = (1 << 64) - 1


def _unmix64(h: int) -> int:
    """Inverse of the SplitMix64 finalizer ``_mix64_int``."""

    def unxorshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    h = unxorshift(h, 31)
    h = (h * pow(_M2, -1, 1 << 64)) & _MASK64
    h = unxorshift(h, 27)
    h = (h * pow(_M1, -1, 1 << 64)) & _MASK64
    return unxorshift(h, 30)


def _counter_hashing_to(key: int, h: int) -> int:
    """The counter below 2^64 whose draw under ``key`` hashes to ``h``."""
    khi, klo = key >> 64, key & _MASK64
    return _unmix64(_unmix64(h) ^ khi ^ _mix64_int(_GOLDEN)) ^ klo


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
        """Vectorized path equals an integer-arithmetic scalar reimplementation."""
        seed, m = 21, 40
        g = GaussianStream.from_seed(seed)
        got = g.normal(m)
        tok = GaussianStream.from_seed(seed).get_state()
        khi, klo = tok.key >> 64, tok.key & ((1 << 64) - 1)
        expected = np.empty(m)
        golden = 0x9E3779B97F4A7C15
        for i in range(m):
            h = _mix64_int(i ^ klo)
            h = _mix64_int(h ^ khi ^ _mix64_int(0 + golden))
            u = ((h >> 12) + 0.5) * 2.0**-52
            expected[i] = ndtri(u)
        np.testing.assert_array_equal(got, expected)

    def test_moments(self):
        x = GaussianStream.from_seed(123).normal(200_000)
        assert abs(np.mean(x)) < 0.01
        assert abs(np.std(x) - 1.0) < 0.01
        # symmetry of tails
        assert abs(np.mean(x > 0) - 0.5) < 0.005

    def test_edge_hashes_give_finite_symmetric_normals(self):
        """The lowest and highest grid points map to finite, opposite normals."""
        key = GaussianStream.from_seed(2).get_state().key
        assert _unmix64(_mix64_int(12345)) == 12345

        def draw(h):
            tok = StateToken(key=key, counter=_counter_hashing_to(key, h))
            return GaussianStream(tok).normal(1)[0]

        lowest = draw(0)  # h >> 12 == 0
        highest = draw(_MASK64)  # h >> 12 == 2^52 - 1
        assert np.isfinite(lowest) and np.isfinite(highest)
        assert lowest == -highest
        assert lowest == ndtri(2.0**-53) < -8

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
    """Record the chunks fill computes: (first counter offset, draws, thread)."""
    calls = []
    kernel = prng._fill_kernel

    def recording(flat, idx, *args):
        calls.append((int(idx[0]), flat.size, threading.get_ident()))
        kernel(flat, idx, *args)

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

        def failing(flat, idx, *args):
            if idx[0] == 16:
                raise RuntimeError("chunk failed")
            kernel(flat, idx, *args)

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

        def slow_or_failing(flat, idx, *args):
            if idx[0] == 0:  # the calling thread's chunk
                raise RuntimeError("chunk failed")
            time.sleep(0.05)
            kernel(flat, idx, *args)
            finished.append(int(idx[0]))

        monkeypatch.setattr(prng, "_fill_kernel", slow_or_failing)
        g = GaussianStream.from_seed(2)
        before = g.get_state()
        with pytest.raises(RuntimeError, match="chunk failed"):
            g.normal(64)
        assert sorted(finished) == [16, 32, 48]
        assert g.get_state() == before

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
