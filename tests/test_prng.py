import inspect
import threading

import numpy as np
import pytest
from scipy.special import ndtri

from bifr import prng
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
    prng._bind_ndtri()  # a fill binds it first; this map runs without one
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

    def test_numpy_integer_counter_gives_the_int_draws(self):
        np.testing.assert_array_equal(
            GaussianStream(StateToken(5, np.int64(3))).normal(2),
            GaussianStream(StateToken(5, 3)).normal(2),
        )

    @pytest.mark.parametrize("kw", [dict(key=5.5, counter=0), dict(key=5, counter=0.0),
                                    dict(key="5", counter=0)])  # fmt: skip
    def test_refuses_a_float_or_string(self, kw):
        with pytest.raises(TypeError):
            StateToken(**kw)


class TestStream:
    def test_deterministic(self):
        a = GaussianStream.from_seed(7).normal(1000)
        b = GaussianStream.from_seed(7).normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_seeds_and_streams_differ(self):
        base = GaussianStream.from_seed(7).normal(100)
        assert not np.array_equal(base, GaussianStream.from_seed(8).normal(100))
        assert not np.array_equal(base, GaussianStream(prng._seed_token(7, 1)).normal(100))

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

    def test_rekeyed_stream_draws_the_new_keys_noise(self):
        """A stream re-keyed after a fill draws what a fresh stream on the new token draws."""
        g = GaussianStream.from_seed(3)
        g.normal(40)  # fills under seed 3's key
        tok = StateToken(key=prng._seed_token(4, 0).key, counter=17)
        g.set_state(tok)
        np.testing.assert_array_equal(g.normal(40), GaussianStream(tok).normal(40))

    def test_kept_state_draws_what_a_fresh_stream_draws(self):
        """Each fill loads its own stream's Philox state, with the key and block it stands at.

        Two streams fill in turn.  Each goes from block -1 (all four counter
        words set) to a block whose high word is set, to a low block, and is
        then re-keyed by ``set_state`` to the other stream's key.
        """
        a, b = prng._seed_token(21, 0).key, prng._seed_token(22, 0).key
        high = 4 * (1 << 66) + 8  # block 2^66 + 1: low word 1, high word 4
        plans = [
            [StateToken(a, 1), StateToken(a, high), StateToken(a, 8), StateToken(b, 0)],
            [StateToken(b, 3), StateToken(b, high + 1), StateToken(b, 9), StateToken(a, 2)],
        ]
        streams = [GaussianStream(plan[0]) for plan in plans]
        for step in range(4):
            for g, plan in zip(streams, plans):
                tok = plan[step]
                if tok.key == g.get_state().key:
                    g.seek(tok.counter)
                else:
                    g.set_state(tok)
                np.testing.assert_array_equal(
                    g.normal(6), GaussianStream(tok).normal(6), err_msg=f"step {step}"
                )

    def test_seek_stands_at_a_counter_under_the_key(self):
        g = GaussianStream.from_seed(3)
        expected = g.normal(40)[17:]
        g.seek(17)
        assert g.get_state() == StateToken(key=prng._seed_token(3, 0).key, counter=17)
        np.testing.assert_array_equal(g.normal(23), expected)

    @pytest.mark.parametrize("counter", [-1, 1 << 128])
    def test_seek_refuses_a_counter_outside_the_stream(self, counter):
        g = GaussianStream.from_seed(3)
        with pytest.raises(ValueError, match="2\\^128 - 1"):
            g.seek(counter)
        assert g.get_state().counter == 0
        g.seek((1 << 128) - 1)

    @pytest.mark.parametrize("counter", [3.0, "3"])
    def test_seek_refuses_a_float_or_string(self, counter):
        with pytest.raises(TypeError):
            GaussianStream.from_seed(3).seek(counter)

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
        for start in [0, 1, 2, 3, 4, 6, 4099, (1 << 64) - 3, (1 << 128) - 1 - m]:
            got = GaussianStream(StateToken(key=key, counter=start)).normal(m)
            expected = np.empty(m)
            for i in range(m):
                c = start + i
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

    def test_grid_constants_are_read_only(self):
        """Every fill shares the grid map's 0-d operands, so none of them can be written."""
        consts = (prng._TWO52, prng._HALF, prng._TWO_M52)
        assert [float(c) for c in consts] == [2.0**52, 0.5, 2.0**-52]
        for c in consts:
            assert c.shape == () and c.dtype == np.float64 and not c.flags.writeable
            with pytest.raises(ValueError):
                c[...] = 1.0

    def test_fill_refuses_counters_past_the_end(self, fills):
        """A fill that would pass counter 2^128 - 1 raises and draws nothing."""
        g = GaussianStream(StateToken(key=5, counter=(1 << 128) - 3))
        for shape in (3, (2, 2), 1 << 10):
            out = np.full(shape, 7.0)
            with pytest.raises(ValueError, match="2\\^128 - 1"):
                g.fill(out)
            assert g.get_state().counter == (1 << 128) - 3
            assert (out == 7.0).all()
        assert fills == []

    def test_fill_may_end_at_the_last_counter(self):
        """A stream fills up to counter 2^128 - 1, then draws nothing more."""
        key = GaussianStream.from_seed(4).get_state().key
        g = GaussianStream(StateToken(key=key, counter=(1 << 128) - 7))
        parts = np.concatenate([g.normal(4), g.normal(2)])
        assert g.get_state() == StateToken(key=key, counter=(1 << 128) - 1)
        once = GaussianStream(StateToken(key=key, counter=(1 << 128) - 7)).normal(6)
        np.testing.assert_array_equal(parts, once)
        assert g.normal(0).size == 0
        with pytest.raises(ValueError, match="last counter"):
            g.normal(1)
        assert g.get_state().counter == (1 << 128) - 1

    def test_failed_fill_keeps_the_counter(self, monkeypatch):
        """A fill whose one kernel run raises leaves the counter where it was."""
        kernel = prng._fill_kernel
        calls = []

        def failing(out, rng, state, counter):
            calls.append((counter, out.size))
            raise RuntimeError("run failed")

        monkeypatch.setattr(prng, "_fill_kernel", failing)
        g = GaussianStream(StateToken(key=5, counter=(1 << 128) - 9))
        before = g.get_state()
        with pytest.raises(RuntimeError, match="run failed"):
            g.normal(8)
        assert calls == [((1 << 128) - 9, 8)]
        assert g.get_state() == before
        monkeypatch.setattr(prng, "_fill_kernel", kernel)
        assert np.isfinite(g.normal(8)).all()

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
            prng._seed_token(**{"stream": 0, **kw})
        top = GaussianStream(prng._seed_token(_MASK64, _MASK64)).normal(4)
        assert np.all(np.isfinite(top))

    def test_takes_only_the_seed(self):
        """Substreams are private: ``from_seed`` has no stream parameter."""
        assert list(inspect.signature(GaussianStream.from_seed).parameters) == ["seed"]

    def test_numpy_integer_seeds_give_the_int_seeds_bits(self):
        for seed in (np.int64(5), np.uint64(_MASK64), np.int32(0)):
            np.testing.assert_array_equal(
                GaussianStream.from_seed(seed).normal(8),
                GaussianStream.from_seed(int(seed)).normal(8),
            )
        assert prng._seed_token(np.int64(3), np.int64(2)) == prng._seed_token(3, 2)
        with pytest.raises(TypeError):
            GaussianStream.from_seed(5.0)

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


class TestParallelFill:
    """No fill splits: each runs on its calling thread, whatever its size."""

    def test_small_fills_stay_on_the_calling_thread(self, fills):
        """Fills of 1 and 2^13 - 1 draws: one kernel run each, on this thread."""
        for size in (1, (1 << 13) - 1):
            fills.clear()
            GaussianStream.from_seed(1).normal(size)
            assert fills == [(0, size, threading.get_ident())]

    def test_large_fill_stays_on_the_calling_thread(self, fills):
        """A fill of 2^17 draws: one kernel run, on this thread."""
        GaussianStream.from_seed(1).normal(1 << 17)
        assert fills == [(0, 1 << 17, threading.get_ident())]
