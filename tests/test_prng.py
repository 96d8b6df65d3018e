import numpy as np
import pytest
from scipy.special import ndtri

from bifr.prng import TOKEN_BYTES, GaussianStream, StateToken, _mix64_int


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
            u = ((h >> 11) + 0.5) * 2.0**-53
            expected[i] = ndtri(u)
        np.testing.assert_array_equal(got, expected)

    def test_moments(self):
        x = GaussianStream.from_seed(123).normal(200_000)
        assert abs(np.mean(x)) < 0.01
        assert abs(np.std(x) - 1.0) < 0.01
        # symmetry of tails
        assert abs(np.mean(x > 0) - 0.5) < 0.005

    def test_fill_preserves_shape_and_no_nan(self):
        g = GaussianStream.from_seed(1)
        out = np.empty((4, 6))
        ret = g.fill(out)
        assert ret is out
        assert np.all(np.isfinite(out))
