import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifr.toeplitz import (
    DENSE_CAP,
    ToeplitzOperator,
    column_norms,
    ltt_inverse,
    materialize_dense,
    reciprocal_series,
)
from bifr.catalog import binomial_series


def random_operator(rng, n, band=None):
    c = rng.standard_normal(n)
    c[0] = rng.uniform(0.5, 2.0)
    if band is not None:
        c[band:] = 0.0
    return ToeplitzOperator(c)


class TestOperator:
    def test_coeffs_frozen(self):
        op = ToeplitzOperator(np.ones(3))
        with pytest.raises(ValueError):
            op.coeffs[0] = 2.0

    def test_input_not_aliased(self):
        raw = np.ones(3)
        op = ToeplitzOperator(raw)
        raw[0] = 5.0
        assert op.coeffs[0] == 1.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="coefficients must be a non-empty 1-D sequence"):
            ToeplitzOperator(np.ones((2, 2)))
        with pytest.raises(ValueError, match="coefficients must be a non-empty 1-D sequence"):
            ToeplitzOperator(np.array([]))
        with pytest.raises(ValueError):
            ToeplitzOperator(np.array([1.0, np.inf]))

    def test_materialize_matches_definition(self):
        op = ToeplitzOperator(np.array([1.0, 2.0, 3.0]))
        expected = np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [3.0, 2.0, 1.0]])
        np.testing.assert_array_equal(materialize_dense(op), expected)

    def test_materialize_cap(self):
        with pytest.raises(ValueError, match=f"refusing dense materialization at n={DENSE_CAP + 1}"):
            materialize_dense(ToeplitzOperator(np.ones(DENSE_CAP + 1)))


class TestInverse:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 9, 33):
            a = random_operator(rng, n)
            dense_inv = np.linalg.inv(materialize_dense(a))
            np.testing.assert_allclose(
                materialize_dense(ltt_inverse(a)), dense_inv, atol=1e-9
            )

    def test_banded_path_matches_full(self):
        # contractive band keeps the inverse well conditioned over n=40
        rng = np.random.default_rng(3)
        c = np.zeros(40)
        c[0] = 1.0
        c[1:5] = rng.uniform(-0.2, 0.2, 4)
        banded = ToeplitzOperator(c)
        prod = np.convolve(c, ltt_inverse(banded).coeffs)[:40]
        np.testing.assert_allclose(prod, np.eye(40)[0], atol=1e-12)

    def test_prefix_sum_inverse_is_difference(self):
        inv = ltt_inverse(ToeplitzOperator(np.ones(6))).coeffs
        expected = np.zeros(6)
        expected[0] = 1.0
        expected[1] = -1.0
        np.testing.assert_array_equal(inv, expected)

    def test_singular(self):
        with pytest.raises(ValueError, match="diagonal coefficient is zero"):
            ltt_inverse(ToeplitzOperator(np.array([0.0, 1.0])))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_property(self, n, seed):
        # contractive subdiagonals keep the round trip numerically stable
        rng = np.random.default_rng(seed)
        c = 0.3 * rng.standard_normal(n)
        c[0] = rng.uniform(0.5, 2.0)
        a = ToeplitzOperator(c)
        back = ltt_inverse(ltt_inverse(a))
        np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-8)


def sequential_reciprocal(band, n, head=None):
    """Oracle: 1/band(x) by the sequential recursion, one coefficient per step."""
    band = np.asarray(band, dtype=np.float64)
    inv_a0 = 1.0 / band[0]
    r = np.zeros(n)
    r[0] = inv_a0
    start = 1
    if head is not None:
        start = min(len(head), n)
        r[:start] = head[:start]
    for j in range(start, n):
        m = min(j, band.size - 1)
        if m:
            r[j] = -inv_a0 * np.dot(band[1 : m + 1], r[j - m : j][::-1])
    return r


def _oracle_cases():
    rng = np.random.default_rng(7)
    for gamma in (0.05, 0.5, 0.95):
        for p in (2, 3, 16, 64):
            band = binomial_series(gamma, p)
            head = binomial_series(-gamma, p)
            for n in (p, p + 1, 1000):
                yield f"gamma-bifr-{gamma}-{p}-{n}", band, n, head
    for p, c in ((2, 0.0), (8, -0.05), (32, -1.0 / 62)):
        # inv-decay strategy band: 1, then 1/j + c; its reciprocal is C^{-1}.
        band = np.r_[1.0, 1.0 / np.arange(1, p) + c]
        yield f"inv-decay-{p}", band, 700, None
    for q in (1, 2, 5, 40):
        band = np.r_[1.0, rng.uniform(-0.5, 0.5, q) / q]
        yield f"contractive-{q}", band, 777, None
    band = np.r_[1.0, rng.uniform(-0.3, 0.3, 99) / 99]
    yield "full-band", band, 100, None
    band = np.r_[2.5, rng.uniform(-0.4, 0.4, 6)]
    yield "a0-not-one", band, 300, None
    yield "a0-not-one-head", band, 300, sequential_reciprocal(band, 4)
    yield "n-1", np.array([4.0, 1.0, 2.0]), 1, None
    yield "n-1-head", binomial_series(0.5, 3), 1, binomial_series(-0.5, 3)
    yield "degree-0", np.array([0.5]), 9, None


class TestReciprocalSeries:
    @pytest.mark.parametrize(
        "band, n, head", [c[1:] for c in _oracle_cases()], ids=[c[0] for c in _oracle_cases()]
    )
    def test_matches_sequential_loop(self, band, n, head):
        want = sequential_reciprocal(band, n, head)
        got = reciprocal_series(band, n, head)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        if head is not None:
            np.testing.assert_array_equal(got[: len(head)], head[:n])

    @pytest.mark.parametrize("seeded", [False, True], ids=["no-head", "head"])
    def test_trailing_zeros_give_the_trimmed_bands_bits(self, seeded):
        band = binomial_series(0.3, 5)
        head = binomial_series(-0.3, 5) if seeded else None
        want = reciprocal_series(band, 200, head)
        for zeros in (1, 3, 195):
            got = reciprocal_series(np.r_[band, np.zeros(zeros)], 200, head)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 4097])
    @pytest.mark.parametrize("q", [0, 1, 7, 300])
    def test_ltt_inverse_convolutions_per_call(self, monkeypatch, n, q):
        # Two per doubling pass: a per-coefficient loop would make ~n.
        coeffs = np.zeros(n)
        coeffs[0] = 1.0
        coeffs[1 : q + 1] = 0.5 / max(q, 1)
        calls = []
        convolve = np.convolve
        monkeypatch.setattr(np, "convolve", lambda *a: calls.append(1) or convolve(*a))
        ltt_inverse(ToeplitzOperator(coeffs))
        assert len(calls) <= 2 * math.ceil(math.log2(n)) + 2


class TestColumnNorms:
    def test_matches_dense_first_column(self):
        rng = np.random.default_rng(4)
        a = random_operator(rng, 12)
        col = np.abs(materialize_dense(a)[:, 0])
        l1, l2 = column_norms(a)
        assert l1 == pytest.approx(np.sum(col))
        assert l2 == pytest.approx(np.linalg.norm(col))

    def test_prefix_sum_norms(self):
        l1, l2 = column_norms(ToeplitzOperator(np.ones(4)))
        assert l1 == 4.0
        assert l2 == 2.0
