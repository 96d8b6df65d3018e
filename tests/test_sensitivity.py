import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifr.catalog import FactorizationSpec, Method, strategy_coeffs
from bifr.sensitivity import (
    ParticipationSchema,
    sens_exact,
    sens_upper_bound,
)
from bifr.toeplitz import ToeplitzOperator

from bruteforce_reference import sens_bruteforce


class TestSchema:
    def test_valid(self):
        ParticipationSchema(n=10, b=3, k=4)

    def test_positive(self):
        with pytest.raises(ValueError):
            ParticipationSchema(n=0, b=1, k=1)
        with pytest.raises(ValueError):
            ParticipationSchema(n=4, b=0, k=1)

    def test_numpy_integers_become_ints(self):
        schema = ParticipationSchema(n=np.int64(10), b=np.int32(3), k=np.uint8(4))
        assert schema == ParticipationSchema(n=10, b=3, k=4)
        assert all(type(v) is int for v in (schema.n, schema.b, schema.k))

    @pytest.mark.parametrize("kw", [dict(b=2.5), dict(n=8.0), dict(k="1")], ids=str)
    def test_refuses_non_integers(self, kw):
        with pytest.raises(ValueError, match="must be an integer"):
            ParticipationSchema(**{"n": 8, "b": 2, "k": 1, **kw})

    def test_separation_fits(self):
        with pytest.raises(ValueError):
            ParticipationSchema(n=4, b=5, k=1)
        with pytest.raises(ValueError):
            ParticipationSchema(n=10, b=5, k=3)  # (k-1)*b = 10 > 9


class TestExact:
    def test_identity(self):
        eye = np.zeros(9)
        eye[0] = 1.0
        C = ToeplitzOperator(eye)
        for k in (1, 2, 3):
            schema = ParticipationSchema(n=9, b=4, k=k)
            assert sens_exact(C, schema) == pytest.approx(np.sqrt(k))

    def test_prefix_operator_hand_value(self):
        # columns 0 and 2 of the all-ones operator sum to (1,1,2,2)
        C = ToeplitzOperator(np.ones(4))
        schema = ParticipationSchema(n=4, b=2, k=2)
        assert sens_exact(C, schema) == pytest.approx(np.sqrt(10.0))

    def test_single_participation_is_column_norm(self):
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=20, gamma=0.5, bandwidth=4)
        C = strategy_coeffs(spec)
        schema = ParticipationSchema(n=20, b=20, k=1)
        assert sens_exact(C, schema) == pytest.approx(np.linalg.norm(C.coeffs))

    def test_requires_nonneg_nonincreasing(self):
        schema = ParticipationSchema(n=3, b=1, k=1)
        with pytest.raises(ValueError, match="requires nonnegative coefficients"):
            sens_exact(ToeplitzOperator(np.array([1.0, -0.5, 0.0])), schema)
        with pytest.raises(ValueError, match="requires nonincreasing coefficients"):
            sens_exact(ToeplitzOperator(np.array([1.0, 0.5, 0.8])), schema)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            sens_exact(ToeplitzOperator(np.ones(4)), ParticipationSchema(n=5, b=1, k=1))

    def test_longer_strategy_is_refused(self):
        """Over a shorter schema horizon the sensitivity would come out too small."""
        for sens in (sens_exact, sens_upper_bound):
            with pytest.raises(ValueError, match="strategy n=5 != schema n=4"):
                sens(ToeplitzOperator(np.ones(5)), ParticipationSchema(n=4, b=1, k=1))


class TestBruteforce:
    def catalog_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            kind = rng.integers(0, 4)
            if kind == 0:
                spec = FactorizationSpec(method=Method.IDENTITY, n=n)
            elif kind == 1:
                spec = FactorizationSpec(
                    method=Method.DP_LAMBDA_CGD, n=n, lam=float(rng.uniform(0, 0.9))
                )
            else:
                p = int(rng.integers(2, n + 1)) if n >= 2 else 1
                method = Method.GAMMA_BIFR if kind == 2 else Method.GAMMA_BFR
                spec = FactorizationSpec(
                    method=method, n=n, gamma=float(rng.uniform(0.05, 0.95)), bandwidth=p
                )
            b = int(rng.integers(1, n + 1))
            k = int(rng.integers(1, (n - 1) // b + 2))
            yield strategy_coeffs(spec), ParticipationSchema(n=n, b=b, k=k)

    def test_matches_exact_on_catalog(self):
        for C, schema in self.catalog_instances():
            assert sens_bruteforce(C, schema) == pytest.approx(
                sens_exact(C, schema), abs=1e-10
            )

    def test_cap(self):
        with pytest.raises(ValueError):
            sens_bruteforce(ToeplitzOperator(np.ones(25)), ParticipationSchema(n=25, b=1, k=1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="brute-force oracle requires nonnegative coefficients"):
            sens_bruteforce(
                ToeplitzOperator(np.array([1.0, -0.5])), ParticipationSchema(n=2, b=1, k=1)
            )


class TestUpperBound:
    def test_identity_bound(self):
        eye = np.zeros(4)
        eye[0] = 1.0
        schema = ParticipationSchema(n=4, b=2, k=2)
        # k*l2^2 + (k/b)*l1^2 = 2 + 1 = 3
        assert sens_upper_bound(ToeplitzOperator(eye), schema) == pytest.approx(np.sqrt(3.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_dominates_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        c = np.sort(rng.uniform(0.0, 1.0, n))[::-1].copy()
        c[0] = max(c[0], 1e-3)
        C = ToeplitzOperator(c)
        b = int(rng.integers(1, n + 1))
        k = int(rng.integers(1, (n - 1) // b + 2))
        schema = ParticipationSchema(n=n, b=b, k=k)
        assert sens_upper_bound(C, schema) >= sens_exact(C, schema) - 1e-12
