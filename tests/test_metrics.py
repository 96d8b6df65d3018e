import math

import numpy as np
import pytest

from bifr.calibration import PrivacyBudget, gaussian_sigma
from bifr.catalog import FactorizationSpec, Method, inverse_coeffs, strategy_coeffs
from bifr.metrics import b_operator, frobenius_ltt, rmse
from bifr.sensitivity import ParticipationSchema, sens_exact
from bifr.toeplitz import ToeplitzOperator, materialize_dense


class TestFrobenius:
    def test_against_dense(self):
        rng = np.random.default_rng(0)
        for n in (1, 4, 13):
            c = rng.standard_normal(n)
            op = ToeplitzOperator(c)
            assert frobenius_ltt(op) == pytest.approx(
                np.linalg.norm(materialize_dense(op)), rel=1e-12
            )

    def test_prefix_sum_value(self):
        # ||E||_F^2 = n(n+1)/2
        assert frobenius_ltt(ToeplitzOperator(np.ones(4))) == pytest.approx(math.sqrt(10.0))


class TestBOperator:
    @pytest.mark.parametrize(
        "spec_kw",
        [
            dict(method=Method.GAMMA_BIFR, n=16, gamma=0.5, bandwidth=4),
            dict(method=Method.DP_LAMBDA_CGD, n=16, lam=0.4),
            dict(method=Method.GAMMA_BFR, n=16, gamma=0.3, bandwidth=5),
            dict(method=Method.IDENTITY, n=16),
        ],
    )
    def test_matches_dense_product(self, spec_kw):
        spec = FactorizationSpec(**spec_kw)
        E = materialize_dense(ToeplitzOperator(np.ones(spec.n)))
        dense = E @ materialize_dense(inverse_coeffs(spec))
        np.testing.assert_allclose(
            materialize_dense(b_operator(spec)), dense, atol=1e-12
        )

    def test_identity_gives_prefix_sums(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=6)
        np.testing.assert_array_equal(b_operator(spec).coeffs, np.ones(6))


class TestRmse:
    def test_identity_hand_value(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=4)
        schema = ParticipationSchema(n=4, b=4, k=1)
        report = rmse(spec, schema)
        assert report.rmse == pytest.approx(math.sqrt(10.0) / 2.0)
        assert report.sensitivity == pytest.approx(1.0)

    def test_consistent_with_parts(self):
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=32, gamma=0.6, bandwidth=8)
        schema = ParticipationSchema(n=32, b=8, k=4)
        report = rmse(spec, schema)
        ff = frobenius_ltt(b_operator(spec)) / math.sqrt(spec.n)
        sens = sens_exact(strategy_coeffs(spec), schema)
        assert report.frobenius_factor == ff
        assert report.sensitivity == sens
        assert report.rmse == ff * sens

    def test_budget_scaling(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=4)
        schema = ParticipationSchema(n=4, b=4, k=1)
        budget = PrivacyBudget(1.0, 1e-5)
        report = rmse(spec, schema, budget)
        assert report.sigma == gaussian_sigma(budget)
        assert report.scaled_rmse == pytest.approx(report.rmse * report.sigma)
        assert rmse(spec, schema).sigma is None

    def test_n_mismatch(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=4)
        with pytest.raises(ValueError, match="strategy n=4 != schema n=5"):
            rmse(spec, ParticipationSchema(n=5, b=5, k=1))

    def test_correlation_beats_independent_noise_long_horizon(self):
        n = 256
        schema = ParticipationSchema(n=n, b=n, k=1)
        plain = rmse(FactorizationSpec(method=Method.IDENTITY, n=n), schema)
        shaped = rmse(
            FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=0.5, bandwidth=16),
            schema,
        )
        assert shaped.rmse < plain.rmse
