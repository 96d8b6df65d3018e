import pytest

from bifr.catalog import FactorizationSpec, Method
from bifr.metrics import rmse
from bifr.tuner import DEFAULT_GAMMA_GRID, default_schema, tune_method


class TestDefaults:
    def test_gamma_grid(self):
        assert len(DEFAULT_GAMMA_GRID) == 19
        assert DEFAULT_GAMMA_GRID[0] == 0.05
        assert DEFAULT_GAMMA_GRID[-1] == 0.95
        assert 0.5 in DEFAULT_GAMMA_GRID

    def test_default_schema(self):
        schema = default_schema(100, 4)
        assert (schema.n, schema.b, schema.k) == (100, 25, 4)

    def test_default_schema_refuses_zero_k(self):
        # b = n // k used to raise ZeroDivisionError before the schema saw k.
        with pytest.raises(ValueError, match="n, b, k must be positive"):
            default_schema(16, 0)


class TestTuneMethod:
    def test_identity_has_nothing_to_tune(self):
        schema = default_schema(64, 1)
        report = tune_method(Method.IDENTITY, schema)
        assert report == rmse(FactorizationSpec(method=Method.IDENTITY, n=64), schema)

    def test_tuned_never_worse_than_fixed_point(self):
        schema = default_schema(128, 2)
        tuned = tune_method(Method.GAMMA_BIFR, schema, bandwidths=(4, 8))
        fixed = rmse(
            FactorizationSpec(method=Method.GAMMA_BIFR, n=128, gamma=0.5, bandwidth=8),
            schema,
        )
        assert tuned.rmse <= fixed.rmse

    def test_lambda_includes_identity_point(self):
        schema = default_schema(64, 1)
        tuned = tune_method(Method.DP_LAMBDA_CGD, schema)
        at_zero = rmse(
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=64, lam=0.0), schema
        )
        assert tuned.rmse <= at_zero.rmse

    def test_inv_decay_and_bfr_tunable(self):
        schema = default_schema(64, 1)
        a = tune_method(Method.INV_DECAY, schema, bandwidths=(8,))
        b = tune_method(Method.GAMMA_BFR, schema, bandwidths=(8,))
        assert a.rmse > 0 and b.rmse > 0

    @pytest.mark.parametrize("method", [Method.GAMMA_BIFR, Method.BISR, Method.INV_DECAY])
    def test_one_step_horizon_tunes_bandwidth_one(self, method):
        assert tune_method(method, default_schema(1, 1)).spec.bandwidth == 1

    def test_method_by_name(self):
        schema = default_schema(64, 2)
        assert tune_method("bisr", schema) == tune_method(Method.BISR, schema)

    def test_unknown_method_is_domain_error(self):
        with pytest.raises(ValueError, match="unknown method 'bsir'"):
            tune_method("bsir", default_schema(64, 1))

    @pytest.mark.parametrize("method", [Method.IDENTITY, Method.DP_LAMBDA_CGD])
    def test_bandwidths_for_a_method_without_one_is_refused(self, method):
        schema = default_schema(64, 2)
        with pytest.raises(ValueError, match=f"{method.value} takes no bandwidth"):
            tune_method(method, schema, bandwidths=[4])
        # without a list, the method's own grid is tuned as before
        lams = (0.0, *DEFAULT_GAMMA_GRID) if method is Method.DP_LAMBDA_CGD else (None,)
        reports = [rmse(FactorizationSpec(method=method, n=64, lam=v), schema) for v in lams]
        assert tune_method(method, schema, bandwidths=None) == min(reports, key=lambda r: r.rmse)

    def test_empty_grid_is_domain_error(self):
        schema = default_schema(64, 1)
        with pytest.raises(ValueError, match="gamma-bifr has no candidate to tune over"):
            tune_method(Method.GAMMA_BIFR, schema, bandwidths=[])
        with pytest.raises(ValueError, match="bisr has no candidate to tune over"):
            tune_method(Method.BISR, schema, bandwidths=[])
