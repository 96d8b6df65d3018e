import re

import numpy as np
import pytest

from bifr.catalog import FactorizationSpec, Method
from bifr.metrics import rmse
from bifr.tuner import (
    DEFAULT_GAMMA_GRID,
    default_schema,
    sweep,
    tune_method,
)


def bifr_template(n=64, p=4):
    return FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=0.5, bandwidth=p)


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


class TestSweep:
    def test_best_is_grid_minimum(self):
        schema = default_schema(64, 1)
        result = sweep(bifr_template(), "gamma", DEFAULT_GAMMA_GRID, schema)
        values = dict(result.grid)
        assert result.best_rmse == min(values.values())
        assert values[result.best_param] == result.best_rmse
        assert all(result.best_rmse <= v for v in values.values())

    def test_grid_rows_match_direct_evaluation(self):
        schema = default_schema(32, 2)
        result = sweep(bifr_template(n=32), "gamma", (0.2, 0.8), schema)
        for value, r in result.grid:
            spec = FactorizationSpec(
                method=Method.GAMMA_BIFR, n=32, gamma=value, bandwidth=4
            )
            assert r == rmse(spec, schema).rmse

    def test_tie_breaks_to_smaller_param(self):
        schema = default_schema(32, 1)
        # at bandwidth 1 every gamma gives C = I, so the rows tie exactly
        result = sweep(bifr_template(n=32, p=1), "gamma", (0.7, 0.3, 0.5), schema)
        assert len({r for _, r in result.grid}) == 1 and result.best_param == 0.3
        # order independence of the reported best
        a = sweep(bifr_template(n=32), "gamma", (0.3, 0.7), schema)
        b = sweep(bifr_template(n=32), "gamma", (0.7, 0.3), schema)
        assert a.best_param == b.best_param and a.best_rmse == b.best_rmse

    def test_refining_never_hurts(self):
        schema = default_schema(64, 1)
        coarse = np.round(np.arange(1, 10) * 0.1, 10)
        fine = np.round(np.arange(1, 20) * 0.05, 10)
        best_coarse = sweep(bifr_template(), "gamma", coarse, schema).best_rmse
        best_fine = sweep(bifr_template(), "gamma", fine, schema).best_rmse
        assert best_fine <= best_coarse

    def test_lambda_sweep_beats_or_ties_dp_sgd(self):
        schema = default_schema(256, 4)
        template = FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=256, lam=0.0)
        grid = np.round(np.arange(10) * 0.1, 10)
        result = sweep(template, "lambda", grid, schema)
        assert result.best_rmse <= dict(result.grid)[0.0]

    def test_bandwidth_sweep(self):
        schema = default_schema(64, 1)
        result = sweep(bifr_template(), "bandwidth", (2, 4, 8, 16), schema)
        assert result.best_param in (2.0, 4.0, 8.0, 16.0)

    def test_errors(self):
        schema = default_schema(32, 1)
        with pytest.raises(ValueError, match="sweep grid is empty"):
            sweep(bifr_template(n=32), "gamma", (), schema)
        with pytest.raises(ValueError, match="unknown sweep parameter 'sigma'"):
            sweep(bifr_template(n=32), "sigma", (0.5,), schema)
        with pytest.raises(ValueError, match=re.escape("requires gamma in (0, 1), got 1.5")):
            sweep(bifr_template(n=32), "gamma", (1.5,), schema)
        with pytest.raises(ValueError, match=r"sweep grid lists gamma=0\.3 twice"):
            sweep(bifr_template(n=32), "gamma", [0.3, 0.3], schema)
        with pytest.raises(ValueError, match=r"sweep grid lists bandwidth=4\.0 twice"):
            sweep(bifr_template(n=32), "bandwidth", (4, 8, 4.0), schema)

    @pytest.mark.parametrize("value", [2.5, float("inf"), float("nan")])
    def test_non_integer_bandwidth_refused(self, value):
        # A row must be evaluated at the bandwidth it reports.
        with pytest.raises(ValueError, match=f"must be an integer, got bandwidth={value}$"):
            sweep(bifr_template(), "bandwidth", (value, 4), default_schema(64, 1))

    def test_point_too_large_for_a_float_refused(self):
        # float() raised OverflowError on it
        with pytest.raises(ValueError, match="sweep grid point bandwidth=10* is too large"):
            sweep(bifr_template(), "bandwidth", [10**400], default_schema(64, 1))

    def test_parameter_the_method_does_not_take(self):
        with pytest.raises(ValueError, match="gamma-bifr takes no lambda"):
            sweep(bifr_template(), "lambda", (0.1, 0.5, 0.9), default_schema(64, 1))


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
