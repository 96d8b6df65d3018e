import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from bifr.catalog import (
    METHOD_PARAMS,
    PARAM_FIELDS,
    FactorizationSpec,
    Method,
    binomial_series,
    inverse_band,
    inverse_coeffs,
    strategy_coeffs,
)
from bifr.metrics import rmse
from bifr.tuner import DEFAULT_GAMMA_GRID, default_schema


def closed_form_neg(gamma, m):
    """Oracle: c_j = Gamma(gamma + j) / (Gamma(gamma) * j!) via log-gamma."""
    j = np.arange(m)
    return np.exp(gammaln(gamma + j) - gammaln(gamma) - gammaln(j + 1))


def closed_form_pos(gamma, m):
    """Oracle: |c_j| = Gamma(j - gamma) / (Gamma(-gamma) ... ); use the
    ratio form j>=1: |c_j| = gamma * Gamma(j - gamma) / (Gamma(1 - gamma) * j!)."""
    out = np.empty(m)
    out[0] = 1.0
    j = np.arange(1, m)
    mag = gamma * np.exp(gammaln(j - gamma) - gammaln(1.0 - gamma) - gammaln(j + 1))
    out[1:] = -mag
    return out


class TestCoefficientSeries:
    """``binomial_series(a, m)``: a = -gamma is the (1-x)^-gamma series, a = gamma (1-x)^gamma's."""

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_neg_series_closed_form(self, gamma):
        got = binomial_series(-gamma, 200)
        np.testing.assert_allclose(got, closed_form_neg(gamma, 200), rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_pos_series_closed_form(self, gamma):
        got = binomial_series(gamma, 200)
        np.testing.assert_allclose(got, closed_form_pos(gamma, 200), rtol=1e-12)

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.55, 0.7, 0.95])
    def test_series_equal_sequential_loop(self, gamma):
        # The recurrences evaluated one coefficient at a time, in Python floats.
        m = 3000
        neg, pos = [1.0], [1.0]
        for j in range(1, m):
            neg.append(neg[-1] * ((gamma + (j - 1)) / j))
            pos.append(pos[-1] * ((j - 1 - gamma) / j))
        for k in (1, 2, 7, m):
            np.testing.assert_array_equal(binomial_series(-gamma, k), neg[:k])
            np.testing.assert_array_equal(binomial_series(gamma, k), pos[:k])

    def test_half_hand_values(self):
        np.testing.assert_allclose(
            binomial_series(0.5, 4), [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=0
        )
        np.testing.assert_allclose(
            binomial_series(-0.5, 4), [1.0, 0.5, 0.375, 0.3125], rtol=0, atol=0
        )

    def test_first_entry_is_exact_gamma(self):
        for gamma in (0.1, 0.35, 0.77):
            assert binomial_series(-gamma, 2)[1] == gamma
            assert binomial_series(gamma, 2)[1] == -gamma

    def test_neg_positive_decreasing(self):
        c = binomial_series(-0.4, 500)
        assert np.all(c > 0)
        assert np.all(np.diff(c) <= 0)

    def test_pos_signs(self):
        c = binomial_series(0.4, 500)
        assert c[0] == 1.0
        assert np.all(c[1:] < 0)

    def test_gamma_domain(self):
        for bad in (0.0, 1.0, -1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"must satisfy 0 < |a| < 1, got {bad}")):
                binomial_series(bad, 4)

    # the ids name the series each exponent gives: (1-x)^-1/2 and (1-x)^1/2
    @pytest.mark.parametrize("a", [-0.5, 0.5], ids=["binomial_coeffs_neg", "binomial_coeffs_pos"])
    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_at_least_one_coefficient(self, a, m):
        with pytest.raises(ValueError, match=f"need at least one coefficient, got m={m}"):
            binomial_series(a, m)


class TestSpecValidation:
    def test_gamma_required(self):
        with pytest.raises(ValueError, match="gamma-bifr requires gamma$"):
            FactorizationSpec(method=Method.GAMMA_BIFR, n=8, bandwidth=2)
        with pytest.raises(ValueError, match=re.escape("requires gamma in (0, 1), got 1.2")):
            FactorizationSpec(method=Method.GAMMA_BIFR, n=8, gamma=1.2, bandwidth=2)

    def test_bandwidth_range(self):
        with pytest.raises(ValueError, match="bandwidth must satisfy 1 <= p <= n, got p=9, n=8"):
            FactorizationSpec(method=Method.BISR, n=8, bandwidth=9)
        with pytest.raises(ValueError, match="bandwidth must satisfy 1 <= p <= n, got p=0, n=8"):
            FactorizationSpec(method=Method.BISR, n=8, bandwidth=0)
        FactorizationSpec(method=Method.BISR, n=8, bandwidth=1)  # degenerate band ok

    def test_bisr_fixes_gamma(self):
        with pytest.raises(ValueError, match="bisr takes no gamma"):
            FactorizationSpec(method=Method.BISR, n=8, gamma=0.3, bandwidth=2)

    def test_lambda_range(self):
        with pytest.raises(ValueError, match=re.escape("lambda in [0, 1), got 1.0")):
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=8, lam=1.0)
        FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=8, lam=0.0)

    def test_inv_decay_offset(self):
        with pytest.raises(ValueError, match=re.escape("1/3 + c is negative for c=-2.0")):
            FactorizationSpec(method=Method.INV_DECAY, n=8, c=-2.0, bandwidth=4)
        FactorizationSpec(method=Method.INV_DECAY, n=8, c=-1.0 / 3.0, bandwidth=4)

    @pytest.mark.parametrize(
        "spec_kw",
        [
            dict(method=Method.IDENTITY, gamma=0.3),
            dict(method=Method.IDENTITY, c=0.0),
            dict(method=Method.IDENTITY, bandwidth=2),
            dict(method=Method.GAMMA_BIFR, gamma=0.5, bandwidth=4, lam=0.5),
            dict(method=Method.BISR, bandwidth=4, c=0.0),
            dict(method=Method.DP_LAMBDA_CGD, lam=0.5, bandwidth=2),
            dict(method=Method.GAMMA_BFR, gamma=0.5, bandwidth=4, c=0.0),
            dict(method=Method.INV_DECAY, c=0.0, bandwidth=4, gamma=0.5),
            # bisr is gamma-bifr at gamma = 1/2; that gamma spelled out is refused too
            dict(method=Method.BISR, bandwidth=4, gamma=0.5),
        ],
    )
    def test_field_the_method_does_not_take(self, spec_kw):
        method = spec_kw["method"]
        refused = set(spec_kw) - {"method", *METHOD_PARAMS[method]}
        (name,) = [n for n, f in PARAM_FIELDS.items() if f in refused]
        with pytest.raises(ValueError, match=f"^{method.value} takes no {name}$"):
            FactorizationSpec(n=8, **spec_kw)

    @pytest.mark.parametrize("p", [2.5, 2.0, np.float64(2.0), float("nan"), "2"])
    def test_non_integer_bandwidth(self, p):
        with pytest.raises(ValueError, match=f"bandwidth must be an integer, got bandwidth={p}$"):
            FactorizationSpec(method=Method.GAMMA_BIFR, n=8, gamma=0.5, bandwidth=p)

    @pytest.mark.parametrize("n", [8.0, 8.5, np.float64(8.0), "8", None])
    def test_non_integer_horizon(self, n):
        # strategy_coeffs would fail later with a TypeError from np.zeros(n); None, at once.
        with pytest.raises(ValueError, match=f"horizon must be an integer, got n={n}$"):
            FactorizationSpec(method=Method.IDENTITY, n=n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_horizon_below_one(self, n):
        with pytest.raises(ValueError, match=f"horizon must be >= 1, got n={n}"):
            FactorizationSpec(method=Method.IDENTITY, n=n)

    def test_method_by_name(self):
        kw = dict(n=8, gamma=0.5, bandwidth=2)
        spec = FactorizationSpec(method="gamma-bifr", **kw)
        assert spec == FactorizationSpec(method=Method.GAMMA_BIFR, **kw)
        assert spec.method is Method.GAMMA_BIFR

    @pytest.mark.parametrize("name", ["gamma_bifr", "GAMMA_BIFR", "", None])
    def test_unknown_method_is_domain_error(self, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown method {name!r}")):
            FactorizationSpec(method=name, n=8)

    def test_numpy_integer_horizon(self):
        spec = FactorizationSpec(method=Method.IDENTITY, n=np.int64(8))
        assert strategy_coeffs(spec).n == 8

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_non_finite_inv_decay_offset(self, c, p):
        # At p = 1 the offset reaches no coefficient, so nan used to pass silently.
        with pytest.raises(ValueError, match=f"inv-decay requires a finite c, got {c}$"):
            FactorizationSpec(method=Method.INV_DECAY, n=8, c=c, bandwidth=p)

    def test_inv_decay_offset_too_large_for_a_float(self):
        # math.isfinite raised OverflowError on it
        with pytest.raises(ValueError, match=f"inv-decay requires a finite c, got {10**400}$"):
            FactorizationSpec(method=Method.INV_DECAY, n=4, c=10**400, bandwidth=2)

    @pytest.mark.parametrize("real", [Decimal, Fraction, np.float32, np.float64])
    @pytest.mark.parametrize(
        "method, field, value, bandwidth",
        [("gamma-bifr", "gamma", "0.5", 4), ("gamma-bfr", "gamma", "0.25", 4),
         ("dp-lambda-cgd", "lam", "0.75", None), ("inv-decay", "c", "-0.25", 4)],
    )  # fmt: skip
    def test_reals_are_stored_as_floats(self, real, method, field, value, bandwidth):
        # A Decimal gamma, lambda or c was stored as given, and rmse raised TypeError in numpy.
        def spec(v):
            return FactorizationSpec(method=method, n=16, bandwidth=bandwidth, **{field: v})

        given, plain = spec(real(value)), spec(float(value))
        assert type(getattr(given, field)) is float and given == plain
        schema = default_schema(16, 2)
        assert rmse(given, schema) == rmse(plain, schema)

    def test_bool_offset_is_stored_as_a_float(self):
        spec = FactorizationSpec(method=Method.INV_DECAY, n=8, c=True, bandwidth=2)
        assert type(spec.c) is float and spec.c == 1.0

    def test_numpy_integer_bandwidth(self):
        spec = FactorizationSpec(
            method=Method.GAMMA_BIFR, n=8, gamma=0.5, bandwidth=np.int64(3)
        )
        assert inverse_band(spec).size == 3


class TestFactorizations:
    def spec(self, **kw):
        return FactorizationSpec(**kw)

    def test_inverse_structure(self):
        spec = self.spec(method=Method.GAMMA_BIFR, n=5, gamma=0.5, bandwidth=3)
        np.testing.assert_array_equal(
            inverse_coeffs(spec).coeffs, [1.0, -0.5, -0.125, 0.0, 0.0]
        )

    def test_strategy_hand_values(self):
        spec = self.spec(method=Method.GAMMA_BIFR, n=5, gamma=0.5, bandwidth=3)
        np.testing.assert_allclose(
            strategy_coeffs(spec).coeffs,
            [1.0, 0.5, 0.375, 0.25, 0.171875],
            rtol=0,
            atol=1e-16,
        )

    @pytest.mark.parametrize(
        "spec_kw",
        [
            dict(method=Method.GAMMA_BIFR, n=24, gamma=0.3, bandwidth=5),
            dict(method=Method.BISR, n=24, bandwidth=4),
            dict(method=Method.DP_LAMBDA_CGD, n=24, lam=0.6),
            dict(method=Method.GAMMA_BFR, n=24, gamma=0.7, bandwidth=6),
            dict(method=Method.INV_DECAY, n=24, c=-0.05, bandwidth=6),
            dict(method=Method.IDENTITY, n=24),
        ],
    )
    def test_strategy_times_inverse_is_identity(self, spec_kw):
        spec = self.spec(**spec_kw)
        prod = np.convolve(strategy_coeffs(spec).coeffs, inverse_coeffs(spec).coeffs)
        np.testing.assert_allclose(prod[: spec.n], np.eye(spec.n)[0], atol=1e-12)

    def test_unbanded_head_matches_series(self):
        # inside the band the strategy equals the untruncated series
        spec = self.spec(method=Method.GAMMA_BIFR, n=32, gamma=0.4, bandwidth=10)
        head = strategy_coeffs(spec).coeffs[:10]
        np.testing.assert_array_equal(head, binomial_series(-0.4, 10))

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.35, 0.9])
    def test_lambda_cgd_is_geometric_and_matches_band2(self, lam):
        n = 64
        geo = strategy_coeffs(self.spec(method=Method.DP_LAMBDA_CGD, n=n, lam=lam))
        np.testing.assert_allclose(geo.coeffs, lam ** np.arange(n), rtol=1e-12)
        if lam > 0.0:
            band2 = strategy_coeffs(
                self.spec(method=Method.GAMMA_BIFR, n=n, gamma=lam, bandwidth=2)
            )
            np.testing.assert_array_equal(geo.coeffs, band2.coeffs)

    def test_bisr_equals_half_exponent(self):
        a = strategy_coeffs(self.spec(method=Method.BISR, n=128, bandwidth=8))
        b = strategy_coeffs(
            self.spec(method=Method.GAMMA_BIFR, n=128, gamma=0.5, bandwidth=8)
        )
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_bfr_is_truncated_series(self):
        spec = self.spec(method=Method.GAMMA_BFR, n=12, gamma=0.6, bandwidth=4)
        c = strategy_coeffs(spec).coeffs
        np.testing.assert_array_equal(c[:4], binomial_series(-0.6, 4))
        assert np.all(c[4:] == 0.0)

    def test_inv_decay_band(self):
        spec = self.spec(method=Method.INV_DECAY, n=8, c=-0.1, bandwidth=4)
        c = strategy_coeffs(spec).coeffs
        np.testing.assert_allclose(c[:4], [1.0, 0.9, 0.4, 1.0 / 3.0 - 0.1])
        assert np.all(c[4:] == 0.0)

    def test_strategy_nonneg_nonincreasing(self):
        for gamma in (0.1, 0.5, 0.9):
            spec = self.spec(method=Method.GAMMA_BIFR, n=200, gamma=gamma, bandwidth=7)
            c = strategy_coeffs(spec).coeffs
            assert np.all(c >= 0)
            assert np.all(np.diff(c) <= 1e-15)

    def test_inverse_bandwidth(self):
        assert inverse_band(self.spec(method=Method.IDENTITY, n=8)).size == 1
        assert inverse_band(self.spec(method=Method.DP_LAMBDA_CGD, n=8, lam=0.0)).size == 1
        assert inverse_band(self.spec(method=Method.DP_LAMBDA_CGD, n=8, lam=0.3)).size == 2
        assert (
            inverse_band(self.spec(method=Method.BISR, n=8, bandwidth=5)).size == 5
        )
        with pytest.raises(ValueError, match="gamma-bfr does not have a banded inverse"):
            inverse_band(self.spec(method=Method.GAMMA_BFR, n=8, gamma=0.5, bandwidth=2))

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize(
        "preset, gamma, p",
        [
            (dict(method=Method.BISR, bandwidth=1), 0.5, 1),
            (dict(method=Method.BISR, bandwidth=8), 0.5, 8),
            (dict(method=Method.DP_LAMBDA_CGD, lam=0.3), 0.3, 2),
            (dict(method=Method.DP_LAMBDA_CGD, lam=0.6), 0.6, 2),
            (dict(method=Method.DP_LAMBDA_CGD, lam=0.0), 0.2, 1),
            (dict(method=Method.DP_LAMBDA_CGD, lam=0.0), 0.7, 1),
            (dict(method=Method.IDENTITY), 0.2, 1),
            (dict(method=Method.IDENTITY), 0.7, 1),
        ],
    )
    def test_presets_are_gamma_bifr_bit_for_bit(self, n, preset, gamma, p):
        # Each banded-inverse method is gamma-BIFR(gamma, p), both cut at n.
        preset = {k: min(v, n) if k == "bandwidth" else v for k, v in preset.items()}
        a = self.spec(n=n, **preset)
        b = self.spec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=min(p, n))
        np.testing.assert_array_equal(inverse_band(a), inverse_band(b))
        np.testing.assert_array_equal(strategy_coeffs(a).coeffs, strategy_coeffs(b).coeffs)

    def test_banded_inverse_set(self):
        # The four banded-inverse methods return a band; the two that band C are refused.
        banded = {
            Method.GAMMA_BIFR: dict(gamma=0.3, bandwidth=4),
            Method.BISR: dict(bandwidth=4),
            Method.DP_LAMBDA_CGD: dict(lam=0.3),
            Method.IDENTITY: {},
        }
        for method, kw in banded.items():
            assert inverse_band(self.spec(method=method, n=8, **kw))[0] == 1.0
        for method, kw in [(Method.GAMMA_BFR, dict(gamma=0.3)), (Method.INV_DECAY, dict(c=0.0))]:
            spec = self.spec(method=method, n=8, bandwidth=4, **kw)
            with pytest.raises(ValueError, match=f"{method.value} does not have a banded inverse"):
                inverse_band(spec)


class TestLongHorizon:
    """C from the doubling recursion at the release horizon n = 65536."""

    N = 65536

    @pytest.mark.parametrize("p", [2, 64, 256])
    @pytest.mark.parametrize("gamma", [0.05, 0.5, 0.95])
    def test_strategy_times_inverse_is_identity(self, gamma, p):
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=self.N, gamma=gamma, bandwidth=p)
        band = inverse_coeffs(spec).coeffs[:p]
        # C^{-1} is banded, so the product is an O(n*p) convolution.
        prod = np.convolve(strategy_coeffs(spec).coeffs, band)[: self.N]
        unit = np.zeros(self.N)
        unit[0] = 1.0
        np.testing.assert_allclose(prod, unit, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [2, 16, 256])
    def test_strategy_nonneg_nonincreasing(self, p):
        # The hypothesis of the sensitivity closed form, over the tuning grid.
        for gamma in DEFAULT_GAMMA_GRID:
            spec = FactorizationSpec(
                method=Method.GAMMA_BIFR, n=self.N, gamma=gamma, bandwidth=p
            )
            c = strategy_coeffs(spec).coeffs
            assert np.all(c >= 0.0), gamma
            assert np.all(np.diff(c) <= 0.0), gamma


@pytest.mark.parametrize("n", [1, 2, 5, 1000, 4096])
@pytest.mark.parametrize(
    "spec_kw",
    [
        dict(method=Method.GAMMA_BIFR, gamma=0.3, bandwidth=1),
        dict(method=Method.GAMMA_BIFR, gamma=0.3, bandwidth=2),
        dict(method=Method.GAMMA_BIFR, gamma=0.7, bandwidth=64),
        dict(method=Method.BISR, bandwidth=5),
        dict(method=Method.DP_LAMBDA_CGD, lam=0.0),
        dict(method=Method.DP_LAMBDA_CGD, lam=0.6),
        dict(method=Method.GAMMA_BFR, gamma=0.7, bandwidth=6),
        dict(method=Method.INV_DECAY, c=-0.05, bandwidth=6),
        dict(method=Method.IDENTITY),
    ],
)
def test_coefficients_take_few_convolutions(monkeypatch, n, spec_kw):
    # Two convolutions per doubling pass; a per-coefficient loop makes ~n.
    if "bandwidth" in spec_kw:
        spec_kw = dict(spec_kw, bandwidth=min(spec_kw["bandwidth"], n))
    spec = FactorizationSpec(n=n, **spec_kw)
    calls = []
    convolve = np.convolve
    monkeypatch.setattr(np, "convolve", lambda *a: calls.append(1) or convolve(*a))
    bound = 2 * math.ceil(math.log2(n)) + 2
    strategy_coeffs(spec)
    assert len(calls) <= bound
    calls.clear()
    inverse_coeffs(spec)
    assert len(calls) <= bound
