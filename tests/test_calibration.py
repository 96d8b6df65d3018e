import inspect
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from bifr import calibration
from bifr.calibration import (
    PrivacyBudget,
    delta_for_sigma,
    gaussian_sigma,
)


class TestBudget:
    def test_valid(self):
        PrivacyBudget(1.0, 1e-5)

    @pytest.mark.parametrize("real", [Decimal, Fraction, np.float64])
    def test_reals_are_stored_as_floats(self, real):
        # A Decimal epsilon was stored as given, and gaussian_sigma raised TypeError.
        budget = PrivacyBudget(real("1"), real("0.00001"))
        assert (type(budget.epsilon), type(budget.delta)) == (float, float)
        assert budget == PrivacyBudget(1.0, 1e-5)
        assert gaussian_sigma(budget) == gaussian_sigma(PrivacyBudget(1.0, 1e-5))

    def test_epsilon_too_large_for_a_float(self):
        with pytest.raises(ValueError, match=f"epsilon must be finite, got {10**400}$"):
            PrivacyBudget(10**400, 1e-5)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan, 710.0])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            PrivacyBudget(eps, 1e-5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 2.0])
    def test_bad_delta(self, delta):
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, delta)


class TestDeltaCurve:
    def test_matches_normal_cdf_oracle(self):
        for sigma in (0.3, 1.0, 4.0):
            for eps in (0.1, 1.0, 3.0):
                expected = norm.cdf(1 / (2 * sigma) - eps * sigma) - math.exp(
                    eps
                ) * norm.cdf(-1 / (2 * sigma) - eps * sigma)
                assert delta_for_sigma(sigma, eps) == pytest.approx(
                    max(expected, 0.0), abs=1e-14
                )

    def test_decreasing_in_sigma(self):
        sigmas = np.linspace(0.2, 10.0, 200)
        deltas = [delta_for_sigma(s, 1.0) for s in sigmas]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_nonpositive_sigma(self):
        assert delta_for_sigma(0.0, 1.0) == 1.0
        assert delta_for_sigma(-1.0, 1.0) == 1.0


class TestSigma:
    def test_reference_point(self):
        sigma = gaussian_sigma(PrivacyBudget(1.0, 1e-5))
        # tighter than the classical sqrt(2 ln(1.25/delta)) multiplier
        assert sigma <= math.sqrt(2.0 * math.log(1.25e5))
        assert sigma == pytest.approx(3.730632, abs=1e-5)

    @pytest.mark.parametrize(
        "eps,delta", [(0.1, 1e-6), (1.0, 1e-5), (4.0, 1e-8), (10.0, 1e-3)]
    )
    def test_bracketing_tightness(self, eps, delta):
        tol = calibration._DEFAULT_TOL
        sigma = gaussian_sigma(PrivacyBudget(eps, delta))
        assert delta_for_sigma(sigma, eps) <= delta
        assert delta_for_sigma(sigma - tol, eps) > delta

    def test_takes_only_the_budget(self):
        """The bisection tolerance is a constant, not a parameter."""
        assert list(inspect.signature(gaussian_sigma).parameters) == ["budget"]

    def test_monotone_in_budget(self):
        a = gaussian_sigma(PrivacyBudget(1.0, 1e-5))
        b = gaussian_sigma(PrivacyBudget(2.0, 1e-5))
        c = gaussian_sigma(PrivacyBudget(1.0, 1e-3))
        assert b < a and c < a


def true_delta(sigma, eps):
    """The privacy curve at the float ``sigma``, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        s, e = mpmath.mpf(sigma), mpmath.mpf(eps)
        return mpmath.ncdf(1 / (2 * s) - e * s) - mpmath.exp(e) * mpmath.ncdf(-1 / (2 * s) - e * s)


class TestCertifiedSigma:
    @pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-10, 1e-20, 1e-50, 1e-200])
    @pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1, 1.0, 4.0, 10.0])
    def test_true_delta_meets_target(self, eps, delta):
        """Against a 60-digit oracle: sigma meets delta, and is at most 1e-6 too large."""
        sigma = gaussian_sigma(PrivacyBudget(eps, delta))
        assert true_delta(sigma, eps) <= delta
        # the true curve decreases, so the exact minimum lies above sigma / (1 + 1e-6)
        assert true_delta(sigma / (1.0 + 1e-6), eps) > delta


class TestFloatResolution:
    @pytest.mark.parametrize("eps,delta", [(1e-8, 1e-9), (1e-12, 1e-12)])
    def test_sigma_past_two_to_the_23(self, eps, delta):
        # floats here lie farther apart than the 1e-9 tolerance
        sigma = gaussian_sigma(PrivacyBudget(eps, delta))
        assert sigma > 2.0**23
        assert calibration._delta_upper_bound(sigma, eps) <= delta
        assert calibration._delta_upper_bound(math.nextafter(sigma, 0.0), eps) > delta

    @pytest.mark.parametrize("eps", [709.0, 709.782712893384])
    def test_largest_epsilons_calibrate(self, eps):
        # 710 is refused (TestBudget): its e^eps overflows a float
        sigma = gaussian_sigma(PrivacyBudget(eps, 1e-5))
        assert 0.0 < sigma < 1.0 and calibration._delta_upper_bound(sigma, eps) <= 1e-5

    def test_uncertifiable_budget_is_a_value_error(self):
        with pytest.raises(ValueError, match="no sigma up to 2\\*\\*200"):
            gaussian_sigma(PrivacyBudget(1e-60, 1e-60))
