"""Gaussian-mechanism noise multiplier at unit sensitivity.

Finds the smallest sigma with
Phi(1/(2*sigma) - eps*sigma) - e^eps * Phi(-1/(2*sigma) - eps*sigma) <= delta
by bisection; the left-hand side is the exact privacy curve of the unit-
sensitivity Gaussian mechanism and is decreasing in sigma.

In floating point the two terms cancel: at eps = 0.01, delta = 1e-20 each is
about 1.4e4 times delta, and the computed difference a - e^eps*b came out
8.4e-11 of delta too low, enough to accept a sigma whose true delta is above
the target.  So the bisection tests an upper bound on the true curve instead:
the computed difference plus a bound on its rounding error.
"""

from __future__ import annotations

import dataclasses
import math
import sys

_MAX_SIGMA = 2.0**200
_DEFAULT_TOL = 1e-9
_UNIT_ROUNDOFF = 2.0**-53


@dataclasses.dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float

    def __post_init__(self):
        # e^epsilon must be a float: the privacy curve multiplies by it
        if not 0.0 < self.epsilon <= math.log(sys.float_info.max):
            raise ValueError(f"epsilon must lie in (0, 709.78...], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _curve_terms(sigma: float, epsilon: float) -> tuple[float, float]:
    """The two terms a and e^eps * b of the privacy curve, as computed."""
    t = epsilon * sigma
    a = _phi(1.0 / (2.0 * sigma) - t)
    b = _phi(-1.0 / (2.0 * sigma) - t)
    return a, math.exp(epsilon) * b


def delta_for_sigma(sigma: float, epsilon: float) -> float:
    """Tight delta achieved by the unit-sensitivity Gaussian mechanism."""
    if sigma <= 0.0:
        return 1.0
    a, eb = _curve_terms(sigma, epsilon)
    # Guard against rounding pushing the difference negative far in the tail.
    return max(a - eb, 0.0)


def _delta_upper_bound(sigma: float, epsilon: float) -> float:
    """An upper bound on the true delta at ``sigma``: computed curve plus error.

    Both Phi arguments have magnitude at most s = 1/(2*sigma) + eps*sigma and
    are computed, with the division by sqrt(2), to within 4*u*s (u the unit
    roundoff).  Since Phi'(x)/Phi(x) <= |x| + 1, that moves each Phi term by at
    most 4*u*s*(s + 1) of itself.  Allowing 15 ulps for each math.erfc and
    math.exp call and 2 for the product and the difference, the computed
    a - e^eps*b is within (4*s*(s + 1) + 32) * u * (a + e^eps*b) of the true
    value to first order; the bound doubles that for the higher-order terms.
    """
    a, eb = _curve_terms(sigma, epsilon)
    s = 1.0 / (2.0 * sigma) + epsilon * sigma
    rel = 2.0 * (4.0 * s * (s + 1.0) + 32.0) * _UNIT_ROUNDOFF
    return a - eb + rel * (a + eb)


def gaussian_sigma(budget: PrivacyBudget) -> float:
    """Smallest sigma (within absolute tolerance ``_DEFAULT_TOL``) meeting the budget.

    Every sigma it returns passed an upper bound on the true privacy curve,
    so its true delta is at most ``budget.delta`` despite rounding.  Past
    sigma = 2**23 floats lie farther apart than the tolerance, so there the
    bisection stops when no float lies strictly between its ends.
    """
    eps, delta = budget.epsilon, budget.delta
    lo, hi = 0.0, 1.0
    while _delta_upper_bound(hi, eps) > delta:
        if hi >= _MAX_SIGMA:
            raise ValueError(f"no sigma up to 2**200 meets epsilon={eps}, delta={delta}")
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while hi - lo > _DEFAULT_TOL and lo < mid < hi:
        if _delta_upper_bound(mid, eps) <= delta:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi
