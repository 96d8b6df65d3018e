"""Coefficient generators for the supported noise-correlation factorizations.

Every factorization is described by the first-column coefficients of its
strategy matrix C and of its inverse C^{-1}.  Each method has one explicit
band, on one of the two sides; the other side is the band's reciprocal
series.  The central family is the banded inverse fractional root: C^{-1}
carries the first p binomial-series coefficients of (1-x)^gamma, which
recovers the banded inverse square root at gamma = 1/2, the one-step
geometric correlator at p = 2 and the identity at p = 1.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator

import numpy as np

from .toeplitz import ToeplitzOperator, reciprocal_series


class Method(enum.Enum):
    GAMMA_BIFR = "gamma-bifr"
    BISR = "bisr"
    DP_LAMBDA_CGD = "dp-lambda-cgd"
    GAMMA_BFR = "gamma-bfr"
    INV_DECAY = "inv-decay"
    IDENTITY = "identity"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown method {value!r}")


#: Each parameter's public name (CLI flag and sweep name) and its spec field.
PARAM_FIELDS = {"gamma": "gamma", "lambda": "lam", "c": "c", "bandwidth": "bandwidth"}

#: The spec fields each method takes; a spec leaves every other field unset.
METHOD_PARAMS = {
    Method.GAMMA_BIFR: ("gamma", "bandwidth"),
    Method.BISR: ("bandwidth",),
    Method.DP_LAMBDA_CGD: ("lam",),
    Method.GAMMA_BFR: ("gamma", "bandwidth"),
    Method.INV_DECAY: ("c", "bandwidth"),
    Method.IDENTITY: (),
}


@dataclasses.dataclass(frozen=True)
class FactorizationSpec:
    """A method (a ``Method`` or its name) and its parameters: counts as ints, reals as floats."""

    method: Method
    n: int
    gamma: float | None = None
    lam: float | None = None
    c: float | None = None
    bandwidth: int | None = None

    def __post_init__(self):
        for field, what in (("n", "horizon"), ("bandwidth", "bandwidth")):
            value = getattr(self, field)
            try:
                if value is not None or field == "n":  # only the bandwidth may be unset
                    object.__setattr__(self, field, operator.index(value))
            except TypeError:
                raise ValueError(f"{what} must be an integer, got {field}={value}") from None
        if self.n < 1:
            raise ValueError(f"horizon must be >= 1, got n={self.n}")
        object.__setattr__(self, "method", Method(self.method))
        m = self.method
        takes = METHOD_PARAMS[m]
        for name, field in PARAM_FIELDS.items():
            value = getattr(self, field)
            if field in takes:
                if value is None:
                    raise ValueError(f"{m.value} requires {name}")
            elif value is not None:
                raise ValueError(f"{m.value} takes no {name}")
            if value is not None and field != "bandwidth":  # a real, stored as a Python float
                try:
                    object.__setattr__(self, field, float(value))
                except OverflowError:  # an int past the largest float
                    raise ValueError(f"{m.value} requires a finite {name}, got {value}") from None
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"{m.value} requires gamma in (0, 1), got {self.gamma}")
        if self.lam is not None and not 0.0 <= self.lam < 1.0:
            raise ValueError(f"dp-lambda-cgd requires lambda in [0, 1), got {self.lam}")
        p = self.bandwidth
        if p is not None and not 1 <= p <= self.n:
            raise ValueError(f"bandwidth must satisfy 1 <= p <= n, got p={p}, n={self.n}")
        if self.c is not None and not math.isfinite(self.c):
            raise ValueError(f"inv-decay requires a finite c, got {self.c}")
        if self.c is not None and p >= 2 and 1.0 / (p - 1) + self.c < 0.0:
            raise ValueError(f"inv-decay coefficient 1/{p - 1} + c is negative for c={self.c}")


def binomial_series(a: float, m: int) -> np.ndarray:
    """The first m series coefficients of (1-x)^a, for 0 < |a| < 1.

    c_0 = 1 and c_j = c_{j-1} * ((j - 1) - a) / j, so c_1 == -a exactly.
    """
    if not 0.0 < abs(a) < 1.0:
        raise ValueError(f"a must satisfy 0 < |a| < 1, got {a}")
    if m < 1:
        raise ValueError(f"need at least one coefficient, got m={m}")
    j = np.arange(1.0, m)
    return np.concatenate(([1.0], np.multiply.accumulate(((j - 1.0) - a) / j)))


def _explicit_band(spec: FactorizationSpec) -> tuple[np.ndarray, bool, np.ndarray | None]:
    """The method's explicit band, whether it is C^{-1}'s, and the exact head of the other side.

    A banded-inverse method is a gamma-BIFR preset (gamma, p): C^{-1} carries
    the first p coefficients of (1-x)^gamma and C starts with those of
    (1-x)^{-gamma}.  bisr is gamma = 1/2, dp-lambda-cgd is gamma = lambda at
    p = 2, and identity is p = 1, where gamma has no effect.  gamma-bfr and
    inv-decay band C instead, and get no head: gamma-bfr's C^{-1} agrees with
    (1-x)^gamma up to x^{p-1}, but seeding that head would move its bits.
    """
    m, p = spec.method, spec.bandwidth
    if m is Method.GAMMA_BFR:
        return binomial_series(-spec.gamma, p), False, None
    if m is Method.INV_DECAY:
        return np.concatenate(([1.0], 1.0 / np.arange(1, p) + spec.c)), False, None
    if m is Method.DP_LAMBDA_CGD and spec.lam > 0.0:
        gamma, p = spec.lam, min(2, spec.n)
    elif m in (Method.DP_LAMBDA_CGD, Method.IDENTITY):
        gamma, p = 0.5, 1
    else:  # gamma-bifr, and bisr at gamma = 1/2
        gamma = 0.5 if m is Method.BISR else spec.gamma
    return binomial_series(gamma, p), True, binomial_series(-gamma, p)


def inverse_band(spec: FactorizationSpec) -> np.ndarray:
    """The explicit band of C^{-1}: the first p coefficients of (1-x)^gamma.

    Banded-inverse methods only; every later coefficient of C^{-1} is zero.
    The strategy C and the streaming engine's weights both follow from it.
    """
    band, on_inverse, _ = _explicit_band(spec)
    if not on_inverse:
        raise ValueError(f"{spec.method.value} does not have a banded inverse")
    return band


def _side_coeffs(spec: FactorizationSpec, inverse: bool) -> ToeplitzOperator:
    """C^{-1} (``inverse``) or C: the explicit band zero-padded to n on its own
    side; on the other, the band's reciprocal series seeded with the head."""
    band, on_inverse, head = _explicit_band(spec)
    if on_inverse is inverse:
        coeffs = np.zeros(spec.n)
        coeffs[: band.size] = band
    else:
        coeffs = reciprocal_series(band, spec.n, head)
    return ToeplitzOperator(coeffs)


def inverse_coeffs(spec: FactorizationSpec) -> ToeplitzOperator:
    """First-column coefficients of C^{-1}; O(p) for banded-inverse methods."""
    return _side_coeffs(spec, inverse=True)


def strategy_coeffs(spec: FactorizationSpec) -> ToeplitzOperator:
    """First-column coefficients of the strategy matrix C."""
    return _side_coeffs(spec, inverse=False)
