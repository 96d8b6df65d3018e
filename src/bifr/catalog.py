"""Coefficient generators for the supported noise-correlation factorizations.

Every factorization is described by the first-column coefficients of its
strategy matrix C (and, for banded-inverse methods, of the explicitly banded
inverse C^{-1}, whose reciprocal series is C).  The central family is the
banded inverse fractional root: C^{-1} carries the first p binomial-series
coefficients of (1-x)^gamma on its subdiagonals, which recovers the banded
inverse square root at gamma = 1/2, the one-step geometric correlator at
p = 2 and the identity at p = 1.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator

import numpy as np

from .toeplitz import ToeplitzOperator, ltt_inverse, reciprocal_series


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class Method(enum.Enum):
    GAMMA_BIFR = "gamma-bifr"
    BISR = "bisr"
    DP_LAMBDA_CGD = "dp-lambda-cgd"
    GAMMA_BFR = "gamma-bfr"
    INV_DECAY = "inv-decay"
    IDENTITY = "identity"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown method {value!r}")


#: Methods whose inverse is explicitly banded, enabling streaming noise
#: correlation with a buffer of bandwidth-1 generator states.
BANDED_INVERSE_METHODS = frozenset(
    {Method.GAMMA_BIFR, Method.BISR, Method.DP_LAMBDA_CGD, Method.IDENTITY}
)


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
    """A method (a ``Method`` or its name) and its parameters; integers are stored as ints."""

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
                object.__setattr__(self, field, None if value is None else operator.index(value))
            except TypeError:
                raise DomainError(f"{what} must be an integer, got {field}={value}") from None
        if self.n < 1:
            raise DomainError(f"horizon must be >= 1, got n={self.n}")
        object.__setattr__(self, "method", Method(self.method))
        m = self.method
        takes = METHOD_PARAMS[m]
        for name, field in PARAM_FIELDS.items():
            value = getattr(self, field)
            if field in takes:
                if value is None:
                    raise DomainError(f"{m.value} requires {name}")
            elif value is not None:
                raise DomainError(f"{m.value} takes no {name}")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise DomainError(f"{m.value} requires gamma in (0, 1), got {self.gamma}")
        if self.lam is not None and not 0.0 <= self.lam < 1.0:
            raise DomainError(f"dp-lambda-cgd requires lambda in [0, 1), got {self.lam}")
        p = self.bandwidth
        if p is not None and not 1 <= p <= self.n:
            raise DomainError(f"bandwidth must satisfy 1 <= p <= n, got p={p}, n={self.n}")
        if self.c is not None and not math.isfinite(self.c):
            raise DomainError(f"inv-decay requires a finite c, got {self.c}")
        if self.c is not None and p >= 2 and 1.0 / (p - 1) + self.c < 0.0:
            raise DomainError(
                f"inv-decay coefficient 1/{p - 1} + c is negative for c={self.c}"
            )


def binomial_coeffs_neg(gamma: float, m: int) -> np.ndarray:
    """Series coefficients of (1-x)^{-gamma}: positive and decreasing.

    c_0 = 1 and c_j = c_{j-1} * (gamma + j - 1) / j.
    """
    j = _series_index(gamma, m)
    # Grouping the integer part first keeps c_1 == gamma exactly.
    return _running_product((gamma + (j - 1.0)) / j)


def binomial_coeffs_pos(gamma: float, m: int) -> np.ndarray:
    """Series coefficients of (1-x)^{+gamma}: 1 followed by negative terms.

    c_0 = 1 and c_j = c_{j-1} * (j - 1 - gamma) / j.
    """
    j = _series_index(gamma, m)
    return _running_product(((j - 1.0) - gamma) / j)


def _series_index(gamma: float, m: int) -> np.ndarray:
    """The indices 1 .. m-1 of a series' ratios, once gamma and m are checked."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
    if m < 1:
        raise DomainError(f"need at least one coefficient, got m={m}")
    return np.arange(1.0, m)


def _running_product(ratios: np.ndarray) -> np.ndarray:
    """1 followed by the running products of ``ratios``, multiplied left to right."""
    out = np.empty(ratios.size + 1)
    out[0] = 1.0
    np.multiply.accumulate(ratios, out=out[1:])
    return out


def _band_params(spec: FactorizationSpec) -> tuple[float, int]:
    """The gamma-BIFR preset (gamma, p) of a banded-inverse method.

    C^{-1} carries the first p coefficients of (1-x)^gamma.  bisr is
    gamma = 1/2, dp-lambda-cgd is gamma = lambda at p = 2, and identity is
    p = 1, where gamma has no effect.
    """
    m, n = spec.method, spec.n
    if m is Method.GAMMA_BIFR:
        return spec.gamma, spec.bandwidth
    if m is Method.BISR:
        return 0.5, spec.bandwidth
    if m is Method.DP_LAMBDA_CGD and spec.lam > 0.0:
        return spec.lam, min(2, n)
    if m in (Method.DP_LAMBDA_CGD, Method.IDENTITY):
        return 0.5, 1
    raise DomainError(f"{m.value} does not have a banded inverse")


def inverse_band(spec: FactorizationSpec) -> np.ndarray:
    """The explicit band of C^{-1}: the first p coefficients of (1-x)^gamma.

    Banded-inverse methods only; every later coefficient of C^{-1} is zero.
    The strategy C and the streaming engine's weights both follow from it.
    """
    return binomial_coeffs_pos(*_band_params(spec))


def inverse_coeffs(spec: FactorizationSpec) -> ToeplitzOperator:
    """First-column coefficients of C^{-1}.

    Explicit and O(p) for banded-inverse methods; the reciprocal series of
    the strategy band otherwise.
    """
    if spec.method in BANDED_INVERSE_METHODS:
        band = inverse_band(spec)
        coeffs = np.zeros(spec.n)
        coeffs[: band.size] = band
        return ToeplitzOperator(coeffs)
    return ltt_inverse(strategy_coeffs(spec))


def strategy_coeffs(spec: FactorizationSpec) -> ToeplitzOperator:
    """First-column coefficients of the strategy matrix C.

    For banded-inverse methods C is the reciprocal series of the inverse
    band, whose first p coefficients are the exact (1-x)^{-gamma} series.
    """
    m, n = spec.method, spec.n
    if m in BANDED_INVERSE_METHODS:
        gamma, p = _band_params(spec)
        head = binomial_coeffs_neg(gamma, p)
        return ToeplitzOperator(reciprocal_series(binomial_coeffs_pos(gamma, p), n, head))
    p = spec.bandwidth
    coeffs = np.zeros(n)
    if m is Method.GAMMA_BFR:
        coeffs[:p] = binomial_coeffs_neg(spec.gamma, p)
    else:  # Method.INV_DECAY
        coeffs[0] = 1.0
        coeffs[1:p] = 1.0 / np.arange(1, p) + spec.c
    return ToeplitzOperator(coeffs)
