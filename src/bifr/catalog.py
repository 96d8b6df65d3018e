"""Coefficient generators for the supported noise-correlation factorizations.

Every factorization is described by the first-column coefficients of its
strategy matrix C (and, for banded-inverse methods, of the explicitly banded
inverse C^{-1}, whose reciprocal series is C).  The central family is the
banded inverse fractional root: C^{-1} carries the first p binomial-series
coefficients of (1-x)^gamma on its subdiagonals, which recovers the banded
inverse square root at gamma = 1/2 and the one-step geometric correlator at
p = 2.
"""

from __future__ import annotations

import dataclasses
import enum

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


#: Methods whose inverse is explicitly banded, enabling streaming noise
#: correlation with a buffer of bandwidth-1 generator states.
BANDED_INVERSE_METHODS = frozenset(
    {Method.GAMMA_BIFR, Method.BISR, Method.DP_LAMBDA_CGD, Method.IDENTITY}
)


@dataclasses.dataclass(frozen=True)
class FactorizationSpec:
    """Tagged description of a factorization method and its parameters."""

    method: Method
    n: int
    gamma: float | None = None
    lam: float | None = None
    c: float | None = None
    bandwidth: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"horizon must be >= 1, got n={self.n}")
        m = self.method
        if m in (Method.GAMMA_BIFR, Method.GAMMA_BFR):
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise DomainError(f"{m.value} requires gamma in (0, 1), got {self.gamma}")
            self._check_bandwidth(required=True)
        elif m is Method.BISR:
            if self.gamma is not None and self.gamma != 0.5:
                raise DomainError("bisr fixes gamma = 1/2")
            self._check_bandwidth(required=True)
        elif m is Method.DP_LAMBDA_CGD:
            if self.lam is None or not 0.0 <= self.lam < 1.0:
                raise DomainError(f"dp-lambda-cgd requires lambda in [0, 1), got {self.lam}")
        elif m is Method.INV_DECAY:
            if self.c is None:
                raise DomainError("inv-decay requires the offset parameter c")
            self._check_bandwidth(required=True)
            p = self.bandwidth
            if p >= 2 and 1.0 / (p - 1) + self.c < 0.0:
                raise DomainError(
                    f"inv-decay coefficient 1/{p - 1} + c is negative for c={self.c}"
                )
        elif m is Method.IDENTITY:
            pass
        else:  # pragma: no cover
            raise DomainError(f"unknown method {m}")

    def _check_bandwidth(self, required: bool):
        p = self.bandwidth
        if p is None:
            if required:
                raise DomainError(f"{self.method.value} requires a bandwidth")
            return
        if not 1 <= p <= self.n:
            raise DomainError(f"bandwidth must satisfy 1 <= p <= n, got p={p}, n={self.n}")


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


def _effective_gamma(spec: FactorizationSpec) -> float:
    return 0.5 if spec.method is Method.BISR else spec.gamma


def inverse_bandwidth(spec: FactorizationSpec) -> int:
    """Number of nonzero subdiagonals of C^{-1} for banded-inverse methods."""
    m = spec.method
    if m in (Method.GAMMA_BIFR, Method.BISR):
        return min(spec.bandwidth, spec.n)
    if m is Method.DP_LAMBDA_CGD:
        return min(2, spec.n) if spec.lam != 0.0 else 1
    if m is Method.IDENTITY:
        return 1
    raise DomainError(f"{m.value} does not have a banded inverse")


def inverse_band(spec: FactorizationSpec) -> np.ndarray:
    """The explicit band of C^{-1}: its first inverse_bandwidth(spec) coefficients.

    Banded-inverse methods only; every later coefficient of C^{-1} is zero.
    The strategy C and the streaming engine's weights both follow from it.
    """
    p = inverse_bandwidth(spec)
    if spec.method in (Method.GAMMA_BIFR, Method.BISR):
        return binomial_coeffs_pos(_effective_gamma(spec), p)
    band = np.ones(p)
    if p == 2:  # dp-lambda-cgd: 1 - lambda x
        band[1] = -spec.lam
    return band


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
    band; for gamma-bifr and bisr its head is the exact (1-x)^{-gamma} series.
    """
    m, n = spec.method, spec.n
    if m in BANDED_INVERSE_METHODS:
        band = inverse_band(spec)
        head = None
        if m in (Method.GAMMA_BIFR, Method.BISR):
            head = binomial_coeffs_neg(_effective_gamma(spec), band.size)
        return ToeplitzOperator(reciprocal_series(band, n, head))
    p = min(spec.bandwidth, n)
    coeffs = np.zeros(n)
    if m is Method.GAMMA_BFR:
        coeffs[:p] = binomial_coeffs_neg(spec.gamma, p)
    else:  # Method.INV_DECAY
        coeffs[0] = 1.0
        coeffs[1:p] = 1.0 / np.arange(1, p) + spec.c
    return ToeplitzOperator(coeffs)
