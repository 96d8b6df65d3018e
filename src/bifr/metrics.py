"""Root-mean-square error of a factorization: ||B||_F * sens(C) / sqrt(n).

B is the noise-shaping matrix E * C^{-1} (E the running-sum operator), so the
released running sums carry B-shaped noise.  Both factors are evaluated from
first-column coefficients only.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .calibration import PrivacyBudget, gaussian_sigma
from .catalog import FactorizationSpec, inverse_coeffs, strategy_coeffs
from .sensitivity import ParticipationSchema, sens_exact
from .toeplitz import ToeplitzOperator


@dataclasses.dataclass(frozen=True)
class RmseReport:
    spec: FactorizationSpec
    schema: ParticipationSchema
    frobenius_factor: float  # ||B||_F / sqrt(n)
    sensitivity: float
    rmse: float
    sigma: float | None = None
    scaled_rmse: float | None = None


def frobenius_ltt(a: ToeplitzOperator) -> float:
    """Frobenius norm from coefficients: subdiagonal r holds n-r copies of a_r."""
    n = a.n
    weights = np.arange(n, 0, -1, dtype=np.float64)
    return float(np.sqrt(np.dot(weights, a.coeffs * a.coeffs)))


def b_operator(spec: FactorizationSpec) -> ToeplitzOperator:
    """Coefficients of B = E * C^{-1}: running sums of the inverse coefficients.

    For banded-inverse methods the inverse is explicit and this is O(n).
    """
    return ToeplitzOperator(np.cumsum(inverse_coeffs(spec).coeffs))


def rmse(
    spec: FactorizationSpec,
    schema: ParticipationSchema,
    budget: PrivacyBudget | None = None,
) -> RmseReport:
    """Evaluate the RMSE objective for a factorization under a schema."""
    ff = frobenius_ltt(b_operator(spec)) / math.sqrt(spec.n)
    sens = sens_exact(strategy_coeffs(spec), schema)
    value = ff * sens
    sigma = scaled = None
    if budget is not None:
        sigma = gaussian_sigma(budget)
        scaled = value * sigma
    return RmseReport(
        spec=spec,
        schema=schema,
        frobenius_factor=ff,
        sensitivity=sens,
        rmse=value,
        sigma=sigma,
        scaled_rmse=scaled,
    )
