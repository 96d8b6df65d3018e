"""Grid sweeps over factorization parameters and per-method tuning."""

from __future__ import annotations

import dataclasses

import numpy as np

from .calibration import PrivacyBudget
from .catalog import DomainError, FactorizationSpec, Method
from .metrics import RmseReport, rmse
from .sensitivity import ParticipationSchema

#: 0.05-step grid used for the fractional exponent and the geometric decay.
DEFAULT_GAMMA_GRID = tuple(np.round(np.arange(1, 20) * 0.05, 10))

#: Sweepable parameter names and the FactorizationSpec field each one sets.
SWEEP_FIELDS = {"gamma": "gamma", "lambda": "lam", "c": "c", "bandwidth": "bandwidth"}


@dataclasses.dataclass(frozen=True)
class SweepResult:
    grid: tuple[tuple[float, float], ...]  # (parameter value, rmse)
    best_param: float
    best_rmse: float
    spec_template: FactorizationSpec
    schema: ParticipationSchema


def default_schema(n: int, k: int) -> ParticipationSchema:
    """Multi-epoch convention: b = floor(n / k)."""
    return ParticipationSchema(n=n, b=n // k, k=k)


def _with_param(template: FactorizationSpec, param: str, value) -> FactorizationSpec:
    if param == "bandwidth":
        if not float(value).is_integer():
            raise DomainError(f"bandwidth must be an integer, got {value}")
        value = int(value)
    return dataclasses.replace(template, **{SWEEP_FIELDS[param]: value})


def sweep(
    template: FactorizationSpec,
    param: str,
    grid,
    schema: ParticipationSchema,
    budget: PrivacyBudget | None = None,
) -> SweepResult:
    """Evaluate the RMSE at every grid point; ties go to the smaller value."""
    if param not in SWEEP_FIELDS:
        raise DomainError(f"unknown sweep parameter {param!r}")
    grid = list(grid)
    if not grid:
        raise DomainError("sweep grid is empty")
    rows = []
    for value in grid:
        spec = _with_param(template, param, value)
        rows.append((float(value), rmse(spec, schema, budget).rmse))
    best_param, best_rmse = min(rows, key=lambda pv: (pv[1], pv[0]))
    return SweepResult(
        grid=tuple(rows),
        best_param=best_param,
        best_rmse=best_rmse,
        spec_template=template,
        schema=schema,
    )


def _bandwidth_powers(n: int) -> list[int]:
    out = []
    p = 2
    while p <= n:
        out.append(p)
        p *= 2
    return out


def tune_method(
    method: Method,
    schema: ParticipationSchema,
    bandwidths=None,
    gamma_grid=DEFAULT_GAMMA_GRID,
    c_grid=None,
) -> RmseReport:
    """Best RMSE for a method over its natural parameter grid(s).

    Bandwidth defaults to powers of two up to n for banded methods; the
    scalar parameter (gamma, lambda, or c) is swept per bandwidth.
    """
    n = schema.n
    if method is Method.IDENTITY:
        return rmse(FactorizationSpec(method=method, n=n), schema)
    if method is Method.DP_LAMBDA_CGD:
        best = None
        for lam in (0.0, *gamma_grid):
            report = rmse(FactorizationSpec(method=method, n=n, lam=lam), schema)
            if best is None or report.rmse < best.rmse:
                best = report
        return best
    if bandwidths is None:
        bandwidths = _bandwidth_powers(n)
    best = None
    for p in bandwidths:
        if method is Method.BISR:
            candidates = [FactorizationSpec(method=method, n=n, bandwidth=p)]
        elif method in (Method.GAMMA_BIFR, Method.GAMMA_BFR):
            candidates = [
                FactorizationSpec(method=method, n=n, gamma=g, bandwidth=p)
                for g in gamma_grid
            ]
        elif method is Method.INV_DECAY:
            grid = c_grid
            if grid is None:
                # Offsets keeping the band nonnegative and nonincreasing.
                lo = -1.0 / (p - 1) if p >= 2 else 0.0
                grid = np.linspace(lo, 0.0, 21)
            candidates = [
                FactorizationSpec(method=method, n=n, c=float(c), bandwidth=p)
                for c in grid
            ]
        else:  # pragma: no cover
            raise DomainError(f"cannot tune method {method}")
        for spec in candidates:
            report = rmse(spec, schema)
            if best is None or report.rmse < best.rmse:
                best = report
    return best
