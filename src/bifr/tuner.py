"""Per-method tuning: the best RMSE over each method's natural parameter grid."""

from __future__ import annotations

import numpy as np

from .catalog import METHOD_PARAMS, FactorizationSpec, Method
from .metrics import RmseReport, rmse
from .sensitivity import ParticipationSchema

#: 0.05-step grid used for the fractional exponent and the geometric decay.
DEFAULT_GAMMA_GRID = tuple(np.round(np.arange(1, 20) * 0.05, 10))


def default_schema(n: int, k: int) -> ParticipationSchema:
    """Multi-epoch convention: b = floor(n / k), so k may not exceed n."""
    if 0 < n < k:  # b would be 0, which the schema would blame
        raise ValueError(f"k={k} participations exceed n={n} steps")
    # The schema refuses k < 1; max() only keeps b from dividing by zero first.
    return ParticipationSchema(n=n, b=n // max(k, 1), k=k)


def _bandwidth_powers(n: int) -> list[int]:
    """2, 4, 8, ... up to n, or [1] at n = 1, where no larger bandwidth fits."""
    out = []
    p = 2
    while p <= n:
        out.append(p)
        p *= 2
    return out or [1]


def _scalar_grid(field, p):
    """The values tune_method tries for a method's scalar field at bandwidth p."""
    if field == "gamma":
        return DEFAULT_GAMMA_GRID
    if field == "lam":
        return (0.0, *DEFAULT_GAMMA_GRID)
    if field == "c":
        # Offsets keeping the band nonnegative and nonincreasing.
        return np.linspace(-1.0 / (p - 1) if p >= 2 else 0.0, 0.0, 21)
    return (None,)


def tune_method(method: Method | str, schema: ParticipationSchema, bandwidths=None) -> RmseReport:
    """Best RMSE for a method over its natural parameter grid(s).

    Bandwidth defaults to powers of two up to n for banded methods, and a
    method that takes none refuses a list (``FactorizationSpec``); the
    scalar parameter is swept per bandwidth over DEFAULT_GAMMA_GRID (gamma),
    0 and that grid (lambda), or 21 offsets (c).  The first candidate with
    the smallest RMSE wins.  ``method`` may be a ``Method`` or its name.
    """
    method, n = Method(method), schema.n
    takes = METHOD_PARAMS[method]
    if bandwidths is None:
        bandwidths = _bandwidth_powers(n) if "bandwidth" in takes else (None,)
    scalar = next((field for field in takes if field != "bandwidth"), None)
    best = None
    for p in bandwidths:
        for value in _scalar_grid(scalar, p):
            fields = {} if scalar is None else {scalar: value}
            spec = FactorizationSpec(method=method, n=n, bandwidth=p, **fields)
            report = rmse(spec, schema)
            if best is None or report.rmse < best.rmse:
                best = report
    if best is None:
        raise ValueError(f"{method.value} has no candidate to tune over")
    return best
