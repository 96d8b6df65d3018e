"""Multi-participation sensitivity under minimum-separation participation.

A data point may take part in at most k iterations, with at least b
iterations between consecutive participations.  For lower-triangular Toeplitz
strategies with nonnegative nonincreasing coefficients the worst case is a
closed form over shifted copies of the first column.  The tests check it
against a brute-force enumerator over all admissible participation patterns,
``tests/bruteforce_reference.py``, on small instances.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from .toeplitz import ToeplitzOperator, column_norms

# Absolute slack when checking the nonincreasing hypothesis, to tolerate
# floating-point ties.
_MONOTONE_TOL = 1e-12


class PreconditionError(ValueError):
    """A theorem hypothesis is violated by the inputs."""


@dataclasses.dataclass(frozen=True)
class ParticipationSchema:
    """(n, b, k): iterations, minimum separation, maximum participations."""

    n: int
    b: int
    k: int

    def __post_init__(self):
        for name in ("n", "b", "k"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 1 or self.b < 1 or self.k < 1:
            raise ValueError(f"n, b, k must be positive, got {self}")
        if self.b > self.n:
            raise ValueError(f"min separation b={self.b} exceeds n={self.n}")
        if (self.k - 1) * self.b > self.n - 1:
            raise ValueError(
                f"(k-1)*b = {(self.k - 1) * self.b} exceeds n-1 = {self.n - 1}"
            )


def _require_nonneg_nonincreasing(C: ToeplitzOperator):
    c = C.coeffs
    if np.any(c < -_MONOTONE_TOL):
        raise PreconditionError(
            "sensitivity closed form requires nonnegative coefficients"
        )
    if np.any(np.diff(c) > _MONOTONE_TOL):
        raise PreconditionError(
            "sensitivity closed form requires nonincreasing coefficients"
        )


def sens_exact(C: ToeplitzOperator, schema: ParticipationSchema) -> float:
    """Exact sensitivity for nonnegative nonincreasing Toeplitz strategies.

    The worst-case pattern is {0, b, 2b, ...}; the value is the l2 norm of the
    sum of the corresponding k columns of C.
    """
    _check_schema(C, schema)
    _require_nonneg_nonincreasing(C)
    n, b, k = schema.n, schema.b, schema.k
    acc = np.zeros(n)
    # The schema keeps (k-1)*b <= n-1, so every offset lies inside C.
    for off in range(0, k * b, b):
        acc[off:] += C.coeffs[: n - off]
    return float(np.linalg.norm(acc))


def sens_upper_bound(C: ToeplitzOperator, schema: ParticipationSchema) -> float:
    """Operator-norm bound: sens^2 <= k*l2^2 + (k/b)*l1^2."""
    _check_schema(C, schema)
    _require_nonneg_nonincreasing(C)
    l1, l2 = column_norms(C)
    return float(np.sqrt(schema.k * l2 * l2 + (schema.k / schema.b) * l1 * l1))


def _check_schema(C: ToeplitzOperator, schema: ParticipationSchema):
    if C.n != schema.n:
        raise ValueError(f"strategy n={C.n} != schema n={schema.n}")
