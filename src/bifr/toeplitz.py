"""Lower-triangular Toeplitz (LTT) operators stored by first-column coefficients.

An n x n lower-triangular Toeplitz matrix is fully determined by its first
column (a_0, ..., a_{n-1}): entry (i, j) equals a_{i-j} for i >= j and 0
otherwise.  All operations here work directly on the coefficient sequence,
which is much cheaper than materializing the n^2 matrix; dense materialization
is only provided for small oracle checks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# Dense materialization is only meant for oracle-style cross checks.
DENSE_CAP = 4096


class DimensionError(ValueError):
    """Operand sizes are incompatible."""


@dataclasses.dataclass(frozen=True, eq=False)
class ToeplitzOperator:
    """Immutable LTT operator; ``coeffs[r]`` is the value on subdiagonal r."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise DimensionError("coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.size


def band_length(coeffs: np.ndarray) -> int:
    """One past the index of the last nonzero coefficient (1 when all are zero)."""
    nz = np.flatnonzero(coeffs)
    return int(nz[-1]) + 1 if nz.size else 1


def reciprocal_series(band: np.ndarray, n: int, head: np.ndarray | None = None) -> np.ndarray:
    """First n coefficients of 1/band(x), by doubling the known prefix.

    ``head``, if given, holds the exact first coefficients of the series;
    otherwise the series starts from 1/band[0].  With r[:t] known and
    q = len(band) - 1, the next L = min(t, n - t) coefficients solve
    band * r[t:t+L] = -u (mod x^L), where u_i = sum_{k>i} band[k] r[t+i-k]
    is the part of the convolution already known.  Since r[:L] is 1/band to
    that order, r[t:t+L] = -(r[:L] * u)[:L]: two convolutions per pass,
    ceil(log2 n) passes and O(n*q) work in all.
    """
    band = np.asarray(band, dtype=np.float64)
    if band[0] == 0.0:
        raise ValueError("diagonal coefficient is zero")
    r = np.zeros(n)
    if head is None:
        r[0] = 1.0 / band[0]
        t = 1
    else:
        t = min(len(head), n)
        r[:t] = head[:t]
    q = len(band) - 1
    if q == 0:
        return r
    while t < n:
        lo = max(0, t - q)
        L = min(t, n - t)
        known = np.convolve(band[1:], r[lo:t])
        u = known[t - lo - 1 : t - lo - 1 + min(L, q)]
        r[t : t + L] = -np.convolve(r[:L], u)[:L]
        t += L
    return r


def ltt_inverse(a: ToeplitzOperator) -> ToeplitzOperator:
    """Inverse of an LTT operator: the reciprocal series of its trimmed band.

    If only the first q coefficients are nonzero the cost is O(n*q).
    """
    c = a.coeffs
    return ToeplitzOperator(reciprocal_series(c[: band_length(c)], a.n))


def column_norms(a: ToeplitzOperator) -> tuple[float, float]:
    """First-column (l1, l2) norms.

    For nonnegative coefficients these equal the operator norms ||.||_{1->1}
    and ||.||_{1->2}.  Signed inputs are handled by taking absolute values,
    which yields an upper bound rather than the exact operator norm.
    """
    c = np.abs(a.coeffs)
    return float(np.sum(c)), float(np.sqrt(np.sum(c * c)))


def materialize_dense(a: ToeplitzOperator) -> np.ndarray:
    """Dense n x n matrix; refuses n > DENSE_CAP to keep oracle use desk-scale."""
    n = a.n
    if n > DENSE_CAP:
        raise DimensionError(f"refusing dense materialization at n={n} > cap={DENSE_CAP}")
    m = np.zeros((n, n))
    rows = np.arange(n)
    for r in range(n):
        m[rows[r:], rows[: n - r]] = a.coeffs[r]
    return m
