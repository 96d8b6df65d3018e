"""Brute-force reference for the multi-participation sensitivity.

It maximizes over every admissible participation pattern and never assumes
the regular pattern {0, b, 2b, ...} that ``sens_exact`` is built on.  Tests
compare the closed form with it on small instances.
"""

import numpy as np

from bifr.toeplitz import materialize_dense

# Exhaustive pattern enumeration is exponential in n.
BRUTEFORCE_CAP = 24


def sens_bruteforce(C, schema) -> float:
    """Exhaustively maximize over all admissible participation sets.

    Enumerates every S of size <= k with pairwise gaps >= b.  Exact for
    nonnegative C.  Capped at n <= 24.
    """
    n, b, k = schema.n, schema.b, schema.k
    if C.n != n:
        raise ValueError(f"operator size {C.n} != schema n {n}")
    if n > BRUTEFORCE_CAP:
        raise ValueError(f"brute force refuses n={n} > {BRUTEFORCE_CAP}")
    if np.any(C.coeffs < 0):
        raise ValueError("brute-force oracle requires nonnegative coefficients")

    masks = np.arange(1 << n, dtype=np.uint64)
    valid = np.ones(masks.size, dtype=bool)
    # Popcount <= k.
    pop = np.zeros(masks.size, dtype=np.uint8)
    tmp = masks.copy()
    one = np.uint64(1)
    for _ in range(n):
        pop += (tmp & one).astype(np.uint8)
        tmp >>= one
    valid &= pop <= k
    # Any two set bits closer than b apart rule the mask out.
    for gap in range(1, b):
        valid &= (masks & (masks >> np.uint64(gap))) == 0
    patterns = masks[valid]

    bits = (patterns[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & one
    sums = bits.astype(np.float64) @ materialize_dense(C).T
    return float(np.max(np.linalg.norm(sums, axis=1)))
