"""Numerical verification suites for the coefficient and norm inequalities.

Each suite is one ``SUITES`` entry: its margins functions, each with the
axes of its grid.  It yields one ``(margin, where)`` pair per point: the
margin is the bound minus the measured quantity, so positive means pass.
``run_suite`` records every suite through one rule: a margin below -1e-12,
or NaN, is a violation, so strict inequalities are tested as non-strict to
respect floating-point ties.
Every suite checks a hard inequality; none has a heuristic criterion.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import partial

import numpy as np

from .catalog import FactorizationSpec, Method, binomial_series, strategy_coeffs
from .metrics import b_operator, frobenius_ltt, rmse
from .sensitivity import ParticipationSchema, sens_exact, sens_upper_bound
from .toeplitz import ToeplitzOperator, column_norms
from .tuner import DEFAULT_GAMMA_GRID

_SLACK = 1e-12
_MAX_DETAILS = 20
_GAMMAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """One suite's points, violations, least margin, and where its first 20 violations sit."""

    suite: str
    grid_size: int
    violations: int
    worst_margin: float
    details: tuple

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _report(suite: str, pairs) -> CheckReport:
    """Record a suite's (margin, where) pairs under the one violation rule."""
    grid_size, worst, failed = 0, math.inf, []
    for margin, where in pairs:
        grid_size += 1
        if margin < worst or math.isnan(margin):  # a NaN stays the worst
            worst = margin
        if not margin >= -_SLACK:
            failed.append(where)
    return CheckReport(suite, grid_size, len(failed), worst, tuple(failed[:_MAX_DETAILS]))


def harmonic_sum(m: int, s: float) -> float:
    """H_m^(s) = sum_{r=1}^{m} r^{-s}."""
    if m < 1:
        return 0.0
    r = np.arange(1, m + 1, dtype=np.float64)
    return float(np.sum(r**-s))


def harmonic_sum_bound(m: int, s: float) -> float:
    """Closed-form upper bound on H_m^(s) via integral comparison."""
    if m < 1:
        return 0.0
    if s < 1.0:
        return m ** (1.0 - s) / (1.0 - s)
    if s == 1.0:
        return 1.0 + math.log(m)
    return 1.0 + 1.0 / (s - 1.0)


def beta_decay(gamma: float, p: int) -> float:
    """Geometric decay rate of the strategy coefficients past the bandwidth."""
    t1 = (1.0 - gamma) / (2.0 * p) * math.log(2.0 * p / (p + 1.0))
    t2 = (1.0 - gamma) / (8.0 * p**gamma * (p - 1.0) ** (1.0 - gamma))
    return min(t1, t2)


def _coeff_margins(gamma: float, j_max: int):
    """Two-sided bounds on both binomial coefficient sequences at one gamma."""
    c = binomial_series(-gamma, j_max + 1)
    g = math.gamma(gamma)
    j = np.arange(1, j_max + 1, dtype=np.float64)
    lower = 1.0 / (g * (j + 1.0) ** (1.0 - gamma))
    upper = 1.0 / (g * j ** (1.0 - gamma))
    for jj in range(1, j_max + 1):
        yield min(c[jj] - lower[jj - 1], upper[jj - 1] - c[jj]), ("neg", gamma, jj)

    ct = np.abs(binomial_series(gamma, j_max + 1))
    g1 = math.gamma(1.0 - gamma)
    # Lower/upper bounds only apply from j = 2 onward.
    j2 = np.arange(2, j_max + 1, dtype=np.float64)
    lower_t = gamma / (g1 * j2 ** (gamma + 1.0))
    upper_t = gamma / (g1 * j2 * (j2 - 1.0) ** gamma)
    for jj in range(2, j_max + 1):
        yield min(ct[jj] - lower_t[jj - 2], upper_t[jj - 2] - ct[jj]), ("pos", gamma, jj)


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sums; keeps the identity check at ~1e-15 accuracy."""
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


def _prefix_margins(gamma: float, j_max: int):
    sums = _kahan_cumsum(binomial_series(gamma, j_max + 1))
    rhs = binomial_series(gamma - 1.0, j_max + 1)
    rel = np.abs(sums - rhs) / np.abs(rhs)
    for jj in range(j_max + 1):
        yield _SLACK - rel[jj], (gamma, jj)


def _tail_margins(gamma: float, p: int, n: int):
    spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
    c = strategy_coeffs(spec).coeffs
    yield float(np.min(c)) + _SLACK, ("nonneg", gamma, p)
    yield float(np.min(-np.diff(c))) + _SLACK, ("monotone", gamma, p)
    beta = beta_decay(gamma, p)
    yield beta - (1.0 - gamma) / (8.0 * p), ("beta-lower", gamma, p)
    yield (1.0 - gamma) / (4.0 * p) - beta, ("beta-upper", gamma, p)
    cg_p = binomial_series(-gamma, p + 1)[p]
    bound = cg_p * (1.0 - beta) ** np.arange(n - p)
    yield float(np.min(bound - c[p:])) + _SLACK * cg_p, ("tail", gamma, p)


def _frobenius_bound(gamma: float, p: int, n: int) -> float:
    g1sq = math.gamma(1.0 - gamma) ** 2
    return (
        n
        + n / g1sq * harmonic_sum(p - 1, 2.0 * gamma)
        + (n - p) * (n - p + 1) / (2.0 * g1sq * (p - 1.0) ** (2.0 * gamma))
    )


def _l2sq_bound(gamma: float, p: int) -> float:
    gsq = math.gamma(gamma) ** 2
    beta = beta_decay(gamma, p)
    return (
        1.0
        + harmonic_sum(p - 1, 2.0 - 2.0 * gamma) / gsq
        + 1.0 / (gsq * p ** (2.0 - 2.0 * gamma) * beta * (2.0 - beta))
    )


def _l1_bound(gamma: float, p: int) -> float:
    g = math.gamma(gamma)
    beta = beta_decay(gamma, p)
    return (
        1.0
        + harmonic_sum(p - 1, 1.0 - gamma) / g
        + 1.0 / (g * p ** (1.0 - gamma) * beta)
    )


def _norm_margins(gamma: float, p: int, n: int):
    """Frobenius and column-norm bounds for one banded fractional-root factor."""
    spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
    frob_sq = frobenius_ltt(b_operator(spec)) ** 2
    fb = _frobenius_bound(gamma, p, n)
    yield (fb - frob_sq) / fb, ("frobenius", gamma, p, n)
    l1, l2 = column_norms(strategy_coeffs(spec))
    l2b = _l2sq_bound(gamma, p)
    yield (l2b - l2 * l2) / l2b, ("l2", gamma, p, n)
    l1b = _l1_bound(gamma, p)
    yield (l1b - l1) / l1b, ("l1", gamma, p, n)


def _harmonic_margins(s: float, m: int):
    yield harmonic_sum_bound(m, s) - harmonic_sum(m, s), ("harmonic", s, m)


def _random_spec(rng, n: int) -> FactorizationSpec:
    kind = rng.integers(0, 5)
    if kind == 0:
        return FactorizationSpec(method=Method.IDENTITY, n=n)
    if kind == 1:
        return FactorizationSpec(
            method=Method.DP_LAMBDA_CGD, n=n, lam=float(rng.uniform(0.0, 0.95))
        )
    p = int(rng.integers(2, min(n, 64) + 1))
    gamma = float(rng.uniform(0.05, 0.95))
    if kind == 2:
        return FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
    if kind == 3:
        return FactorizationSpec(method=Method.GAMMA_BFR, n=n, gamma=gamma, bandwidth=p)
    c = float(rng.uniform(-1.0 / (p - 1), 0.0))
    return FactorizationSpec(method=Method.INV_DECAY, n=n, c=c, bandwidth=p)


def _sens_margin(C: ToeplitzOperator, schema: ParticipationSchema):
    """Exact sensitivity squared against the operator-norm bound, relative."""
    bound = sens_upper_bound(C, schema) ** 2
    return (bound - sens_exact(C, schema) ** 2) / bound, (schema.n, schema.b, schema.k)


def _sens_margins(instances: int, n_max: int):
    """The first two instances hand-made, the rest random specs and schemas with n <= n_max."""
    rng = np.random.default_rng(0)
    # Hand-checkable corners: the identity and the running-sum operator.
    eye = np.zeros(8)
    eye[0] = 1.0
    yield _sens_margin(ToeplitzOperator(eye), ParticipationSchema(n=8, b=2, k=4))
    yield _sens_margin(ToeplitzOperator(np.ones(4)), ParticipationSchema(n=4, b=2, k=2))
    for _ in range(instances - 2):
        n = int(rng.integers(4, n_max + 1))
        spec = _random_spec(rng, n)
        b = int(rng.integers(1, n + 1))
        k_cap = (n - 1) // b + 1
        k = int(rng.integers(1, k_cap + 1))
        yield _sens_margin(strategy_coeffs(spec), ParticipationSchema(n=n, b=b, k=k))


def _error_margins(gamma: float, p: int, n: int, k: int):
    """Measured RMSE against the bound the Frobenius, l2 and l1 bounds imply, relative."""
    spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
    b = n // k
    sens_sq = k * _l2sq_bound(gamma, p) + k / b * _l1_bound(gamma, p) ** 2
    bound = math.sqrt(_frobenius_bound(gamma, p, n) / n * sens_sq)
    measured = rmse(spec, ParticipationSchema(n=n, b=b, k=k)).rmse
    yield (bound - measured) / bound, ("error", gamma, p, n, k)


def _walk(parts):
    """Each part's margins at every point of the product of its axes, part by part."""
    for margins, *axes in parts:
        for point in itertools.product(*axes):
            yield from margins(*point)


SUITES = {
    # Two-sided bounds on both binomial coefficient sequences: gammas, j_max.
    "coeff-bounds": partial(_walk, [(_coeff_margins, DEFAULT_GAMMA_GRID, (1000,))]),
    # Running sums of the (1-x)^gamma series equal the (1-x)^-(1-gamma) series.
    "prefix-identity": partial(_walk, [(_prefix_margins, DEFAULT_GAMMA_GRID, (1000,))]),
    # Monotone nonnegative strategy coefficients plus the geometric tail bound.
    "monotone-tail": partial(_walk, [(_tail_margins, _GAMMAS, (2, 4, 8, 16), (512,))]),
    # Frobenius and column-norm bounds on the banded factors, then the harmonic-sum bound.
    "norm-bounds": partial(_walk, [
        (_norm_margins, _GAMMAS, (2, 8, 32), (128, 1024)),
        (_harmonic_margins, (0.5, 1.0, 2.0), (10, 100, 1000, 10000)),
    ]),
    # Exact sensitivity squared never exceeds the operator-norm bound: instances, largest n.
    "sens-bound": partial(_walk, [(_sens_margins, (200,), (256,))]),
    # The multi-epoch error claim through rmse: gamma-BIFR's RMSE at k participations, b = n // k,
    # is within sqrt(F/n * (k*L2 + k/b*L1^2)), F, L2 and L1 the bounds norm-bounds checks.
    "error-envelope": partial(
        _walk, [(_error_margins, _GAMMAS, (2, 8, 32), (128, 1024), (1, 4, 16))]
    ),
}


def run_suite(name: str) -> CheckReport:
    """Run one suite over its grid and record its margins."""
    if name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}")
    return _report(name, SUITES[name]())
