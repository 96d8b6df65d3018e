"""Numerical verification suites for the coefficient and norm inequalities.

Each suite evaluates a family of exact-constant inequalities or identities on
a parameter grid and reports the number of violations together with the
worst margin (bound minus measured quantity; positive means pass).  Strict
inequalities are tested as non-strict with a 1e-12 relative slack to respect
floating-point ties.  Asymptotic statements are only checked for envelope
stability, never as hard inequalities.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .catalog import (
    FactorizationSpec,
    Method,
    binomial_coeffs_neg,
    binomial_coeffs_pos,
    strategy_coeffs,
)
from .metrics import b_operator, frobenius_ltt, rmse
from .sensitivity import ParticipationSchema, sens_exact, sens_upper_bound
from .toeplitz import ToeplitzOperator, column_norms
from .tuner import DEFAULT_GAMMA_GRID

_SLACK = 1e-12
_MAX_DETAILS = 20


@dataclasses.dataclass
class CheckReport:
    suite: str
    grid_size: int
    violations: int
    worst_margin: float
    details: list[tuple]

    def _record(self, margin: float, where: tuple):
        self.grid_size += 1
        if margin < self.worst_margin:
            self.worst_margin = margin
        if margin < -_SLACK * max(1.0, abs(margin)):
            self.violations += 1
            if len(self.details) < _MAX_DETAILS:
                self.details.append(where)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _new_report(suite: str) -> CheckReport:
    return CheckReport(
        suite=suite, grid_size=0, violations=0, worst_margin=math.inf, details=[]
    )


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


def check_coeff_bounds(gamma_grid=None, j_max: int = 1000) -> CheckReport:
    """Two-sided bounds on both binomial coefficient sequences."""
    report = _new_report("coeff-bounds")
    for gamma in gamma_grid or DEFAULT_GAMMA_GRID:
        c = binomial_coeffs_neg(gamma, j_max + 1)
        g = math.gamma(gamma)
        j = np.arange(1, j_max + 1, dtype=np.float64)
        lower = 1.0 / (g * (j + 1.0) ** (1.0 - gamma))
        upper = 1.0 / (g * j ** (1.0 - gamma))
        for jj in range(1, j_max + 1):
            margin = min(c[jj] - lower[jj - 1], upper[jj - 1] - c[jj])
            report._record(margin, ("neg", gamma, jj))

        ct = np.abs(binomial_coeffs_pos(gamma, j_max + 1))
        g1 = math.gamma(1.0 - gamma)
        # Lower/upper bounds only apply from j = 2 onward.
        j2 = np.arange(2, j_max + 1, dtype=np.float64)
        lower_t = gamma / (g1 * j2 ** (gamma + 1.0))
        upper_t = gamma / (g1 * j2 * (j2 - 1.0) ** gamma)
        for jj in range(2, j_max + 1):
            margin = min(ct[jj] - lower_t[jj - 2], upper_t[jj - 2] - ct[jj])
            report._record(margin, ("pos", gamma, jj))
    return report


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


def check_prefix_identity(gamma_grid=None, j_max: int = 1000) -> CheckReport:
    """Running sums of the (1-x)^gamma series equal the (1-x)^-(1-gamma) series."""
    report = _new_report("prefix-identity")
    for gamma in gamma_grid or DEFAULT_GAMMA_GRID:
        sums = _kahan_cumsum(binomial_coeffs_pos(gamma, j_max + 1))
        rhs = binomial_coeffs_neg(1.0 - gamma, j_max + 1)
        rel = np.abs(sums - rhs) / np.abs(rhs)
        for jj in range(j_max + 1):
            report._record(_SLACK - rel[jj], (gamma, jj))
    return report


def check_monotone_tail(gamma_grid=None, p_grid=None, n: int = 512) -> CheckReport:
    """Monotone nonnegative strategy coefficients plus the geometric tail bound."""
    report = _new_report("monotone-tail")
    for gamma in gamma_grid or (0.1, 0.3, 0.5, 0.7, 0.9):
        for p in p_grid or (2, 4, 8, 16):
            if p > n:
                continue
            spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
            c = strategy_coeffs(spec).coeffs
            slack = _SLACK
            report._record(float(np.min(c)) + slack, ("nonneg", gamma, p))
            report._record(float(np.min(-np.diff(c))) + slack, ("monotone", gamma, p))
            beta = beta_decay(gamma, p)
            report._record(
                beta - (1.0 - gamma) / (8.0 * p), ("beta-lower", gamma, p)
            )
            report._record(
                (1.0 - gamma) / (4.0 * p) - beta, ("beta-upper", gamma, p)
            )
            cg_p = binomial_coeffs_neg(gamma, p + 1)[p]
            j = np.arange(p, n)
            bound = cg_p * (1.0 - beta) ** (j - p)
            margin = float(np.min(bound - c[p:]))
            report._record(margin + _SLACK * cg_p, ("tail", gamma, p))
    return report


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


def check_norm_bounds(gamma_grid=None, p_grid=None, n_grid=None) -> CheckReport:
    """Frobenius and column-norm bounds for the banded fractional-root factors."""
    report = _new_report("norm-bounds")
    for gamma in gamma_grid or (0.1, 0.3, 0.5, 0.7, 0.9):
        for p in p_grid or (2, 8, 32):
            for n in n_grid or (128, 1024):
                if p > n:
                    continue
                spec = FactorizationSpec(
                    method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p
                )
                frob_sq = frobenius_ltt(b_operator(spec)) ** 2
                fb = _frobenius_bound(gamma, p, n)
                report._record((fb - frob_sq) / fb, ("frobenius", gamma, p, n))
                l1, l2 = column_norms(strategy_coeffs(spec))
                l2b = _l2sq_bound(gamma, p)
                report._record((l2b - l2 * l2) / l2b, ("l2", gamma, p, n))
                l1b = _l1_bound(gamma, p)
                report._record((l1b - l1) / l1b, ("l1", gamma, p, n))
    for s in (0.5, 1.0, 2.0):
        for m in (10, 100, 1000, 10000):
            margin = harmonic_sum_bound(m, s) - harmonic_sum(m, s)
            report._record(margin, ("harmonic", s, m))
    return report


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
    c = float(rng.uniform(-1.0 / (p - 1), 0.0)) if p >= 2 else 0.0
    return FactorizationSpec(method=Method.INV_DECAY, n=n, c=c, bandwidth=p)


def check_sens_bound(instances: int = 200, seed: int = 0, n_max: int = 256) -> CheckReport:
    """Exact sensitivity squared never exceeds the operator-norm bound."""
    report = _new_report("sens-bound")
    rng = np.random.default_rng(seed)
    cases = []
    # Hand-checkable corners: the identity and the running-sum operator.
    eye = np.zeros(8)
    eye[0] = 1.0
    cases.append((ToeplitzOperator(eye), ParticipationSchema(n=8, b=2, k=4)))
    cases.append((ToeplitzOperator(np.ones(4)), ParticipationSchema(n=4, b=2, k=2)))
    while len(cases) < instances:
        n = int(rng.integers(4, n_max + 1))
        spec = _random_spec(rng, n)
        b = int(rng.integers(1, n + 1))
        k_cap = (n - 1) // b + 1
        k = int(rng.integers(1, k_cap + 1))
        cases.append((strategy_coeffs(spec), ParticipationSchema(n=n, b=b, k=k)))
    for C, schema in cases:
        s2 = sens_exact(C, schema) ** 2
        bound = sens_upper_bound(C, schema) ** 2
        report._record((bound - s2) / bound, (schema.n, schema.b, schema.k))
    return report


def check_error_envelope(n_grid=None, p_grid=None, k: int = 1, b=None) -> CheckReport:
    """Stability diagnostic for the two tuned-exponent error regimes.

    Hidden constants in the asymptotic statements are unspecified, so the pass
    criterion is boundedness only: within each branch the worst measured-to-
    bound ratio must stay within 3x the median ratio.
    """
    report = _new_report("error-envelope")

    ratios = []
    for n in n_grid or (1024, 2048, 4096, 8192, 16384):
        p = max(2, int(math.isqrt(n)) // 8)
        if p > math.sqrt(n) / 4.0:
            continue
        gamma = 1.0 - p / math.sqrt(n)
        schema = ParticipationSchema(n=n, b=b or n, k=k)
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
        measured = rmse(spec, schema).rmse
        bound = math.sqrt(k) * n**0.25 + math.sqrt(n * k / schema.b)
        ratios.append((n, p, measured / bound))
    _record_envelope(report, "sqrt-n-branch", ratios)

    ratios = []
    n = 4096 if n_grid is None else max(n_grid)
    for p in p_grid or (16, 64, 256):
        schema = ParticipationSchema(n=n, b=b or n, k=k)
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=0.5, bandwidth=p)
        measured = rmse(spec, schema).rmse
        lp = math.log(p)
        bound = (
            math.sqrt(k) * lp
            + math.sqrt(n * k / schema.b)
            + math.sqrt(n * k * lp / p)
            + math.sqrt(k * p * lp / schema.b)
        )
        ratios.append((n, p, measured / bound))
    _record_envelope(report, "half-branch", ratios)
    return report


def _record_envelope(report: CheckReport, branch: str, ratios):
    if not ratios:
        return
    vals = np.array([r[2] for r in ratios])
    margin = 3.0 * float(np.median(vals)) - float(np.max(vals))
    report.grid_size += len(ratios)
    if margin < report.worst_margin:
        report.worst_margin = margin
    if margin < 0.0:
        report.violations += 1
        report.details.append((branch, float(np.max(vals)), float(np.median(vals))))


SUITES = {
    "coeff-bounds": check_coeff_bounds,
    "prefix-identity": check_prefix_identity,
    "monotone-tail": check_monotone_tail,
    "norm-bounds": check_norm_bounds,
    "sens-bound": check_sens_bound,
    "error-envelope": check_error_envelope,
}

_QUICK_KWARGS = {
    "coeff-bounds": {"j_max": 200},
    "prefix-identity": {"j_max": 200},
    "monotone-tail": {"n": 128},
    "norm-bounds": {"n_grid": (128,)},
    "sens-bound": {"instances": 60, "n_max": 64},
    "error-envelope": {"n_grid": (1024, 2048, 4096)},
}


def run_suite(name: str, quick: bool = False) -> CheckReport:
    if name not in SUITES:
        raise KeyError(f"unknown check suite {name!r}")
    kwargs = _QUICK_KWARGS[name] if quick else {}
    return SUITES[name](**kwargs)
