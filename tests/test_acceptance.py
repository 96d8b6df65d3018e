"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion; the suite doubles
as the reproducibility report for the package.
"""

import math
import pathlib
import time

import numpy as np

from bifr.calibration import PrivacyBudget, delta_for_sigma, gaussian_sigma
from bifr.catalog import FactorizationSpec, Method, strategy_coeffs
from bifr.checks import SUITES, run_suite
from bifr.engine import engine_dense_reference, engine_init, engine_step, run_prefix_release
from bifr.metrics import rmse
from bifr.sensitivity import ParticipationSchema, sens_bruteforce, sens_exact
from bifr.tuner import DEFAULT_GAMMA_GRID, default_schema, sweep, tune_method

from buffered_reference import buffered_noise

ARTIFACT_DIR = pathlib.Path(__file__).resolve().parent.parent / "test_artifacts"


def report(num, ok, label, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:2d} [{status}] {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {num}: {label}"


def test_01_geometric_equivalence():
    start = time.monotonic()
    n = 256
    ok = True
    for t in np.round(np.arange(1, 10) * 0.1, 10):
        geo = strategy_coeffs(
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=n, lam=float(t))
        ).coeffs
        band2 = strategy_coeffs(
            FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=float(t), bandwidth=2)
        ).coeffs
        # the two parameterizations must agree bit-for-bit; the closed-form
        # power comparison allows accumulated-ulp differences only
        ok = ok and np.array_equal(geo, band2)
        ok = ok and np.allclose(geo, t ** np.arange(n), rtol=1e-13, atol=0.0)
    elapsed = time.monotonic() - start
    report(1, ok and elapsed < 1.0, "bandwidth-2 strategy equals geometric decay exactly", elapsed)


def test_02_half_exponent_equivalence():
    start = time.monotonic()
    n = 4096
    ok = True
    for p in (2, 4, 8, 16, 32, 64, 128, 256):
        a = strategy_coeffs(FactorizationSpec(method=Method.BISR, n=n, bandwidth=p)).coeffs
        b = strategy_coeffs(
            FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=0.5, bandwidth=p)
        ).coeffs
        ok = ok and np.array_equal(a, b)
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 5.0, "square-root special case is bit-for-bit identical", elapsed)


def _small_catalog_specs(n):
    specs = [FactorizationSpec(method=Method.IDENTITY, n=n)]
    for lam in (0.3, 0.7):
        specs.append(FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=n, lam=lam))
    if n >= 2:
        for gamma in (0.2, 0.5, 0.8):
            for p in {2, n}:
                specs.append(
                    FactorizationSpec(method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=p)
                )
        specs.append(
            FactorizationSpec(method=Method.GAMMA_BFR, n=n, gamma=0.5, bandwidth=min(4, n))
        )
    return specs


def test_03_sensitivity_oracle():
    start = time.monotonic()
    instances = 0
    worst = 0.0
    for n in (4, 6, 8, 10, 12, 14, 16):
        specs = _small_catalog_specs(n)
        schedules = [
            ParticipationSchema(n=n, b=b, k=k)
            for b in range(1, n + 1)
            for k in range(1, (n - 1) // b + 2)
        ]
        for spec in specs:
            C = strategy_coeffs(spec)
            for schema in schedules:
                diff = abs(sens_exact(C, schema) - sens_bruteforce(C, schema))
                worst = max(worst, diff)
                instances += 1
    ok = instances >= 500 and worst <= 1e-10
    elapsed = time.monotonic() - start
    report(
        3,
        ok and elapsed < 120.0,
        f"closed-form sensitivity matches brute force on {instances} instances "
        f"(worst diff {worst:.2e})",
        elapsed,
    )


def test_04_streaming_fidelity():
    start = time.monotonic()
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 513))
        p = int(rng.integers(1, 17))
        dim = int(rng.integers(1, 33))
        gamma = float(rng.uniform(0.05, 0.95))
        scale = float(rng.uniform(0.1, 3.0))
        spec = FactorizationSpec(
            method=Method.GAMMA_BIFR, n=n, gamma=gamma, bandwidth=min(p, n)
        )
        streaming = engine_init(spec, dim, scale, seed)
        zero = np.zeros(dim)
        s_rows = np.array([engine_step(streaming, zero) for _ in range(n)])
        b_rows = buffered_noise(spec, dim, scale, seed, n)
        dense = engine_dense_reference(spec, dim, scale, seed, n)
        ok = ok and np.array_equal(s_rows, dense) and np.array_equal(s_rows, b_rows)
    elapsed = time.monotonic() - start
    report(4, ok and elapsed < 60.0, "stream, buffer, and dense noise paths bit-identical over 20 seeds", elapsed)


def test_05_monte_carlo_consistency():
    start = time.monotonic()
    budget = PrivacyBudget(1.0, 1e-5)
    configs = [
        (FactorizationSpec(method=Method.IDENTITY, n=16), ParticipationSchema(16, 16, 1)),
        (
            FactorizationSpec(method=Method.GAMMA_BIFR, n=64, gamma=0.5, bandwidth=8),
            ParticipationSchema(64, 64, 1),
        ),
        (FactorizationSpec(method=Method.BISR, n=32, bandwidth=4), ParticipationSchema(32, 32, 1)),
        (
            FactorizationSpec(method=Method.DP_LAMBDA_CGD, n=32, lam=0.5),
            ParticipationSchema(32, 16, 2),
        ),
        (
            FactorizationSpec(method=Method.GAMMA_BIFR, n=32, gamma=0.7, bandwidth=4),
            ParticipationSchema(32, 16, 2),
        ),
    ]
    ok = True
    details = []
    for i, (spec, schema) in enumerate(configs):
        est = run_prefix_release(spec, schema, dim=4, budget=budget, trials=10_000, seed=100 + i)
        analytic = rmse(spec, schema, budget).scaled_rmse
        within_se = abs(est.estimate - analytic) <= 3.0 * est.stderr
        within_rel = abs(est.estimate - analytic) / analytic <= 0.02
        ok = ok and within_se and within_rel
        details.append(f"{abs(est.estimate - analytic) / analytic:.1%}")
    elapsed = time.monotonic() - start
    report(
        5,
        ok and elapsed < 120.0,
        f"10^4-trial Monte Carlo matches analytic values (rel devs {', '.join(details)})",
        elapsed,
    )


def test_06_bandwidth_ordering_curves():
    start = time.monotonic()
    n = 1024
    p_grid = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    ok = True
    improvement_at_2 = None
    rows = []
    for k in (1, 4, 16):
        schema = ParticipationSchema(n=n, b=n // k, k=k)
        for p in p_grid:
            tuned = tune_method(Method.GAMMA_BIFR, schema, bandwidths=(p,))
            base = rmse(FactorizationSpec(method=Method.BISR, n=n, bandwidth=p), schema)
            bfr = tune_method(Method.GAMMA_BFR, schema, bandwidths=(p,))
            inv = tune_method(Method.INV_DECAY, schema, bandwidths=(p,))
            ok = ok and tuned.rmse <= base.rmse
            if k == 1 and p == 2:
                improvement_at_2 = 1.0 - tuned.rmse / base.rmse
            rows.append(
                (
                    k, p, tuned.spec.gamma, tuned.rmse, base.rmse,
                    bfr.spec.gamma, bfr.rmse, inv.spec.c, inv.rmse,
                )
            )
    ok = ok and improvement_at_2 is not None and improvement_at_2 > 0.05
    ARTIFACT_DIR.mkdir(exist_ok=True)
    header = (
        "k,bandwidth,tuned_gamma,tuned_rmse,sqrt_rmse,"
        "banded_root_gamma,banded_root_rmse,inv_decay_c,inv_decay_rmse"
    )
    lines = [header] + [",".join("%.17g" % v if isinstance(v, float) else str(v) for v in r) for r in rows]
    (ARTIFACT_DIR / "bandwidth_ordering.csv").write_text("\n".join(lines) + "\n")
    elapsed = time.monotonic() - start
    report(
        6,
        ok and elapsed < 300.0,
        f"tuned fractional exponent never behind the square root; "
        f"{improvement_at_2:.1%} better at bandwidth 2, single epoch",
        elapsed,
    )


def test_07_multi_epoch_method_ordering():
    start = time.monotonic()
    schema = ParticipationSchema(n=2048, b=256, k=8)
    # dense bandwidth grid: power-of-two coverage plus multiples of 16 around
    # the optimum, shared by both banded methods
    bandwidths = sorted({2, 4, 8, 1024, 2048} | set(range(16, 513, 16)))
    tuned_bifr = tune_method(Method.GAMMA_BIFR, schema, bandwidths=bandwidths)
    tuned_bisr = tune_method(Method.BISR, schema, bandwidths=bandwidths)
    tuned_cgd = tune_method(Method.DP_LAMBDA_CGD, schema)
    ok = tuned_bifr.rmse < tuned_bisr.rmse < tuned_cgd.rmse
    elapsed = time.monotonic() - start
    report(
        7,
        ok and elapsed < 120.0,
        f"tuned RMSE ordering {tuned_bifr.rmse:.3f} < {tuned_bisr.rmse:.3f} "
        f"< {tuned_cgd.rmse:.3f} at n=2048, k=8",
        elapsed,
    )


def test_08_inequality_suites():
    start = time.monotonic()
    ok = True
    parts = []
    for name in SUITES:
        r = run_suite(name)
        ok = ok and r.violations == 0
        parts.append(f"{name}:{r.violations}")
    elapsed = time.monotonic() - start
    report(8, ok and elapsed < 300.0, f"verification suites clean ({', '.join(parts)})", elapsed)


def test_09_small_bandwidth_optimum():
    start = time.monotonic()
    schema = default_schema(1024, 1)
    template2 = FactorizationSpec(method=Method.GAMMA_BIFR, n=1024, gamma=0.5, bandwidth=2)
    best2 = sweep(template2, "gamma", DEFAULT_GAMMA_GRID, schema).best_param
    template_full = FactorizationSpec(
        method=Method.GAMMA_BIFR, n=1024, gamma=0.5, bandwidth=1024
    )
    best_full = sweep(template_full, "gamma", DEFAULT_GAMMA_GRID, schema).best_param
    ok = best2 > 0.5 and 0.25 <= best_full <= 0.75
    elapsed = time.monotonic() - start
    report(
        9,
        ok and elapsed < 60.0,
        f"optimal exponent {best2} at bandwidth 2, {best_full} at full bandwidth",
        elapsed,
    )


def test_10_calibration_sanity():
    start = time.monotonic()
    budget = PrivacyBudget(1.0, 1e-5)
    tol = 1e-9
    sigma = gaussian_sigma(budget, tol=tol)
    ok = (
        sigma <= 4.847
        and delta_for_sigma(sigma, 1.0) <= 1e-5
        and delta_for_sigma(sigma - tol, 1.0) > 1e-5
    )
    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 1.0, f"noise multiplier {sigma:.6f} tight at eps=1, delta=1e-5", elapsed)
