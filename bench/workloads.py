"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
                               [--setup-only] [--tiny]

The process sets bifr up, drives it closed-loop from one thread for
``--seconds`` seconds, checks every output, and prints one JSON object on its
last stdout line.  With ``--setup-only`` it stops once set-up is done, so the
parent can time set-up in several fresh processes.  With ``--trace 1`` it
measures the untraced loop as usual, then runs a fixed number of further
operations under ``tracing.Tracer`` and reports per-layer totals.

bifr is driven through its public API only: ``engine_init``/``engine_step``
for the streaming workloads and ``bifr.cli.main`` in-process for the design
session.  Calls go through ``bifr.<name>`` so the tracer's rebinding applies.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BUDGET = dict(epsilon=1.0, delta=1e-5)

# Correctness tolerances, fixed before measuring.
VAR_SE_MULTIPLE = 6.0  # train-wide: |var - expected| <= 6 standard errors
MC_SE_MULTIPLE = 5.0  # simulate: |estimate - analytic| <= 5 stderrs
DENSE_RTOL = 1e-9  # compare winner's RMSE recomputed on dense matrices
REF_STEPS = 512  # release-narrow: steps compared with engine_dense_reference

WORKLOADS = {
    # Regeneration-bound: 15 of the 16 d-length draws per step are re-drawn.
    "train-wide": dict(kind="stream", gamma=0.55, p=16, d=1 << 17, n=16384, k=16, traced_ops=48),
    # Dispatch-bound: 64 fill calls of 16 draws per step, long horizon.
    "release-narrow": dict(kind="stream", gamma=0.55, p=64, d=16, n=65536, k=16, traced_ops=512),
    # Analytic layers: set-up runs compare and simulates the winner; the loop
    # then queries rmse for each of the four finalists.
    "design-session": dict(
        kind="design",
        n=512,
        k=8,
        methods="gamma-bifr,bisr,dp-lambda-cgd,inv-decay",
        traced_ops=16,
    ),
}

# Sizes for the schema self-test: same code paths, seconds instead of minutes.
TINY = {
    "train-wide": dict(d=1 << 10, n=512, k=4, traced_ops=8),
    "release-narrow": dict(n=1024, k=4, traced_ops=16),
    "design-session": dict(n=64, k=2, traced_ops=4),
}


class Failures:
    """Counts failed operations and keeps the first few messages."""

    def __init__(self):
        self.count = 0
        self.messages: list[str] = []

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < 10:
            self.messages.append(message)


def percentiles(samples_ns: list[int]) -> dict:
    import numpy as np

    a = np.asarray(samples_ns, dtype=np.float64)
    if a.size == 0:
        return dict(count=0, p10_ns=None, p50_ns=None, p90_ns=None, below_p10=0, beyond_p90=0)
    p10, p50, p90 = (float(v) for v in np.percentile(a, (10, 50, 90)))
    return dict(
        count=a.size,
        p10_ns=p10,
        p50_ns=p50,
        p90_ns=p90,
        below_p10=int(np.sum(a < p10)),
        beyond_p90=int(np.sum(a > p90)),
    )


# --------------------------------------------------------------------------
# set-up


def setup(cfg: dict, seed: int, trace: bool):
    """Import bifr and prepare the first operation; returns (ctx, timings).

    Timings are CLOCK_MONOTONIC readings, comparable with the parent's.
    """
    t_import = time.monotonic()
    import bifr

    if cfg["kind"] == "design":
        import bifr.cli  # noqa: F401  (the design session calls it)
    t_imported = time.monotonic()
    src = (ROOT / "src").resolve()
    if not Path(bifr.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported bifr from {bifr.__file__}, not from {src}")

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    seeds = random.Random(seed)
    ctx = dict(bifr=bifr, cfg=cfg, tracer=tracer, seeds=seeds)
    budget = bifr.PrivacyBudget(**BUDGET)
    if cfg["kind"] == "stream":
        spec = bifr.FactorizationSpec(
            method=bifr.Method.GAMMA_BIFR, n=cfg["n"], gamma=cfg["gamma"], bandwidth=cfg["p"]
        )
        schema = bifr.ParticipationSchema(n=cfg["n"], b=cfg["n"] // cfg["k"], k=cfg["k"])
        noise_scale = bifr.gaussian_sigma(budget) * bifr.sens_exact(
            bifr.strategy_coeffs(spec), schema
        )
        t_calibrated = time.monotonic()
        engine_seed = seeds.getrandbits(63)
        state = bifr.engine_init(spec, cfg["d"], noise_scale, engine_seed)
        ctx.update(spec=spec, noise_scale=noise_scale, engine_seed=engine_seed, state=state)
    else:
        ctx["sigma"] = bifr.gaussian_sigma(budget)
        t_calibrated = time.monotonic()
        ctx["session"] = design_session(bifr, cfg, seeds)
    t_ready = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
    timings = dict(
        start=t_import,
        ready=t_ready,
        import_ms=(t_imported - t_import) * 1e3,
        calibrate_ms=(t_calibrated - t_imported) * 1e3,
        init_ms=(t_ready - t_calibrated) * 1e3,
    )
    return ctx, timings


# --------------------------------------------------------------------------
# streaming workloads: train-wide, release-narrow


class StreamCheck:
    """Checks each engine output against what the factorization implies.

    * every output is finite;
    * train-wide: the empirical variance of out - x at step i lies within
      VAR_SE_MULTIPLE standard errors of s^2 (1 + sum_{k<=min(i,p-1)} w_k^2);
    * release-narrow: for the first REF_STEPS steps, out - x matches
      engine_dense_reference up to the rounding of adding x first.
    Neither compares noise bits, so a change of sampler does not break them.
    """

    def __init__(self, ctx, name, failures):
        import numpy as np

        bifr, cfg = ctx["bifr"], ctx["cfg"]
        self.np = np
        self.failures = failures
        self.x = ctx["x"]
        s = ctx["noise_scale"]
        band = np.asarray(bifr.inverse_coeffs(ctx["spec"]).coeffs[: cfg["p"]])
        self.expected_var = s * s * np.cumsum(band * band)
        self.variance = name == "train-wide"
        self.diff = np.empty_like(self.x)
        self.ref = None
        if name == "release-narrow":
            steps = min(REF_STEPS, cfg["n"])
            self.ref = bifr.engine_dense_reference(
                ctx["spec"], cfg["d"], s, ctx["engine_seed"], steps
            )
            # Engine and reference add the same terms, the engine after x.
            scale = float(np.max(np.abs(self.x))) + s * float(np.sum(np.abs(band))) * 10.0
            self.ref_atol = 4 * cfg["p"] * np.finfo(np.float64).eps * scale

    def __call__(self, i: int, out) -> None:
        np = self.np
        np.subtract(out, self.x, out=self.diff)
        d = self.diff.size
        v = float(np.dot(self.diff, self.diff)) / d
        if not math.isfinite(v):
            self.failures.add(f"step {i}: non-finite output")
            return
        if self.variance:
            expected = float(self.expected_var[min(i, self.expected_var.size - 1)])
            se = expected * math.sqrt(2.0 / d)
            if abs(v - expected) > VAR_SE_MULTIPLE * se:
                self.failures.add(
                    f"step {i}: variance {v:.6g} vs expected {expected:.6g} (se {se:.3g})"
                )
        if self.ref is not None and i < self.ref.shape[0]:
            err = float(np.max(np.abs(self.diff - self.ref[i])))
            if err > self.ref_atol:
                self.failures.add(f"step {i}: differs from dense reference by {err:.3g}")


def check_reference_bits(ctx, failures) -> None:
    """release-narrow: on zero input the engine is bit-identical to the dense oracle."""
    import numpy as np

    bifr, cfg = ctx["bifr"], ctx["cfg"]
    ref = ctx["check"].ref
    twin = bifr.engine_init(ctx["spec"], cfg["d"], ctx["noise_scale"], ctx["engine_seed"])
    zeros = np.zeros(cfg["d"])
    out = np.empty(cfg["d"])
    for i in range(ref.shape[0]):
        bifr.engine_step(twin, zeros, out)
        if not np.array_equal(out, ref[i]):
            failures.add(f"zero-input step {i} is not bit-identical to engine_dense_reference")
            return


def stream_steps(ctx, count: int, seconds: float, failures, samples=None, horizon=None) -> None:
    """Run engine steps until ``count`` steps, ``seconds`` or step ``horizon``."""
    bifr = ctx["bifr"]
    state, x, out, check = ctx["state"], ctx["x"], ctx["out"], ctx["check"]
    horizon = ctx["cfg"]["n"] if horizon is None else horizon
    tracer = ctx["tracer"]
    perf = time.perf_counter_ns
    deadline = perf() + seconds * 1e9
    done = 0
    while done < count and ctx["steps"] < horizon:
        i = ctx["steps"]
        if tracer is not None:
            tracer.op = i
        try:
            t0 = perf()
            bifr.engine_step(state, x, out)
            t1 = perf()
        except Exception as exc:  # noqa: BLE001  (a failed operation, counted)
            failures.add(f"step {i}: {type(exc).__name__}: {exc}")
        else:
            if samples is not None:
                samples.append(t1 - t0)
            check(i, out)
        ctx["steps"] = i + 1
        done += 1
        if perf() >= deadline:
            break


def stream_peak_bytes(ctx, failures) -> int:
    """tracemalloc peak over engine_init plus p+1 steps, with x and out."""
    import tracemalloc

    import numpy as np

    bifr, cfg = ctx["bifr"], ctx["cfg"]
    gc.collect()  # garbage from earlier steps would free at random points
    tracemalloc.start()
    try:
        x = ctx["x"].copy()
        out = np.empty_like(x)
        state = bifr.engine_init(ctx["spec"], cfg["d"], ctx["noise_scale"], ctx["engine_seed"])
        for _ in range(cfg["p"] + 1):
            bifr.engine_step(state, x, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not np.all(np.isfinite(out)):
        failures.add("memory pass: non-finite output")
    return peak


def run_stream(ctx, name, seconds, trace, failures) -> dict:
    import numpy as np

    cfg = ctx["cfg"]
    ctx["x"] = np.random.default_rng(ctx["seeds"].getrandbits(63)).standard_normal(cfg["d"])
    ctx["out"] = np.empty(cfg["d"])
    ctx["steps"] = 0
    ctx["check"] = StreamCheck(ctx, name, failures)

    stream_steps(ctx, cfg["p"] + 4, math.inf, failures)  # fill the ring, warm scratch
    samples: list[int] = []
    # The spec's horizon bounds the run; the traced steps come after these.
    stream_steps(ctx, sys.maxsize, seconds, failures, samples, cfg["n"] - cfg["traced_ops"])
    result = dict(latency=percentiles(samples), best_ns=min(samples, default=None))
    if ctx["check"].ref is not None:
        check_reference_bits(ctx, failures)
    if trace:
        tracer = ctx["tracer"]
        tracer.seen(ctx["state"].gen.get_state())
        first = ctx["steps"]
        traced: list[int] = []
        tracer.install()
        try:
            stream_steps(ctx, cfg["traced_ops"], math.inf, failures, traced)
        finally:
            tracer.uninstall()
            tracer.op = -1
        result["traced_latency"] = percentiles(traced)
        result["traced_best_ns"] = min(traced, default=None)
        result["traced_steps"] = (first, ctx["steps"])
    else:
        result["peak_bytes"] = stream_peak_bytes(ctx, failures)
    result["attempted"] = ctx["steps"]
    return result


def check_fill_draws(ctx, result) -> None:
    """Trace self-check: the fill spans account for every draw the steps imply."""
    cfg = ctx["cfg"]
    fill = ctx["tracer"].layer_totals().get("prng.fill", dict(draws=0))
    first, last = result["traced_steps"]
    p, d = cfg["p"], cfg["d"]
    # Step i draws min(i, p-1) old vectors again plus one fresh vector.
    expected_draws = d * sum(min(i, p - 1) + 1 for i in range(first, last))
    if fill["draws"] != expected_draws:
        raise RuntimeError(
            f"trace self-check: prng.fill drew {fill['draws']} values over steps "
            f"{first}..{last - 1}, expected {expected_draws}; a binding of "
            "GaussianStream.fill escaped the tracer"
        )


# --------------------------------------------------------------------------
# design-session workload


def run_cli(bifr, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bifr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli_ok(bifr, argv) -> str:
    code, text, err = run_cli(bifr, argv)
    if code != 0:
        raise RuntimeError(f"bifr {argv[0]} exited {code}: {err.strip()}")
    return text


def config_argv(command: str, row: dict) -> list[str]:
    """argv naming the factorization of one compare row."""
    argv = [command, "--method", row["method"]]
    for column, flag in (("gamma", "--gamma"), ("lambda", "--lambda"), ("c", "--c"),
                         ("bandwidth", "--bandwidth")):  # fmt: skip
        if row[column] != "":
            argv += [flag, str(row[column])]
    argv += ["--n", str(row["n"]), "--k", str(row["k"]), "--b", str(row["b"])]
    return argv + ["--format", "json"]


def design_session(bifr, cfg: dict, seeds) -> dict:
    """compare the methods, then simulate the winner: the session's set-up."""
    n, k = cfg["n"], cfg["k"]
    compare_argv = [
        "compare", "--n", str(n), "--k", str(k), "--b", str(n // k),
        "--methods", cfg["methods"], "--format", "json",
    ]  # fmt: skip
    compare_text = run_cli_ok(bifr, compare_argv)
    rows = json.loads(compare_text)
    simulate_argv = config_argv("simulate", rows[0])[:-2] + [
        "--epsilon", repr(BUDGET["epsilon"]), "--delta", repr(BUDGET["delta"]),
        "--format", "json",
    ]  # fmt: skip
    simulate_text = run_cli_ok(bifr, simulate_argv + ["--seed", str(seeds.getrandbits(31))])
    return dict(rows=rows, simulate_argv=simulate_argv, simulate_text=simulate_text)


def check_compare(ctx, rows: list[dict], failures) -> None:
    """Rows sorted and finite; the winner's RMSE re-derived on dense matrices."""
    import numpy as np

    bifr = ctx["bifr"]
    values = [float(r["rmse"]) for r in rows]
    if not rows or not all(math.isfinite(v) for v in values) or values != sorted(values):
        failures.add("compare: rows missing, non-finite or unsorted")
        return
    win = rows[0]
    spec = bifr.FactorizationSpec(
        method=bifr.Method(win["method"]),
        n=int(win["n"]),
        gamma=float(win["gamma"]) if win["gamma"] != "" else None,
        lam=float(win["lambda"]) if win["lambda"] != "" else None,
        c=float(win["c"]) if win["c"] != "" else None,
        bandwidth=int(win["bandwidth"]) if win["bandwidth"] != "" else None,
    )
    n, b, k = spec.n, int(win["b"]), int(win["k"])
    B = bifr.materialize_dense(bifr.b_operator(spec))
    C = bifr.materialize_dense(bifr.strategy_coeffs(spec))
    frob = float(np.linalg.norm(B)) / math.sqrt(n)
    sens = float(np.linalg.norm(C[:, [j * b for j in range(k) if j * b < n]].sum(axis=1)))
    dense = frob * sens
    if abs(dense - values[0]) > DENSE_RTOL * abs(dense):
        failures.add(f"compare: winner rmse {values[0]!r} vs dense {dense!r}")


def check_simulate(ctx, text: str, failures) -> None:
    row = json.loads(text)[0]
    est, se = float(row["estimate"]), float(row["stderr"])
    analytic, scale = float(row["analytic"]), float(row["noise_scale"])
    sensitivity = float(ctx["session"]["rows"][0]["sensitivity"])
    if not all(math.isfinite(v) for v in (est, se, analytic, scale)):
        failures.add("simulate: non-finite output")
    elif abs(est - analytic) > MC_SE_MULTIPLE * se:
        failures.add(f"simulate: estimate {est!r} is > {MC_SE_MULTIPLE} stderr from {analytic!r}")
    elif abs(scale - ctx["sigma"] * sensitivity) > 1e-12 * scale:
        failures.add(f"simulate: noise scale {scale!r} != sigma * sensitivity of the winner")


def design_queries(ctx, count, seconds, failures, latencies) -> None:
    """Query ``bifr rmse`` for each finalist in turn; latencies[f] collects finalist f's."""
    perf = time.perf_counter_ns
    deadline = perf() + seconds * 1e9
    tracer = ctx["tracer"]
    rows = ctx["session"]["rows"]
    done = 0
    while done < count and perf() < deadline:
        f = done % len(rows)
        op = ctx["ops"]
        ctx["ops"] += 1
        if tracer is not None:
            tracer.op = op
        try:
            t0 = perf()
            code, text, err = run_cli(ctx["bifr"], ctx["queries"][f])
            t1 = perf()
        except Exception as exc:  # noqa: BLE001  (a failed operation, counted)
            failures.add(f"operation {op}: rmse: {type(exc).__name__}: {exc}")
        else:
            if code != 0:
                failures.add(f"operation {op}: rmse exited {code}: {err.strip()}")
            elif json.loads(text) != [rows[f]]:
                failures.add(f"operation {op}: rmse of finalist {f} differs from its compare row")
            else:
                latencies[f].append(t1 - t0)
        done += 1


def best_queries(latencies):
    """Sum over the finalists of each one's fastest query."""
    if not all(latencies):
        return None
    return sum(min(lat) for lat in latencies)


def design_peak_bytes(ctx, failures) -> int:
    """tracemalloc peak over one simulate command of the winner.

    simulate allocates the n x dim noise arrays.  compare only holds
    n-length coefficient vectors, and tracemalloc slows its many small
    allocations about eightfold, so it is left out of the memory pass.
    """
    import tracemalloc

    argv = ctx["session"]["simulate_argv"] + ["--seed", str(ctx["seeds"].getrandbits(31))]
    ctx["ops"] += 1
    gc.collect()
    tracemalloc.start()
    try:
        code, text, err = run_cli(ctx["bifr"], argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code != 0:
        failures.add(f"memory pass: simulate exited {code}: {err.strip()}")
    else:
        check_simulate(ctx, text, failures)
    return peak


def run_design(ctx, name, seconds, trace, failures) -> dict:
    session = ctx["session"]
    ctx["ops"] = 2  # the set-up's compare and simulate
    check_compare(ctx, session["rows"], failures)
    check_simulate(ctx, session["simulate_text"], failures)
    ctx["queries"] = [config_argv("rmse", row) for row in session["rows"]]
    latencies: list[list[int]] = [[] for _ in session["rows"]]
    design_queries(ctx, sys.maxsize, seconds, failures, latencies)
    result = dict(
        latency=percentiles([t for lat in latencies for t in lat]),
        best_ns=best_queries(latencies),
    )
    if trace:
        tracer = ctx["tracer"]
        traced: list[list[int]] = [[] for _ in session["rows"]]
        tracer.install()
        try:
            design_queries(ctx, ctx["cfg"]["traced_ops"], math.inf, failures, traced)
        finally:
            tracer.uninstall()
            tracer.op = -1
        result["traced_latency"] = percentiles([t for lat in traced for t in lat])
        result["traced_best_ns"] = best_queries(traced)
    else:
        result["peak_bytes"] = design_peak_bytes(ctx, failures)
    result["attempted"] = ctx["ops"]
    return result


# --------------------------------------------------------------------------


def layer_metrics(ctx, result, timings) -> dict:
    """Per-layer metrics from the traced set-up and the traced operations."""
    tracer = ctx["tracer"]
    totals = tracer.layer_totals()

    def t(name):
        return totals.get(name, dict(calls=0, total_ns=0, self_ns=0, draws=0, regen=0))

    m = {}

    def calls_self(name):
        m[f"{name}.calls"] = (t(name)["calls"], "count")
        m[f"{name}.self_ms"] = (t(name)["self_ns"] / 1e6, "ms")

    fill = t("prng.fill")
    m["prng.fill.calls"] = (fill["calls"], "count")
    m["prng.fill.draws"] = (fill["draws"], "count")
    m["prng.fill.self_ms"] = (fill["self_ns"] / 1e6, "ms")
    m["prng.fill.ns_per_draw"] = (fill["total_ns"] / fill["draws"] if fill["draws"] else 0.0, "ns")
    m["prng.set_state.calls"] = (t("prng.set_state")["calls"], "count")
    calls_self("engine.engine_step")
    m["engine.regen_draws"] = (fill["regen"], "count")
    m["engine.fresh_draws"] = (fill["draws"] - fill["regen"], "count")
    m["engine.regen_ratio"] = (fill["regen"] / fill["draws"] if fill["draws"] else 0.0, "fraction")
    m["engine.engine_init.self_ms"] = (t("engine.engine_init")["self_ns"] / 1e6, "ms")
    m["engine.run_prefix_release.self_ms"] = (t("engine.run_prefix_release")["self_ns"] / 1e6, "ms")
    calls_self("catalog.strategy_coeffs")
    calls_self("catalog.inverse_coeffs")
    calls_self("toeplitz.ltt_inverse")
    calls_self("sensitivity.sens_exact")
    calls_self("metrics.rmse")
    m["metrics.b_operator.self_ms"] = (t("metrics.b_operator")["self_ns"] / 1e6, "ms")
    calls_self("calibration.gaussian_sigma")
    calls_self("tuner.tune_method")
    m["tuner.candidates"] = (tracer.count_under("metrics.rmse", "tuner.tune_method"), "count")
    calls_self("cli.main")
    m["setup.import_ms"] = (timings["import_ms"], "ms")
    m["setup.calibrate_ms"] = (timings["calibrate_ms"], "ms")
    m["setup.init_ms"] = (timings["init_ms"], "ms")
    # Untraced percentiles that the sandbox's co-tenants move too much to gate.
    m["latency_ms.p50"] = (result["latency"]["p50_ns"] / 1e6, "ms")
    m["latency_ms.p90"] = (result["latency"]["p90_ns"] / 1e6, "ms")
    # Same statistic as the gated latency, so the host's slow spells cancel.
    m["trace.overhead_frac"] = (result["traced_best_ns"] / result["best_ns"] - 1.0, "fraction")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    cfg = dict(WORKLOADS[args.workload])
    if args.tiny:
        cfg.update(TINY[args.workload])
    trace = bool(args.trace) and not args.setup_only
    ctx, timings = setup(cfg, args.seed, trace)
    import numpy
    import scipy

    report = dict(setup=timings, versions=(numpy.__version__, scipy.__version__))
    if not args.setup_only:
        failures = Failures()
        run = run_stream if cfg["kind"] == "stream" else run_design
        result = run(ctx, args.workload, args.seconds, trace, failures)
        if trace:
            if cfg["kind"] == "stream":
                check_fill_draws(ctx, result)
            result["layers"] = layer_metrics(ctx, result, timings)
            ctx["tracer"].write(
                ROOT / "bench" / "out" / f"trace-{args.workload}.jsonl",
                dict(workload=args.workload, seed=args.seed, tiny=args.tiny,
                     fields=["name", "start_ns", "end_ns", "parent", "op", "draws", "regen"]),
            )  # fmt: skip
        report.update(result, failed=failures.count, failures=failures.messages)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
