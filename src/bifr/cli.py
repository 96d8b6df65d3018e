"""Command-line front end.

Subcommands:
  coeffs    print factorization coefficients (strategy, inverse, or noise shape)
  rmse      evaluate the RMSE objective for one configuration
  sweep     sweep one scalar parameter over a grid
  compare   tuned best-in-class comparison across methods
  simulate  Monte Carlo estimate of the running-sum noise RMSE
  verify    run the numerical inequality suites

Output is CSV (default) or JSON with 17 significant digits, so identical
configurations produce byte-identical output, always on stdout.  Exit codes: 0
success, 2 usage error (a bad flag), 3 domain/precondition violation, 4
verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .calibration import PrivacyBudget
from .catalog import (
    METHOD_PARAMS,
    PARAM_FIELDS,
    FactorizationSpec,
    Method,
    inverse_coeffs,
    strategy_coeffs,
)
from .checks import SUITES, run_suite
from .engine import run_prefix_release
from .metrics import b_operator, frobenius_ltt, rmse
from .sensitivity import ParticipationSchema
from .tuner import default_schema, tune_method

_EXIT_DOMAIN = 3
_EXIT_VERIFY = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit(columns, rows, fmt: str):
    """Write rows to stdout as CSV (header + %.17g floats) or an equivalent JSON array."""
    if fmt == "json":
        body = [
            {c: (_fmt(v) if isinstance(v, float) else v) for c, v in zip(columns, row)}
            for row in rows
        ]
        text = json.dumps(body, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)


def _parse_list(flag: str, text: str, convert, kind: str) -> list:
    """A comma-list flag's items, stripped and converted; a blank or repeated one is refused."""
    bad = f"{flag} must be a comma list of {kind}, got {text!r}"
    items = [item.strip() for item in text.split(",")]
    if not all(items):
        raise ValueError(bad)
    try:
        values = [convert(item) for item in items]
    except ValueError:
        raise ValueError(bad) from None
    if len(set(values)) < len(values):
        raise ValueError(f"{flag} lists an item twice, got {text!r}")
    return values


_GRID_MAX_POINTS = 10**6  # a range with more points is a typo, and may not fit in memory


def parse_grid(text: str) -> np.ndarray:
    """Parse "lo:hi:step" into an inclusive grid, or a comma list of values."""
    ranged = ":" in text
    if ranged:
        bad = f"--grid must be lo:hi:step, got {text!r}"
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(bad)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(bad) from None
    else:
        values = _parse_list("--grid", text, float, "numbers")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if not ranged:
        return np.array(values)
    lo, hi, step = values
    if step <= 0.0 or hi < lo:
        raise ValueError(f"bad grid range {text!r}")
    span = (hi - lo) / step
    # floor, so no point passes hi; the slack keeps hi when span is a whole
    # number short by rounding (0.9 / 0.05 = 17.999999999999996)
    points = math.floor(span * (1 + 1e-12)) + 1 if math.isfinite(span) else math.inf
    if points > _GRID_MAX_POINTS:
        raise ValueError(f"grid {text!r} has more than {_GRID_MAX_POINTS} points")
    grid = np.round(lo + step * np.arange(points), 12)
    if np.unique(grid).size < grid.size:
        raise ValueError(f"--grid {text!r} rounds two points to one value")
    return grid


def _spec_from_args(args, **point) -> FactorizationSpec:
    """The spec the method flags give; ``point`` sets the swept field."""
    fields = {field: getattr(args, field) for field in PARAM_FIELDS.values()}
    return FactorizationSpec(method=args.method, n=args.n, **{**fields, **point})


def _schema_from_args(args) -> ParticipationSchema:
    k = 1 if args.k is None else args.k  # None: --k not given
    return default_schema(args.n, k) if args.b is None else ParticipationSchema(args.n, args.b, k)


def _budget_from_args(args) -> PrivacyBudget | None:
    if args.epsilon is None and args.delta is None:
        return None
    if args.epsilon is None or args.delta is None:
        raise ValueError("epsilon and delta must be given together")
    return PrivacyBudget(epsilon=args.epsilon, delta=args.delta)


def _add_common(p: argparse.ArgumentParser, schema: bool = True):
    p.add_argument("--n", type=int, required=True, help="number of steps")
    if schema:
        p.add_argument("--k", type=int, default=None, help="max participations (default 1)")
        p.add_argument("--b", type=int, default=None, help="min separation (default n//k)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_budget(p: argparse.ArgumentParser):
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)


def _add_method(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=[m.value for m in Method], required=True)
    for name, field in PARAM_FIELDS.items():
        kind = int if field == "bandwidth" else float
        p.add_argument(f"--{name}", dest=field, type=kind, default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first main() call and reused after."""
    parser = argparse.ArgumentParser(
        prog="bifr", description="banded-inverse correlated-noise toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print factorization coefficients")
    _add_common(p, schema=False)
    _add_method(p)
    p.add_argument(
        "--which",
        choices=("strategy", "inverse", "b"),
        default="strategy",
        help="strategy matrix, its inverse, or the noise-shaping factor",
    )
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("rmse", help="evaluate the RMSE objective")
    _add_common(p)
    _add_budget(p)
    _add_method(p)
    p.set_defaults(func=_cmd_rmse)

    p = sub.add_parser("sweep", help="sweep one parameter over a grid")
    _add_common(p)
    _add_method(p)
    p.add_argument("--param", choices=tuple(PARAM_FIELDS), required=True)
    p.add_argument("--grid", required=True, help='"lo:hi:step" or comma list')
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="tuned comparison across methods")
    _add_common(p)
    p.add_argument(
        "--methods",
        default="gamma-bifr,bisr,dp-lambda-cgd",
        help="comma-separated method names",
    )
    p.add_argument("--bandwidths", default=None, help="comma list of bandwidths")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("simulate", help="Monte Carlo running-sum noise RMSE")
    _add_common(p)
    _add_budget(p)
    _add_method(p)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--noise-scale", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the numerical inequality suites")
    p.add_argument("--suite", default="all", choices=("all", *SUITES))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_coeffs(args) -> int:
    spec = _spec_from_args(args)
    op = {
        "strategy": strategy_coeffs,
        "inverse": inverse_coeffs,
        "b": b_operator,
    }[args.which](spec)
    rows = [(j, float(v)) for j, v in enumerate(op.coeffs)]
    _emit(("index", "coefficient"), rows, args.format)
    return 0


_REPORT_COLUMNS = (
    "method",
    *PARAM_FIELDS,
    "n",
    "b",
    "k",
    "frobenius_factor",
    "sensitivity",
    "rmse",
    "sigma",
    "scaled_rmse",
)


def _report_row(report) -> tuple:
    s = report.spec
    return (
        s.method.value,
        *("" if getattr(s, f) is None else getattr(s, f) for f in PARAM_FIELDS.values()),
        s.n,
        report.schema.b,
        report.schema.k,
        report.frobenius_factor,
        report.sensitivity,
        report.rmse,
        "" if report.sigma is None else report.sigma,
        "" if report.scaled_rmse is None else report.scaled_rmse,
    )


def _cmd_rmse(args) -> int:
    report = rmse(_spec_from_args(args), _schema_from_args(args), _budget_from_args(args))
    _emit(_REPORT_COLUMNS, [_report_row(report)], args.format)
    return 0


def _cmd_sweep(args) -> int:
    grid = parse_grid(args.grid)
    schema = _schema_from_args(args)
    field = PARAM_FIELDS[args.param]
    if getattr(args, field) is not None:
        raise ValueError(f"--{args.param} is the swept parameter; give its values in --grid")
    rows = []
    for value in grid.tolist():
        # A spec takes only integer bandwidths, so an integral point becomes an int.
        point = int(value) if args.param == "bandwidth" and value.is_integer() else value
        rows.append((value, rmse(_spec_from_args(args, **{field: point}), schema).rmse))
    best = min(rows, key=lambda row: (row[1], row[0]))  # ties go to the smaller value
    rows = [(v, r, int(v == best[0])) for v, r in rows]
    _emit((args.param, "rmse", "best"), rows, args.format)
    return 0


def _cmd_compare(args) -> int:
    schema = _schema_from_args(args)
    # an unknown name is refused by Method, which names it
    methods = [Method(name) for name in _parse_list("--methods", args.methods, str, "method names")]
    banded = [m for m in methods if "bandwidth" in METHOD_PARAMS[m]]
    bandwidths = None
    if args.bandwidths is not None:
        if not banded:
            raise ValueError("--bandwidths needs a listed method that takes a bandwidth")
        bandwidths = _parse_list("--bandwidths", args.bandwidths, int, "integers")
    # the list goes to the methods that take a bandwidth; the rest tune without one
    reports = [tune_method(m, schema, bandwidths if m in banded else None) for m in methods]
    reports.sort(key=lambda r: r.rmse)
    _emit(_REPORT_COLUMNS, [_report_row(r) for r in reports], args.format)
    return 0


def _cmd_simulate(args) -> int:
    if args.noise_scale is not None and (args.k is not None or args.b is not None):
        raise ValueError("--k and --b set the schema of a budget; --noise-scale takes neither")
    spec, budget = _spec_from_args(args), _budget_from_args(args)
    schema = None if budget is None else _schema_from_args(args)  # a bare scale has none
    est = run_prefix_release(
        spec, schema, dim=args.dim, budget=budget,
        trials=args.trials, seed=args.seed, noise_scale=args.noise_scale,
    )  # fmt: skip
    # the objective's noise-shaping factor, which needs no sensitivity
    analytic = frobenius_ltt(b_operator(spec)) / math.sqrt(spec.n) * est.noise_scale
    row = (est.estimate, est.stderr, est.trials, est.noise_scale, analytic)
    _emit(("estimate", "stderr", "trials", "noise_scale", "analytic"), [row], args.format)
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = []
    failed = False
    for name in names:
        report = run_suite(name)
        rows.append(
            (
                name,
                report.grid_size,
                report.violations,
                report.worst_margin,
                "pass" if report.passed else "FAIL",
            )
        )
        failed = failed or not report.passed
    _emit(("suite", "grid_size", "violations", "worst_margin", "status"), rows, args.format)
    return _EXIT_VERIFY if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # a refused input, or one too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
