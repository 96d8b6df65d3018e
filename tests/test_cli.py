import json
import subprocess
import sys

import numpy as np
import pytest

from bifr import cli
from bifr.calibration import PrivacyBudget, gaussian_sigma
from bifr.catalog import FactorizationSpec, Method, strategy_coeffs
from bifr.cli import main, parse_grid
from bifr.metrics import rmse
from bifr.sensitivity import ParticipationSchema, sens_exact


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_range_form(self):
        grid = parse_grid("0.05:0.95:0.05")
        assert len(grid) == 19
        assert grid[0] == 0.05 and grid[-1] == 0.95

    def test_list_form(self):
        np.testing.assert_allclose(parse_grid("0.1,0.5,0.9"), [0.1, 0.5, 0.9])

    def test_bad_forms(self):
        with pytest.raises(ValueError, match="--grid must be lo:hi:step, got '1:2:3:4'"):
            parse_grid("1:2:3:4")
        with pytest.raises(ValueError, match="bad grid range '1:0:0.5'"):
            parse_grid("1:0:0.5")
        assert parse_grid("0:999999:1").size == 10**6
        with pytest.raises(ValueError, match="grid '0:1000000:1' has more than 1000000 points"):
            parse_grid("0:1000000:1")

    @pytest.mark.parametrize(
        "grid, expected",
        [("2:10:3", [2, 5, 8]), ("0.1:0.9:0.3", [0.1, 0.4, 0.7]), ("0:1:0.35", [0, 0.35, 0.7])],
    )
    def test_range_never_passes_hi(self, grid, expected):
        # rounding (hi - lo) / step would add 11, 1.0 and 1.05
        assert parse_grid(grid).tolist() == expected

    @pytest.mark.parametrize("grid", ["0:inf:1", "0.2:0.4:inf", "0.2:0.4:nan", "0.2,inf"])
    def test_non_finite_value_is_domain_error(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "64", "--method", "gamma-bifr", "--gamma", "0.5",
            "--bandwidth", "4", "--param", "gamma", "--grid", grid,
        )
        assert (code, out) == (3, "")
        assert err == f"error: grid values must be finite, got {grid!r}\n"

    @pytest.mark.parametrize("grid", ["0:1e300:1e-300", "0.1:0.9:1e-18"])
    def test_range_too_fine_to_build_is_domain_error(self, capsys, grid):
        # 1e600 points overflow a float; 8e17 points would need 5.55 EiB
        code, out, err = run_cli(
            capsys, "sweep", "--n", "64", "--method", "gamma-bifr", "--bandwidth", "4",
            "--param", "gamma", "--grid", grid,
        )
        assert (code, out) == (3, "")
        assert err == f"error: grid {grid!r} has more than 1000000 points\n"


class TestCoeffs:
    def test_strategy_hand_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--n", "5", "--method", "gamma-bifr",
            "--gamma", "0.5", "--bandwidth", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,coefficient"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert values == [1.0, 0.5, 0.375, 0.25, 0.171875]

    def test_inverse(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--n", "5", "--method", "gamma-bifr",
            "--gamma", "0.5", "--bandwidth", "3", "--which", "inverse",
        )
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert values == [1.0, -0.5, -0.125, 0.0, 0.0]

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--n", "3", "--method", "identity")
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert values == [1.0, 0.0, 0.0]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--n", "3", "--method", "identity", "--format", "json"
        )
        body = json.loads(out)
        assert body[0]["index"] == 0
        assert float(body[0]["coefficient"]) == 1.0

    def test_overflowing_inverse_is_refused(self, capsys):
        # finite parameters whose reciprocal series overflows past n = 300
        code, out, err = run_cli(
            capsys, "coeffs", "--n", "400", "--method", "inv-decay", "--c", "10",
            "--bandwidth", "4", "--which", "inverse",
        )
        assert (code, out, err) == (3, "", "error: coefficients must be finite\n")

    @pytest.mark.parametrize("n", [2**59, 2**61], ids=["memory-error", "value-error"])
    def test_too_large_to_allocate_exits_3(self, capsys, n):
        """n float64s are 2^62 bytes or more, which no 64-bit host can map.

        numpy raises MemoryError at 2^59 and ValueError at 2^61; both are one
        error line, not a traceback.
        """
        code, out, err = run_cli(capsys, "coeffs", "--n", str(n), "--method", "identity")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRmse:
    def test_identity_value(self, capsys):
        code, out, _ = run_cli(capsys, "rmse", "--n", "4", "--method", "identity")
        assert code == 0
        header, row = out.strip().splitlines()
        value = float(row.split(",")[header.split(",").index("rmse")])
        assert value == pytest.approx(np.sqrt(10.0) / 2.0)

    def test_bisr_equals_half_exponent(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "rmse", "--n", "64", "--method", "bisr", "--bandwidth", "8"
        )
        _, out_b, _ = run_cli(
            capsys, "rmse", "--n", "64", "--method", "gamma-bifr",
            "--gamma", "0.5", "--bandwidth", "8",
        )
        rmse_col = out_a.splitlines()[0].split(",").index("rmse")
        assert (
            out_a.splitlines()[1].split(",")[rmse_col]
            == out_b.splitlines()[1].split(",")[rmse_col]
        )

    def test_b_sets_the_separation(self, capsys):
        argv = ("rmse", "--n", "64", "--k", "4", "--method", "bisr", "--bandwidth", "8")
        code, out, _ = run_cli(capsys, *argv, "--b", "3")
        assert code == 0
        header, row = out.strip().splitlines()
        value = float(row.split(",")[header.split(",").index("rmse")])
        spec = FactorizationSpec(method=Method.BISR, n=64, bandwidth=8)
        assert value == rmse(spec, ParticipationSchema(n=64, b=3, k=4)).rmse
        assert value != rmse(spec, ParticipationSchema(n=64, b=64 // 4, k=4)).rmse
        code, out, err = run_cli(capsys, *argv, "--b", "65")
        assert (code, out, err) == (3, "", "error: min separation b=65 exceeds n=64\n")

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rmse", "--method", "identity"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--epsilon", "--delta"])
    def test_half_a_budget_is_domain_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "rmse", "--n", "8", "--method", "identity", flag, "0.5")
        assert (code, out) == (3, "")
        assert err == "error: epsilon and delta must be given together\n"

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "rmse", "--n", "8", "--method", "gamma-bifr",
            "--gamma", "1.5", "--bandwidth", "2",
        )
        assert code == 3
        assert "gamma" in err


def sweep_rows(capsys, *argv):
    """The (value, rmse, best) rows a successful ``bifr sweep`` prints."""
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    return [(float(v), float(r), int(b)) for v, r, b in
            (line.split(",") for line in out.splitlines()[1:])]  # fmt: skip


_BIFR4 = ("--method", "gamma-bifr", "--bandwidth", "4")


class TestSweep:
    def test_rows_and_best_marker(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "64", "--method", "gamma-bifr",
            "--bandwidth", "4", "--param", "gamma", "--grid", "0.05:0.95:0.05",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20  # header + 19 points
        best_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(best_rows) == 1

    def test_best_is_grid_minimum(self, capsys):
        rows = sweep_rows(capsys, "--n", "64", *_BIFR4, "--param", "gamma",
                          "--grid", "0.05:0.95:0.05")  # fmt: skip
        best = [r for _, r, b in rows if b]
        assert best == [min(r for _, r, _ in rows)]

    def test_grid_rows_match_direct_evaluation(self, capsys):
        # %.17g round-trips, so each printed row is the exact rmse at its point
        rows = sweep_rows(capsys, "--n", "32", "--k", "2", *_BIFR4, "--param", "gamma",
                          "--grid", "0.2,0.8")  # fmt: skip
        schema = ParticipationSchema(32, 16, 2)
        for value, r, _ in rows:
            spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=32, gamma=value, bandwidth=4)
            assert r == rmse(spec, schema).rmse
        assert [v for v, _, _ in rows] == [0.2, 0.8]

    def test_tie_breaks_to_smaller_param(self, capsys):
        # at bandwidth 1 every gamma gives C = I, so the rows tie exactly
        rows = sweep_rows(capsys, "--n", "32", "--method", "gamma-bifr", "--bandwidth", "1",
                          "--param", "gamma", "--grid", "0.7,0.3,0.5")  # fmt: skip
        assert len({r for _, r, _ in rows}) == 1
        assert [v for v, _, b in rows if b] == [0.3]
        # the best does not depend on the grid's order
        argv = ("--n", "32", *_BIFR4, "--param", "gamma", "--grid")
        a = sweep_rows(capsys, *argv, "0.3,0.7")
        b = sweep_rows(capsys, *argv, "0.7,0.3")
        assert [row for row in a if row[2]] == [row for row in b if row[2]]

    def test_refining_never_hurts(self, capsys):
        argv = ("--n", "64", *_BIFR4, "--param", "gamma", "--grid")
        coarse = sweep_rows(capsys, *argv, "0.1:0.9:0.1")
        fine = sweep_rows(capsys, *argv, "0.05:0.95:0.05")
        assert min(r for _, r, _ in fine) <= min(r for _, r, _ in coarse)

    def test_lambda_sweep_beats_or_ties_dp_sgd(self, capsys):
        rows = sweep_rows(capsys, "--n", "256", "--k", "4", "--method", "dp-lambda-cgd",
                          "--param", "lambda", "--grid", "0:0.9:0.1")  # fmt: skip
        assert rows[0][0] == 0.0
        assert [r for _, r, b in rows if b][0] <= rows[0][1]

    def test_bandwidth_sweep(self, capsys):
        rows = sweep_rows(capsys, "--n", "64", "--method", "gamma-bifr", "--gamma", "0.5",
                          "--param", "bandwidth", "--grid", "2,4,8,16")  # fmt: skip
        assert [v for v, _, _ in rows] == [2.0, 4.0, 8.0, 16.0]
        assert sum(b for _, _, b in rows) == 1
        # each row is the rmse at its integer bandwidth
        spec = FactorizationSpec(method=Method.GAMMA_BIFR, n=64, gamma=0.5, bandwidth=8)
        assert rows[2][1] == rmse(spec, ParticipationSchema(64, 64, 1)).rmse

    @pytest.mark.parametrize(
        "argv, message",
        [(("--bandwidth", "4", "--param", "gamma", "--grid", "0.5,1.5"),
          "gamma-bifr requires gamma in (0, 1), got 1.5\n"),
         (("--gamma", "0.5", "--param", "bandwidth", "--grid", "4,8,4.0"),
          "--grid lists an item twice, got '4,8,4.0'\n")],
        ids=["gamma-out-of-range", "bandwidth-twice"],
    )  # fmt: skip
    def test_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "sweep", "--n", "32", "--method", "gamma-bifr", *argv)
        assert (code, out, err) == (3, "", "error: " + message)

    def test_unknown_parameter_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "32", *_BIFR4, "--param", "sigma", "--grid", "0.5"])
        assert exc.value.code == 2 and "invalid choice: 'sigma'" in capsys.readouterr().err

    def test_empty_grid_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "64", "--method", "gamma-bifr",
            "--bandwidth", "4", "--param", "gamma", "--grid", "1:0:0.1",
        )
        assert code == 3

    def test_non_integer_bandwidth_error(self, capsys):
        # A row must be evaluated at the bandwidth it reports.
        code, out, err = run_cli(
            capsys, "sweep", "--n", "64", "--method", "gamma-bifr", "--gamma", "0.5",
            "--param", "bandwidth", "--grid", "2.5,4",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: bandwidth must be an integer")

    @pytest.mark.parametrize(
        "method",
        [("--method", "gamma-bifr", "--gamma", "0.5", "--bandwidth", "4", "--param", "lambda"),
         ("--method", "identity", "--param", "c"),
         ("--method", "gamma-bifr", "--gamma", "0.9", "--bandwidth", "4", "--param", "gamma"),
         ("--method", "gamma-bifr", "--gamma", "0.5", "--bandwidth", "8",
          "--param", "bandwidth")],
        ids=["gamma-bifr-lambda", "identity-c", "gamma-given", "bandwidth-given"],
    )  # fmt: skip
    def test_parameter_the_method_does_not_take(self, capsys, method):
        # Every row would be the same RMSE: the method ignores the swept value,
        # or the sweep would ignore the flag of the field it sweeps.
        code, out, err = run_cli(
            capsys, "sweep", "--n", "64", *method, "--grid", "0.1,0.5,0.9"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: ")


class TestCompare:
    def test_one_step_horizon(self, capsys):
        # No power of two >= 2 fits n = 1, so each method is tuned at p = 1.
        code, out, _ = run_cli(capsys, "compare", "--n", "1")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert len(rows) == 3
        idx = header.split(",").index("bandwidth")
        assert {row.split(",")[idx] for row in rows} == {"1", ""}

    def test_unknown_method_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--n", "8", "--methods", "bisr,bsir")
        assert (code, out) == (3, "")
        assert err == "error: unknown method 'bsir'\n"

    def test_bandwidths_without_a_banded_method_is_domain_error(self, capsys):
        # Neither method takes a bandwidth, so --bandwidths would be ignored.
        code, out, err = run_cli(
            capsys, "compare", "--n", "64", "--methods", "identity,dp-lambda-cgd",
            "--bandwidths", "4",
        )
        assert (code, out) == (3, "")
        assert err == "error: --bandwidths needs a listed method that takes a bandwidth\n"

    @pytest.mark.parametrize("bandwidths", ["", "4,", " "])
    def test_bandwidths_with_a_blank_item_is_domain_error(self, capsys, bandwidths):
        code, out, err = run_cli(capsys, "compare", "--n", "64", "--bandwidths", bandwidths)
        assert (code, out) == (3, "")
        assert err == f"error: --bandwidths must be a comma list of integers, got {bandwidths!r}\n"

    def test_table_sorted(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--n", "64", "--k", "2",
            "--methods", "identity,gamma-bifr", "--bandwidths", "4,8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        idx = lines[0].split(",").index("rmse")
        values = [float(l.split(",")[idx]) for l in lines[1:]]
        assert len(values) == 2
        assert values == sorted(values)
        # the bandwidths go to gamma-bifr only; identity tunes without one
        col = lines[0].split(",").index("bandwidth")
        tuned = {l.split(",")[0]: l.split(",")[col] for l in lines[1:]}
        assert tuned["identity"] == "" and tuned["gamma-bifr"] in {"4", "8"}
        # every list flag strips its items, so a spaced list gives the same table
        spaced = run_cli(
            capsys, "compare", "--n", "64", "--k", "2",
            "--methods", "identity, gamma-bifr ", "--bandwidths", " 4, 8",
        )
        assert spaced == (0, out, "")


class TestSimulate:
    def test_budget_and_noise_scale_together_is_domain_error(self, capsys):
        # One of the two would be silently dropped.
        code, out, err = run_cli(
            capsys, "simulate", "--n", "16", "--method", "identity", "--trials", "2",
            "--noise-scale", "2", "--epsilon", "1", "--delta", "1e-5",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: give exactly one of a privacy budget and a noise_scale")

    @pytest.mark.parametrize("flag", [("--k", "4"), ("--b", "3")], ids=["k", "b"])
    def test_schema_flag_beside_a_bare_noise_scale_is_domain_error(self, capsys, flag):
        # A bare scale is calibrated for no schema: the flag would be ignored.
        code, out, err = run_cli(
            capsys, "simulate", "--n", "64", "--method", "bisr", "--bandwidth", "4",
            "--noise-scale", "1", "--trials", "5", *flag,
        )
        assert (code, out) == (3, "")
        assert err == "error: --k and --b set the schema of a budget; --noise-scale takes neither\n"

    def test_schema_flags_calibrate_a_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "64", "--method", "bisr", "--bandwidth", "4",
            "--trials", "5", "--epsilon", "1", "--delta", "1e-5", "--k", "4", "--b", "3",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        scale = float(row.split(",")[header.split(",").index("noise_scale")])
        spec = FactorizationSpec(method=Method.BISR, n=64, bandwidth=4)
        sens = sens_exact(strategy_coeffs(spec), ParticipationSchema(n=64, b=3, k=4))
        assert scale == gaussian_sigma(PrivacyBudget(1.0, 1e-5)) * sens

    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "32", "--method", "gamma-bifr",
            "--gamma", "0.5", "--bandwidth", "4", "--trials", "200",
            "--dim", "4", "--noise-scale", "1.0",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        est, analytic = float(cols["estimate"]), float(cols["analytic"])
        assert abs(est - analytic) / analytic < 0.2

    @pytest.mark.parametrize(
        "method, flags",
        [
            ("gamma-bfr", ("--gamma", "0.5", "--bandwidth", "4", "--noise-scale", "1")),
            # no closed-form sensitivity either: the band is checked before calibration
            ("inv-decay", ("--c", "0.5", "--bandwidth", "2", "--epsilon", "1", "--delta", "1e-5")),
        ],
        ids=["gamma-bfr", "inv-decay"],
    )
    def test_refuses_a_method_without_a_banded_inverse(self, capsys, method, flags):
        # the harness filters with the engine's band, so it takes the engine's methods
        code, out, err = run_cli(
            capsys, "simulate", "--n", "16", "--method", method, "--trials", "2", *flags
        )
        assert (code, out) == (3, "")
        assert err == f"error: {method} does not have a banded inverse\n"

    def test_zero_dim_error(self, capsys):
        # dim = 0 would average over no coordinates: a NaN estimate.
        code, out, err = run_cli(
            capsys, "simulate", "--n", "16", "--method", "identity",
            "--dim", "0", "--noise-scale", "1.0",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: dim must be >= 1")

    def test_overflowing_unscaled_sums_exit_3(self, capsys):
        # the scaled noise fits, but the unscaled running sums' squares overflowed
        # to a nan estimate with exit 0
        code, out, err = run_cli(
            capsys, "simulate", "--method", "gamma-bifr", "--gamma", "0.5", "--bandwidth", "4",
            "--n", str(10**103), "--noise-scale", "1e-250", "--trials", "3", "--dim", "1",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: the spec's unscaled running sums could overflow")

    @pytest.mark.parametrize("flag", ["--n", "--dim", "--trials"])
    def test_count_too_large_for_a_float_exits_3(self, capsys, flag):
        # such a count raised OverflowError out of main, with a traceback and exit 1
        argv = {"--n": "16", "--dim": "1", "--trials": "1", flag: str(10**400)}
        code, out, err = run_cli(
            capsys, "simulate", "--method", "identity", "--noise-scale", "1",
            *(item for pair in argv.items() for item in pair),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: the spec's unscaled running sums could overflow")
        assert err.count("\n") == 1

    @staticmethod
    def identity_row(capsys, scale):
        code, out, err = run_cli(
            capsys, "simulate", "--method", "identity", "--n", "16", "--trials", "3",
            "--dim", "1", "--noise-scale", scale,
        )
        assert (code, err) == (0, "")
        return out.strip().splitlines()[1]

    @pytest.mark.parametrize("scale", ["1e-170", "1e-90", "1e100"])
    def test_figures_are_the_scale_times_the_unit_figures(self, capsys, scale):
        """1e-170 printed 0 for both, 1e-90 a stderr of 0, and 1e100 exited 3."""
        unit = [float(v) for v in self.identity_row(capsys, "1").split(",")[:2]]
        got = [float(v) for v in self.identity_row(capsys, scale).split(",")[:2]]
        assert got == [float(scale) * unit[0], float(scale) * unit[1]]
        assert min(got) > 0.0

    def test_negative_zero_scale_prints_zero(self, capsys):
        assert self.identity_row(capsys, "-0.0") == "0,0,3,0,0"

    def test_trials_too_many_to_allocate_exit_3(self, capsys):
        # 2^59 trials' values are 2^62 bytes, which no 64-bit host can map
        code, out, err = run_cli(
            capsys, "simulate", "--method", "identity", "--n", "16", "--dim", "1",
            "--noise-scale", "1", "--trials", str(2**59),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: Unable to allocate")

    def test_zero_trials_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "16", "--method", "identity",
            "--trials", "0", "--noise-scale", "1.0",
        )
        assert code == 3

    def test_leaves_scipy_signal_unimported(self):
        """Neither ``import bifr`` nor a whole simulate loads scipy.signal.

        Importing it costs about a second per process.  Run in a fresh
        interpreter, because this one may have imported it already.
        """
        code = (
            "import sys, bifr\n"
            "after_import = 'scipy.signal' in sys.modules\n"
            "import bifr.cli\n"
            "rc = bifr.cli.main(['simulate', '--n', '16', '--k', '2', '--method',"
            " 'gamma-bifr', '--gamma', '0.5', '--bandwidth', '4', '--trials', '3',"
            " '--dim', '2', '--epsilon', '1', '--delta', '1e-5'])\n"
            "print(rc, after_import, 'scipy.signal' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines()[-1] == "0 False False"

    @pytest.mark.parametrize(
        "draw",
        [
            "bifr.cli.main(['simulate', '--n', '16', '--method', 'identity',"
            " '--trials', '2', '--noise-scale', '1'])",
            "bifr.engine_step(bifr.engine_init(bifr.FactorizationSpec("
            "method=bifr.Method.IDENTITY, n=4), 2, 1.0, 0), [0.0, 0.0])",
        ],
        ids=["simulate", "engine_step"],
    )
    def test_imports_scipy_at_the_first_draw(self, draw):
        """Only a draw imports scipy.special, which is most of ``import bifr``'s cost.

        coeffs, rmse, sweep, compare and verify never draw, so they leave every
        scipy module unimported.  Run in a fresh interpreter, because this one
        has imported scipy already.
        """
        code = (
            "import contextlib, io, sys, bifr\n"
            "def scipy(): return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print('import', scipy())\n"
            "import bifr.cli\n"
            "print('import-cli', scipy())\n"
            "method = ['--method', 'gamma-bifr', '--gamma', '0.5', '--bandwidth', '4']\n"
            "for argv in (['coeffs', '--n', '8', *method], ['rmse', '--n', '64', *method],\n"
            "             ['sweep', '--n', '64', '--method', 'gamma-bifr', '--bandwidth', '4',\n"
            "              '--param', 'gamma', '--grid', '0.2:0.4:0.1'],\n"
            "             ['compare', '--n', '64'], ['verify']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = bifr.cli.main(argv)\n"
            "    print(argv[0], rc, scipy())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {draw}\n"
            "print('draw', 'scipy.special' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "import False",
            "import-cli False",
            "coeffs 0 False",
            "rmse 0 False",
            "sweep 0 False",
            "compare 0 False",
            "verify 0 False",
            "draw True",
        ]


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "monotone-tail")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("monotone-tail") and lines[1].endswith("pass")

    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("rmse", "--method", "identity"),
        ("sweep", "--method", "identity", "--param", "gamma", "--grid", "0.5"),
        ("compare",),
        ("simulate", "--method", "identity", "--noise-scale", "1.0"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("k", ["0", "-1"])
def test_nonpositive_k_is_domain_error(capsys, argv, k):
    # The default b = n // k must not divide by zero before the schema refuses k.
    code, out, err = run_cli(capsys, *argv, "--n", "16", "--k", k)
    assert (code, out) == (3, "")
    assert err.startswith("error: n, b, k must be positive")


@pytest.mark.parametrize(
    "argv",
    [
        ("rmse", "--method", "identity"),
        ("sweep", "--method", "identity", "--param", "gamma", "--grid", "0.5"),
        ("compare",),
        ("simulate", "--method", "identity", "--epsilon", "1", "--delta", "1e-5"),
    ],
    ids=lambda argv: argv[0],
)
def test_k_above_n_names_k(capsys, argv):
    # b defaults to n // k = 0; the error names the k and n given, not that b.
    code, out, err = run_cli(capsys, *argv, "--n", "8", "--k", "9")
    assert (code, out) == (3, "")
    assert err == "error: k=9 participations exceed n=8 steps\n"


_SWEEP = ("sweep", "--n", "64", "--method", "gamma-bifr", "--bandwidth", "4", "--param", "gamma")
_RMSE = ("rmse", "--n", "8", "--method", "identity")


@pytest.mark.parametrize(
    "argv, named",
    [
        ((*_SWEEP, "--grid", "0.1,"), "--grid"),
        ((*_SWEEP, "--grid", "0.3,0.3"), "--grid"),
        ((*_SWEEP, "--grid", "0.3,0.30"), "--grid"),
        ((*_SWEEP, "--grid", "0.1::0.2"), "--grid"),
        ((*_SWEEP, "--grid", "0.1:x:0.2"), "--grid"),
        ((*_SWEEP, "--grid", "0.1:0.1000000000005:1e-13"), "--grid"),
        (("compare", "--n", "64", "--methods", "bisr,,gamma-bifr"), "--methods"),
        (("compare", "--n", "64", "--methods", "bisr,bisr"), "--methods"),
        (("compare", "--n", "64", "--methods", "bsir,bsir"), "--methods lists an item twice"),
        (("compare", "--n", "64", "--bandwidths", "4,4"), "--bandwidths"),
        ((*_RMSE, "--epsilon", "1e-60", "--delta", "1e-60"), "epsilon=1e-60"),
        ((*_RMSE, "--epsilon", "710", "--delta", "1e-5"), "epsilon"),
    ],
    ids=["grid-blank", "grid-twice", "grid-same-value", "range-blank", "range-not-a-number",
         "range-rounds-to-one-value", "methods-blank", "methods-twice", "unknown-methods-twice",
         "bandwidths-twice", "uncertifiable-budget", "epsilon-overflows"],
)  # fmt: skip
def test_bad_list_or_budget_exits_3_on_one_line(capsys, argv, named):
    # a blank, non-numeric or repeated list or range item, or a budget with no
    # float sigma, is refused with one line that names it; main raises nothing
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


class TestReproducibility:
    def test_byte_identical_output(self, capsys):
        argv = [
            "sweep", "--n", "64", "--method", "gamma-bifr", "--bandwidth", "4",
            "--param", "gamma", "--grid", "0.1:0.9:0.1",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_parser_built_once(self, capsys):
        cli._build_parser.cache_clear()
        argv = ["rmse", "--n", "64", "--k", "2", "--method", "bisr", "--bandwidth", "8"]
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second and first[0] == 0
        assert cli._build_parser.cache_info().misses == 1
        with pytest.raises(SystemExit) as exc:
            main(["rmse", "--method", "identity"])
        assert exc.value.code == 2
        assert "required: --n" in capsys.readouterr().err
        assert run_cli(capsys, *argv) == first
        assert cli._build_parser.cache_info().misses == 1

    def test_sweep_seed_value_stays_in_its_namespace(self, capsys):
        # sweep sets the swept field in each point's spec, not in its parsed
        # arguments; a later call on the shared parser must see the default.
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "32", "--method", "gamma-bifr",
            "--bandwidth", "4", "--param", "gamma", "--grid", "0.2,0.4",
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "rmse", "--n", "32", "--method", "gamma-bifr", "--bandwidth", "4"
        )
        assert code == 3 and "gamma" in err
        args = cli._build_parser().parse_args(
            ["sweep", "--n", "32", "--method", "gamma-bifr", "--bandwidth", "4",
             "--param", "gamma", "--grid", "0.2,0.4"]
        )
        assert args.gamma is None


_COMMON = {"--n", "--format"}
_SCHEMA = {"--k", "--b"}
_BUDGET = {"--epsilon", "--delta"}
_METHOD = {"--method", "--gamma", "--lambda", "--c", "--bandwidth"}


class TestOptions:
    """Every flag changes the output or is refused: none is parsed and then ignored."""

    def test_flag_sets(self, parser_flags):
        assert parser_flags == {
            "coeffs": _COMMON | _METHOD | {"--which"},
            "rmse": _COMMON | _SCHEMA | _BUDGET | _METHOD,
            "sweep": _COMMON | _SCHEMA | _METHOD | {"--param", "--grid"},
            "compare": _COMMON | _SCHEMA | {"--methods", "--bandwidths"},
            "simulate": _COMMON | _SCHEMA | _BUDGET | _METHOD
            | {"--dim", "--trials", "--seed", "--noise-scale"},
            "verify": {"--suite", "--format"},
        }
        assert sum(map(len, parser_flags.values())) == 53

    @pytest.mark.parametrize(
        "argv, flag",
        [
            *((("coeffs", "--n", "3", "--method", "identity"), f)
              for f in ("--epsilon", "--delta", "--seed")),
            (("rmse", "--n", "4", "--method", "identity"), "--seed"),
            *((("sweep", "--n", "64", "--method", "gamma-bifr", "--bandwidth", "4",
                "--param", "gamma", "--grid", "0.5"), f)
              for f in ("--epsilon", "--delta", "--seed")),
            *((("compare", "--n", "8"), f) for f in ("--epsilon", "--delta", "--seed")),
            (("verify",), "--quick"),  # each suite has one grid
            # output goes to stdout only; redirect it to write a file
            *((argv, "--out") for argv in (
                ("coeffs", "--n", "3", "--method", "identity"),
                ("rmse", "--n", "8", "--method", "identity"),
                ("sweep", "--n", "8", "--method", "identity", "--param", "gamma", "--grid", "0.5"),
                ("compare", "--n", "8"),
                ("simulate", "--n", "8", "--method", "identity", "--noise-scale", "1"),
                ("verify",),
            )),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else v,
    )  # fmt: skip
    def test_removed_flag_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
