import math

import pytest

from bifr import metrics
from bifr.checks import (
    SUITES,
    _coeff_margins,
    _error_margins,
    _norm_margins,
    _prefix_margins,
    _report,
    _tail_margins,
    beta_decay,
    harmonic_sum,
    harmonic_sum_bound,
    run_suite,
)


class TestReport:
    def test_record_tracks_worst_margin(self):
        r = _report("t", [(0.5, ("a",)), (0.1, ("b",))])
        assert r.grid_size == 2 and r.violations == 0
        assert r.worst_margin == 0.1
        assert r.passed

    def test_record_counts_violations(self):
        r = _report("t", [(-1e-6, ("bad",))])
        assert r.violations == 1 and not r.passed
        assert r.details == (("bad",),)

    def test_tolerance_slack(self):
        r = _report("t", [(-5e-13, ("tie",))])  # within the 1e-12 slack
        assert r.violations == 0

    def test_minus_infinite_margin_is_a_violation(self):
        r = _report("t", [(0.5, ("a",)), (-math.inf, ("-inf",))])
        assert r.violations == 1 and r.details == (("-inf",),)
        assert r.worst_margin == -math.inf

    def test_nan_margin_is_a_violation(self):
        r = _report("t", [(0.5, ("a",)), (math.nan, ("nan",)), (0.1, ("b",))])
        assert r.violations == 1 and r.details == (("nan",),)
        assert math.isnan(r.worst_margin)


class TestUtilities:
    def test_harmonic_sum(self):
        assert harmonic_sum(4, 1.0) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
        assert harmonic_sum(0, 2.0) == 0.0

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_harmonic_bound_of_an_empty_sum(self, s):
        assert harmonic_sum_bound(0, s) == harmonic_sum(0, s) == 0.0
        assert harmonic_sum_bound(-2, s) == 0.0

    def test_harmonic_bounds(self):
        for s in (0.5, 1.0, 2.0):
            for m in (1, 10, 1000, 10000):
                assert harmonic_sum(m, s) <= harmonic_sum_bound(m, s)

    def test_beta_two_sided(self):
        for gamma in (0.05, 0.5, 0.95):
            for p in (2, 8, 128):
                beta = beta_decay(gamma, p)
                assert (1 - gamma) / (8 * p) <= beta <= (1 - gamma) / (4 * p)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes(self, name):
        report = run_suite(name)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12
        assert report.grid_size > 0

    def test_deterministic(self):
        sens_bound = SUITES["sens-bound"]
        assert list(sens_bound()) == list(sens_bound())

    def test_custom_grids(self):
        """The per-point margins hold at edge points outside the suites' grids."""
        pairs = [
            *_coeff_margins(0.01, 50),
            *_coeff_margins(0.99, 50),
            *_prefix_margins(0.3, 60),
            *_tail_margins(0.9, 2, 64),
            *_norm_margins(0.1, 2, 64),
            *_norm_margins(0.9, 2, 64),
            *(pair for k in (1, 4, 16) for pair in _error_margins(0.1, 2, 64, k)),
            *(pair for k in (1, 4, 16) for pair in _error_margins(0.9, 2, 64, k)),
        ]
        report = _report("edges", pairs)
        assert report.grid_size == len(pairs) and report.violations == 0, report.details

    @pytest.mark.parametrize("factor", [1.01, 2.0])
    def test_error_bound_catches_an_rmse_slip(self, monkeypatch, factor):
        """An RMSE 1% too large fails the full grid's tightest point; twice too large, every k."""
        exact = metrics.sens_exact
        monkeypatch.setattr(metrics, "sens_exact", lambda C, schema: factor * exact(C, schema))
        report = run_suite("error-envelope")
        if factor == 1.01:
            assert report.details == (("error", 0.1, 32, 1024, 1),)
        else:
            assert {where[-1] for where in report.details} == {1, 4, 16}

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown check suite 'no-such-suite'"):
            run_suite("no-such-suite")

    def test_violation_detection_machinery(self):
        """A deliberately falsified bound must be flagged, not absorbed."""
        # claim harmonic sum bounded by half its true value
        value = harmonic_sum(100, 1.0)
        report = _report("falsified", [(0.5 * value - value, ("m=100",))])
        assert report.violations == 1

