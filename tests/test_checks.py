import pytest

from bifr.checks import (
    CheckReport,
    SUITES,
    _new_report,
    beta_decay,
    check_coeff_bounds,
    check_error_envelope,
    check_monotone_tail,
    check_norm_bounds,
    check_prefix_identity,
    check_sens_bound,
    harmonic_sum,
    harmonic_sum_bound,
    run_suite,
)


class TestReport:
    def test_record_tracks_worst_margin(self):
        r = _new_report("t")
        r._record(0.5, ("a",))
        r._record(0.1, ("b",))
        assert r.grid_size == 2 and r.violations == 0
        assert r.worst_margin == 0.1
        assert r.passed

    def test_record_counts_violations(self):
        r = _new_report("t")
        r._record(-1e-6, ("bad",))
        assert r.violations == 1 and not r.passed
        assert r.details == [("bad",)]

    def test_tolerance_slack(self):
        r = _new_report("t")
        r._record(-5e-13, ("tie",))  # within the 1e-12 slack
        assert r.violations == 0


class TestUtilities:
    def test_harmonic_sum(self):
        assert harmonic_sum(4, 1.0) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
        assert harmonic_sum(0, 2.0) == 0.0

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
    def test_quick_pass(self, name):
        report = run_suite(name, quick=True)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12
        assert report.grid_size > 0

    def test_deterministic(self):
        a = check_sens_bound(instances=30, n_max=32)
        b = check_sens_bound(instances=30, n_max=32)
        assert (a.grid_size, a.violations, a.worst_margin) == (
            b.grid_size,
            b.violations,
            b.worst_margin,
        )

    def test_custom_grids(self):
        assert check_coeff_bounds(gamma_grid=(0.01, 0.99), j_max=50).violations == 0
        assert check_prefix_identity(gamma_grid=(0.3,), j_max=60).violations == 0
        assert check_monotone_tail(gamma_grid=(0.9,), p_grid=(2,), n=64).violations == 0
        assert check_norm_bounds(
            gamma_grid=(0.1, 0.9), p_grid=(2,), n_grid=(64,)
        ).violations == 0
        assert check_error_envelope(n_grid=(1024, 2048), p_grid=(16,)).violations == 0

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("no-such-suite")

    def test_violation_detection_machinery(self):
        """A deliberately falsified bound must be flagged, not absorbed."""
        report = _new_report("falsified")
        # claim harmonic sum bounded by half its true value
        value = harmonic_sum(100, 1.0)
        report._record(0.5 * value - value, ("m=100",))
        assert report.violations == 1
