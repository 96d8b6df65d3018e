"""Banded-inverse correlated-noise factorizations for private prefix sums."""

from .calibration import PrivacyBudget, delta_for_sigma, gaussian_sigma
from .catalog import (
    FactorizationSpec,
    Method,
    binomial_series,
    inverse_band,
    inverse_coeffs,
    strategy_coeffs,
)
from .checks import CheckReport, SUITES, run_suite
from .engine import (
    CorrelatorState,
    MonteCarloEstimate,
    engine_dense_reference,
    engine_init,
    engine_step,
    run_prefix_release,
)
from .metrics import RmseReport, b_operator, frobenius_ltt, rmse
from .prng import GaussianStream, StateToken, TOKEN_BYTES
from .sensitivity import (
    ParticipationSchema,
    sens_exact,
    sens_upper_bound,
)
from .toeplitz import (
    ToeplitzOperator,
    column_norms,
    ltt_inverse,
    materialize_dense,
)
from .tuner import default_schema, tune_method

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CorrelatorState",
    "FactorizationSpec",
    "GaussianStream",
    "Method",
    "MonteCarloEstimate",
    "ParticipationSchema",
    "PrivacyBudget",
    "RmseReport",
    "SUITES",
    "StateToken",
    "TOKEN_BYTES",
    "ToeplitzOperator",
    "b_operator",
    "binomial_series",
    "column_norms",
    "default_schema",
    "delta_for_sigma",
    "engine_dense_reference",
    "engine_init",
    "engine_step",
    "frobenius_ltt",
    "gaussian_sigma",
    "inverse_band",
    "inverse_coeffs",
    "ltt_inverse",
    "materialize_dense",
    "rmse",
    "run_prefix_release",
    "run_suite",
    "sens_exact",
    "sens_upper_bound",
    "strategy_coeffs",
    "tune_method",
]
