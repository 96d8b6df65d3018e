import importlib
import inspect
import operator
import pkgutil

import bifr


def test_public_surface():
    """Every exported name resolves, once; an export added or removed changes the count."""
    names = bifr.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(bifr, name)] == []
    assert len(names) == 34


def test_public_signatures():
    """A parameter added to, removed from or renamed in a public call shows here."""
    signatures = {
        name: list(inspect.signature(operator.attrgetter(name)(bifr)).parameters)
        for name in (
            "engine_init", "engine_step", "run_prefix_release", "rmse",
            "tune_method", "sens_exact", "sens_upper_bound", "strategy_coeffs",
            "inverse_coeffs", "inverse_band", "binomial_series", "run_suite",
            "gaussian_sigma", "GaussianStream.from_seed",
        )
    }
    assert signatures == {
        "engine_init": ["spec", "dim", "noise_scale", "seed"],
        "engine_step": ["state", "x", "out"],
        "run_prefix_release": ["spec", "schema", "dim", "budget", "trials", "seed", "noise_scale"],
        "rmse": ["spec", "schema", "budget"],
        "tune_method": ["method", "schema", "bandwidths"],
        "sens_exact": ["C", "schema"],
        "sens_upper_bound": ["C", "schema"],
        "strategy_coeffs": ["spec"],
        "inverse_coeffs": ["spec"],
        "inverse_band": ["spec"],
        "binomial_series": ["a", "m"],
        "run_suite": ["name"],
        "gaussian_sigma": ["budget"],
        "GaussianStream.from_seed": ["seed"],
    }
    # a suite has one fixed grid, so it takes no knob
    for name, suite in bifr.SUITES.items():
        assert list(inspect.signature(suite).parameters) == [], name


def test_no_exception_class():
    """Refused input raises a builtin error: no bifr module defines an exception class."""
    modules = [bifr] + [
        importlib.import_module(f"bifr.{info.name}") for info in pkgutil.iter_modules(bifr.__path__)
    ]
    defined = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, BaseException)
    ]
    assert bifr.catalog in modules and defined == []
