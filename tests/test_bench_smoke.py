"""Smoke run of the benchmark harness at tiny sizes, for every workload, traced and not.

Each run goes through ``bench/selftest.py``'s ``check``, which holds the
output to BENCHMARK.json: its keys, ``correct`` and no failed operation, and
every declared metric present with its unit and a finite value.  The traced
runs also check that the ``GaussianStream.fill`` spans account for every
draw the engine steps imply, so a fill that bypasses that method fails here.
The untraced runs take the path the benchmark gates on, with its tracemalloc
passes.  Each workload checks its outputs against an oracle, so the design
session also fails here if the dense ``materialize_dense(b_operator(spec))``
it rebuilds the winner's RMSE from breaks.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["train-wide", "release-narrow", "design-session"]


def _selftest():
    spec = importlib.util.spec_from_file_location("selftest", ROOT / "bench" / "selftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, trace",
    [pytest.param(w, 1, id=w) for w in WORKLOADS]
    + [pytest.param(w, 0, id=f"{w}-untraced") for w in WORKLOADS],
)
def test_traced_tiny_run(workload, trace):
    assert _selftest().check(workload, trace) == []
