"""Smoke run of the benchmark harness at tiny sizes, for every workload, traced and not.

The traced runs check that the ``GaussianStream.fill`` spans account for every
draw the engine steps imply, so a fill that bypasses that method fails here.
The untraced runs take the path the benchmark gates on, with its tracemalloc
passes.  Each workload checks its outputs against an oracle, so the design
session also fails here if the dense ``materialize_dense(b_operator(spec))``
it rebuilds the winner's RMSE from breaks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["train-wide", "release-narrow", "design-session"]


@pytest.mark.parametrize(
    "workload, trace",
    [pytest.param(w, "1", id=w) for w in WORKLOADS]
    + [pytest.param(w, "0", id=f"{w}-untraced") for w in WORKLOADS],
)
def test_traced_tiny_run(workload, trace):
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny",
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
