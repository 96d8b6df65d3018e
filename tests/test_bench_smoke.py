"""Smoke run of the benchmark harness at tiny sizes.

The traced run checks that the ``GaussianStream.fill`` spans account for every
draw the engine steps imply, so a fill that bypasses that method fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_release_narrow_traced_tiny_run():
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "release-narrow",
        "--seed", "7", "--seconds", "1", "--trace", "1", "--tiny",
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
