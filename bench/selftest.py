"""Schema self-test: every workload at tiny sizes, both modes, in seconds.

    python3 bench/selftest.py

Runs ``run.py --tiny`` for each workload with ``--trace 0`` and ``--trace 1``
and checks the last stdout line against BENCHMARK.json: exactly the keys
correct/attempted/failed/metrics, every declared metric present with its
unit and a finite numeric value, no failed operation.  It checks the output
format, not the figures.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(declared):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors


def main() -> int:
    failed = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            errors = check(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'FAIL'}")
            for e in errors:
                print("  " + e)
            failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
