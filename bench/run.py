"""bifr benchmark: one workload, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere; the program under test is ``src/bifr`` of the checkout
that holds this file.  Each workload runs in a fresh single-threaded child
process (``workloads.py``).  With ``--trace 0`` the last stdout line carries
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Lines before it record the machine and the sample counts.  The exit
code is 0 only when every operation succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-wide", "release-narrow", "design-session")
SETUP_RUNS = 5  # fresh processes timed per run; setup_s is their median
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0  # the whole run, every child included


def machine() -> dict:
    """Where the numbers came from; read-only probes of /proc and /sys."""
    info = dict(
        nproc=len(os.sched_getaffinity(0)),
        cpu="unknown",
        python=platform.python_version(),
        blas_threads=BLAS_THREADS,
    )
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # workloads.py puts the checkout's src/ first itself
    return env


def run_child(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run workloads.py once; returns (spawn time, its report)."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload child ran past the time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited {proc.returncode}:\n{err[-4000:]}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def end_to_end(report: dict, setups: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "latency_ms.min": {"value": report["best_ns"] / 1e6, "unit": "ms"},
        "peak_mib": {"value": report["peak_bytes"] / 2**20, "unit": "MiB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the schema self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bifr" / "__init__.py").is_file():
        print(f"error: no bifr source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    setups: list[float] = []
    try:
        # Set-up alone in fresh processes (end-to-end runs only), then the run.
        for _ in range(0 if args.trace or args.tiny else SETUP_RUNS - 1):
            t_spawn, rep = run_child(args, deadline, setup_only=True)
            setups.append(rep["setup"]["ready"] - t_spawn)
        t_spawn, report = run_child(args, deadline, setup_only=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup"]["ready"] - t_spawn)

    info = machine()
    info["numpy"], info["scipy"] = report["versions"]
    print("machine: " + json.dumps(info))
    keys = ("best_ns", "latency", "compare", "simulate", "traced_best_ns", "traced_latency")
    samples = {k: report[k] for k in keys if k in report}
    print("samples: " + json.dumps(dict(seed=args.seed, setup_runs=len(setups), **samples)))
    for message in report["failures"]:
        print("failure: " + message)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
    else:
        metrics = end_to_end(report, setups)
    ok = report["failed"] == 0 and report["best_ns"] is not None
    result = dict(correct=ok, attempted=report["attempted"], failed=report["failed"], metrics=metrics)
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
