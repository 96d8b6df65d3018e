"""Committed privacy mutants: each breaks one privacy property, and named tests must kill it.

Run from anywhere:

    python tests/mutants.py

For each entry of ``MUTANTS`` the runner copies ``src/``, ``tests/``,
``test_artifacts/``, ``pyproject.toml`` and ``README.md`` to a temporary
directory, replaces the entry's old text, which must occur once in its file,
with the new text, and runs only the entry's test IDs there.  The mutant is
killed when pytest reports a failed test (exit status 1); a run that passes,
or that pytest could not carry out, leaves it alive.  The runner prints one
line per mutant and exits 1 if any survives.

``tests/test_mutants.py`` checks the table in tier-1: every old text occurs
exactly once, and every named test ID is collected.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "test_artifacts", "pyproject.toml", "README.md")


@dataclasses.dataclass(frozen=True)
class Mutant:
    file: str  # under src/bifr
    old: str
    new: str
    tests: tuple[str, ...]  # pytest IDs, relative to the repository root
    breaks: str  # the privacy property the mutant breaks


MUTANTS = (
    # A counter passing 2^128 - 1: the stream would wrap to draws already released.
    Mutant(
        "engine.py",
        "if self.origin.counter + self.spec.n * self.dim > _MASK128:",
        "if self.origin.counter > _MASK128:",
        ("tests/test_engine.py::TestInit::test_refuses_an_origin_whose_horizon_does_not_fit",),
        "the horizon's counters fit in the stream",
    ),
    Mutant(
        "prng.py",
        "if out.size > _MASK128 - self._counter:",
        "if out.size > _MASK128 - self._counter + 1:",
        ("tests/test_prng.py",),
        "no fill passes the stream's last counter",
    ),
    # A step past the horizon: the noise scale covers n steps only.
    Mutant(
        "engine.py",
        "if not 0 <= state.step < state.spec.n:",
        "if not 0 <= state.step <= state.spec.n:",
        ("tests/test_engine.py::TestStep::test_refuses_to_step_past_horizon",),
        "no step past the horizon",
    ),
    # A forked, copied or concurrent step: two callers would release the same noise.
    Mutant(
        "engine.py",
        "if state._fork_generation != _fork_generation:",
        "if False:",
        ("tests/test_engine.py::TestOneCaller",),
        "a forked child cannot step its parent's state",
    ),
    Mutant(
        "engine.py",
        "def __copy__(self):",
        "def _copy(self):",
        ("tests/test_engine.py::TestOneCaller::test_copy_is_refused",),
        "a state cannot be copied",
    ),
    Mutant(
        "engine.py",
        "if not state._lock.acquire(False):  # never waits",
        "if not (state._lock.acquire(False) or state._lock.locked()):",
        ("tests/test_engine.py::TestOneCaller",),
        "a second caller is refused while a step runs",
    ),
    # A failed step: x must not leave without its noise, and a retry draws the same window.
    Mutant(
        "engine.py",
        "out.fill(np.nan)",
        "pass",
        ("tests/test_engine.py::TestBitIdentity::test_failed_slab_step_releases_nan_and_keeps_gen",),
        "a failed step releases NaN, not x",
    ),
    Mutant(
        "engine.py",
        "state.gen.seek(state.origin.counter + i * state.dim)",
        "pass",
        (
            "tests/test_engine.py::TestBitIdentity::test_failed_step_can_be_retried",
            "tests/test_engine.py::TestBitIdentity::test_failed_slab_step_releases_nan_and_keeps_gen",
        ),
        "a failed step leaves the stream where it was",
    ),
    # A noise scale whose noise is not finite.
    Mutant(
        "engine.py",
        "if not math.isfinite(noise_scale * unit_peak):",
        "if False:",
        ("tests/test_engine.py::TestInit::test_refuses_a_finite_scale_whose_noise_could_overflow",),
        "no noise scale whose noise could overflow",
    ),
    # A sensitivity that is too small: the noise would be calibrated too low.
    Mutant(
        "sensitivity.py",
        "for off in range(0, k * b, b):",
        "for off in range(0, b, b):",
        ("tests/test_sensitivity.py",),
        "sens_exact sums all k participating columns",
    ),
    Mutant(
        "sensitivity.py",
        "if C.n != schema.n:",
        "if C.n < schema.n:",
        ("tests/test_sensitivity.py::TestExact::test_longer_strategy_is_refused",),
        "a sensitivity is taken over the strategy's whole horizon",
    ),
    Mutant(
        "metrics.py",
        "sens = sens_exact(strategy_coeffs(spec), schema)",
        "sens = sens_exact(strategy_coeffs(spec), type(schema)(schema.n, schema.n, 1))",
        ("tests/test_metrics.py", "tests/test_golden.py::test_verify_margins"),
        "rmse takes the sensitivity of its own schema",
    ),
    Mutant(
        "checks.py",
        "measured = rmse(spec, ParticipationSchema(n=n, b=b, k=k)).rmse",
        "measured = rmse(spec, ParticipationSchema(n=n, b=n, k=1)).rmse",
        ("tests/test_golden.py::test_verify_margins[error-envelope]",),
        "verify checks the error bound at each point's k participations",
    ),
    Mutant(
        "checks.py",
        "if not margin >= -_SLACK:",
        "if not margin >= -_SLACK * max(1.0, abs(margin)):",
        ("tests/test_checks.py::TestReport",),
        "verify counts a -inf margin as a violation",
    ),
    # sigma without its rounding bound: a computed delta can fall below the true one.
    Mutant(
        "calibration.py",
        "return a - eb + rel * (a + eb)",
        "return a - eb",
        ("tests/test_calibration.py::TestCertifiedSigma",),
        "sigma meets delta despite rounding",
    ),
    # A window row added out of order, or one row skipped.
    Mutant(
        "engine.py",
        "for r in range(0, scales.size, c):",
        "for r in range(0, scales.size - 1, c):",
        ("tests/test_engine.py::TestBitIdentity",),
        "every window row is added, the fresh one included",
    ),
    Mutant(
        "engine.py",
        "np.add.reduce(acc, axis=0, out=out)",
        "np.add.reduce(acc[::-1], axis=0, out=out)",
        ("tests/test_engine.py::TestBitIdentity",),
        "whole rows are added oldest first",
    ),
    Mutant(
        "engine.py",
        "np.add.accumulate(acc, axis=0, out=acc)\n                    np.copyto(out, acc[-1])",
        "np.add.reduce(acc, axis=0, out=out)",
        ("tests/test_engine.py::TestBitIdentity::test_wide_window_equals_dense_and_buffered",),
        "at dim = 1 the rows are added one by one, oldest first",
    ),
)


def _copy_tree(dest: pathlib.Path):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _apply(root: pathlib.Path, mutant: Mutant):
    path = root / "src" / "bifr" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> int:
    """Pytest's exit status on the entry's tests with the mutant applied: 1 kills it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _copy_tree(root)
        _apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        return subprocess.run(
            [*argv, *mutant.tests], cwd=root, env=env, capture_output=True
        ).returncode


def main() -> int:
    alive = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        status = run(mutant)
        verdict = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
        alive += status != 1
        print(f"{verdict:<26} {time.perf_counter() - start:5.1f} s  {mutant.file}: {mutant.breaks}")
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
