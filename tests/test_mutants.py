"""The privacy mutant table stays applicable: ``python tests/mutants.py`` runs the mutants.

A refactor that moves a mutant's old text, or renames a test it names, fails
here at once, so the table cannot rot without notice.
"""

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.breaks}")
def test_old_text_occurs_once(mutant):
    text = (ROOT / "src" / "bifr" / mutant.file).read_text()
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old


def test_every_named_test_is_collected():
    ids = sorted({test for m in MUTANTS for test in m.tests})
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    collected = run.stdout.splitlines()
    for test in ids:
        prefixes = (f"{test}::", f"{test}[")
        assert any(line == test or line.startswith(prefixes) for line in collected), test
