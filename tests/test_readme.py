"""The README's quick start and its CLI example lines run as written, its
flag table lists what the parser takes, and its verify table names every
suite, in order, with its grid's point count.

A renamed or deleted export, a changed flag, or a grid that grows or shrinks
breaks these before a reader finds out.  ``simulate`` (10,000 trials) and
``verify --suite all`` are left to their own tests: ``simulate``'s run
smaller versions, ``verify``'s the same one.
"""

import pathlib
import re
import shlex

import pytest

from bifr.checks import SUITES, run_suite
from bifr.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_quick_start_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 1  # the one print


RUN = ("coeffs", "rmse", "sweep", "compare")
EXAMPLES = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("bifr ") and line.split()[1] in RUN
]


def test_every_listed_subcommand_has_an_example():
    assert sorted(line.split()[1] for line in EXAMPLES) == sorted(RUN)


@pytest.mark.parametrize("line", EXAMPLES, ids=lambda line: line.split()[1])
def test_cli_example_runs(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") >= 2  # a header and a row


def _readme_flag_table() -> dict:
    """The `| subcommand | flags |` table, "method flags" expanded, plus `--format`."""
    method = re.search(r"The method flags are (.*?)\.", README, flags=re.S).group(1)
    method_flags = set(re.findall(r"`(--[\w-]+)`", method))
    (table,) = re.findall(r"^\| subcommand \| flags \|\n\|.*\n((?:\|.*\n)+)", README, flags=re.M)
    flags = {}
    for row in table.splitlines():
        name, listed = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
        flags[name] = {"--format"}
        for item in listed.split(", "):
            flags[name] |= method_flags if item == "method flags" else {item.strip("`")}
    return flags


def test_flag_table_matches_the_parser(parser_flags):
    assert _readme_flag_table() == parser_flags


def test_verify_table_lists_each_suite_and_its_points():
    (table,) = re.findall(
        r"^\| suite \| statement checked \| grid \|\n\|.*\n((?:\|.*\n)+)", README, flags=re.M
    )
    row_re = r"\| `([\w-]+)` \|.*: ([\d,]+)(?: points)? \|"
    rows = [re.fullmatch(row_re, row) for row in table.splitlines()]
    assert [row.group(1) for row in rows] == list(SUITES)
    for row in rows:
        assert int(row.group(2).replace(",", "")) == run_suite(row.group(1)).grid_size, row.group(1)
