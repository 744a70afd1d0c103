"""The README stays true to the code it names."""

import argparse
import doctest
import importlib
import re
import shlex
from pathlib import Path

import pytest

from bcf import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _fenced_blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_doctests_pass():
    # All python blocks run as one session, so later blocks see earlier names.
    text = README.read_text(encoding="utf-8")
    source = "\n".join(_fenced_blocks(text, "python"))
    test = doctest.DocTestParser().get_doctest(source, {}, "README", None, 0)
    assert len(test.examples) >= 16
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def _command_lines():
    (block,) = _fenced_blocks(_section("Command line"), "sh")
    return [line for line in block.splitlines() if line.startswith("bcf ")]


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_line_runs(capsys, line):
    argv = shlex.split(line)[1:]
    assert cli.run(argv) == 0, capsys.readouterr().err


def test_readme_flags_exist():
    # Every --flag the Command line section names is an option of some
    # subcommand, so a deleted flag cannot linger in the docs.
    (subcommands,) = [
        action.choices for action in cli._PARSER._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option for parser in subcommands.values()
        for option in parser._option_string_actions
    }
    section = _section("Command line")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert "--approx" in flags
    assert flags <= options, sorted(flags - options)


def _library_tour_rows():
    section = _section("Library tour")
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`bcf."):
            yield cells[0].strip("`"), cells[1]


def test_library_tour_names_resolve():
    rows = list(_library_tour_rows())
    assert len(rows) >= 9
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for span in re.findall(r"`([^`]+)`", contents):
            name = re.match(r"\w+", span).group()
            assert hasattr(module, name), f"{module_name} has no {name}"
