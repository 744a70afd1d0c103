"""The README stays true to the code it names."""

import doctest
import importlib
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

import bcf
from bcf import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_readme_and_pyproject_state_one_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M)
    readme = README.read_text(encoding="utf-8")
    assert re.findall(r"Requires Python ≥ ([\d.]*\d)", readme) == [floor]
    assert floor == "3.10.7"


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
    options = {flag for _, _, flags in cli._COMMANDS.values() for flag, _ in flags}
    section = _section("Command line")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert "--terms" in flags
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


def test_library_tour_names_every_public_function():
    # The reverse of the check above: adding or deleting a public function
    # updates the tour in the same change.
    named = {
        re.match(r"\w+", span).group()
        for _, contents in _library_tour_rows()
        for span in re.findall(r"`([^`]+)`", contents)
    }
    functions = {
        name for name in bcf.__all__ if inspect.isfunction(getattr(bcf, name))
    }
    assert len(functions) >= 20
    assert functions <= named, sorted(functions - named)


def _performance_rows():
    for line in _section("Performance").splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("BENCH_"):
            yield cells


def test_performance_table_quotes_each_bench_claim():
    rows = list(_performance_rows())
    assert sorted(row[0] for row in rows) == sorted(
        path.name for path in ROOT.glob("BENCH_*.json")
    )
    for name, workload, metric, medians, won in rows:
        bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
        assert (bench["claim"]["workload"], bench["claim"]["metric"]) == (
            workload, metric
        )
        summary = bench["summary"][workload]
        figures = summary["metrics"][metric]
        assert medians == "{:.2f} → {:.2f}".format(
            figures["parent_median"], figures["change_median"]
        )
        assert won == f"{figures['change_better_pairs']}/{summary['pairs']}"
