"""The README stays true to the code it names."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_tour_rows():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
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
