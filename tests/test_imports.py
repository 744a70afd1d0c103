"""Every module of src/bcf uses each name it imports, and every private
top-level function or class of src/bcf is named somewhere in src/bcf
outside its own definition.  A deletion can leave an import or a helper
behind; the package has no linter dependency, so this parses each module
with ast instead.  __init__.py is left out of the import check: it imports
to re-export.  One more rule is pinned the same way: only
fields._refine_more calls .refine(, so precision is asked for by one rule."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bcf"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                alias.asname or alias.name.partition(".")[0] for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_found():
    source = "import operator\nimport math\nfrom . import polys\nmath.floor(polys)\n"
    assert _unused_imports(source) == ["operator"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unused_private_definitions(sources):
    """Private top-level functions and classes that no top-level statement
    but their own definition names, across all the given module sources."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    defined.add(own := node.name)
            named |= {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))
            } - {own}
    return sorted(defined - named)


def test_unused_private_definition_is_found():
    sources = [
        "def _dead(n):\n    return _dead(n - 1)\nclass _Gone:\n    pass\n",
        "from . import a\ndef _kept():\n    return a._used()\n"
        "def _used():\n    return _kept\n",
    ]
    assert _unused_private_definitions(sources) == ["_Gone", "_dead"]


def test_no_unused_private_definitions():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert _unused_private_definitions(sources) == []


def _refine_callers(sources):
    """(module, function) for each function or method in the sources, a
    dict of module name to source text, whose body calls some .refine(...);
    a bare refine(...) is not a method call and does not count."""
    callers = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "refine"):
                    callers.add((module, node.name))
    return sorted(callers)


def test_refine_caller_is_found():
    sources = {
        "a": "def _more(f):\n    f.refine(3)\nclass K:\n"
             "    def get(self):\n        self.field.refine()\n",
        "b": "def refine(x):\n    return x\ndef g(y):\n    return refine(y)\n",
    }
    assert _refine_callers(sources) == [("a", "_more"), ("a", "get")]


def test_only_refine_more_refines():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _refine_callers(sources) == [("fields", "_refine_more")]
