"""Every module of src/bcf uses each name it imports, every private
top-level function or class of src/bcf is named somewhere in src/bcf
outside its own definition, and so is every public one that bcf.__all__
does not export, so no public helper is kept without a caller.  A deletion
can leave an import or a helper behind; the package has no linter
dependency, so this parses each module with ast instead.  __init__.py is
left out of the import check: it imports to re-export, so the names it
imports must be exactly its __all__ minus __version__, and the two lists
cannot drift apart.  Six more rules are pinned the same way: only
fields._refine_more calls .refine(, so precision is asked for by one rule;
only AlgebraicNumber._coerce raises FieldMismatch, so operands are
embedded into one field by one rule; only recovery.recover_cubic_eventual
raises DegenerateSystem, so recovery has one degeneracy guard; only
cli._literal calls parse_number, so the kinds of literal a flag takes are
decided by one rule; outside fields no code reads .degree but as
polys.degree, so fields alone knows that a numerator vector is three
integers, zero past the degree; and cli takes exactly bcf_expand from
expansion, so expansion alone picks the engine for a pair.  Every flag of
cli._COMMANDS has an action that cli._parse reads, store or append, so a
flag that takes no value cannot be read as one that does.  Last, importing
bcf.cli, as every bcf command
does first, loads none of dataclasses, inspect or typing, whose import
costs each command more than its work on a small input, nor argparse,
shutil, gettext or locale, which only help needs: a run, or a usage
error, loads none of them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcf

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


def _reexport_drift(source):
    """(imported but not in __all__, in __all__ but not imported), each
    sorted, for a package __init__ source; __version__ is not imported."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value)) - {"__version__"}
    return sorted(imported - exported), sorted(exported - imported)


def test_reexport_drift_is_found():
    source = ("from .a import kept, stray\nfrom .b import also\nimport os.path\n"
              "__version__ = '1'\n"
              "__all__ = ['kept', 'also', 'missing', '__version__']\n")
    assert _reexport_drift(source) == (["os", "stray"], ["missing"])


def test_init_imports_exactly_its_all():
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert _reexport_drift(source) == ([], [])


def _unnamed_definitions(sources, counted=lambda name: name.startswith("_")):
    """Top-level functions and classes whose name counted() accepts (by
    default the private ones) and that no top-level statement but their
    own definition names, across all the given module sources."""
    defined, named = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if counted(node.name):
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
    assert _unnamed_definitions(sources) == ["_Gone", "_dead"]


def test_no_unused_private_definitions():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert _unnamed_definitions(sources) == []


def _uncalled_public(exported):
    """The counted() rule for public names outside exported."""
    return lambda name: not name.startswith("_") and name not in exported


def test_uncalled_public_definition_is_found():
    sources = [
        "def wrapper(x):\n    return _core(x)\ndef _core(x):\n    return x\n"
        "class Helper:\n    pass\ndef exported():\n    return 1\n",
        "from . import a\ndef used(y):\n    return a.trim(y)\n"
        "def trim(y):\n    return y\n",
    ]
    assert _unnamed_definitions(sources, _uncalled_public({"exported"})) == [
        "Helper", "used", "wrapper"]


def test_every_public_definition_is_exported_or_called():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert _unnamed_definitions(sources, _uncalled_public(set(bcf.__all__))) == []


def _functions_where(sources, hit):
    """(module, function) for each function or method in the sources, a
    dict of module name to source text, with some node in its body for
    which hit(node) holds."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    hit(sub) for sub in ast.walk(node)):
                found.add((module, node.name))
    return sorted(found)


def _calls_refine(node):
    """A method call .refine(...); a bare refine(...) does not count."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "refine")


def _calls_parse_number(node):
    """A call parse_number(...) or literals.parse_number(...)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "parse_number"


def _raises(error):
    """A hit for raise error or raise errors.error, called or not."""
    def hit(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
        return name == error
    return hit


def _reads_degree(node):
    """A read of an attribute .degree other than polys.degree."""
    return (isinstance(node, ast.Attribute) and node.attr == "degree"
            and not (isinstance(node.value, ast.Name) and node.value.id == "polys"))


def _lines_where(sources, hit):
    """(module, line) of each node anywhere in the sources, a dict of module
    name to source text, for which hit(node) holds."""
    return sorted((module, node.lineno) for module, source in sources.items()
                  for node in ast.walk(ast.parse(source)) if hit(node))


def _sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}


def test_refine_caller_is_found():
    sources = {
        "a": "def _more(f):\n    f.refine(3)\nclass K:\n"
             "    def get(self):\n        self.field.refine()\n",
        "b": "def refine(x):\n    return x\ndef g(y):\n    return refine(y)\n",
    }
    assert _functions_where(sources, _calls_refine) == [("a", "_more"), ("a", "get")]


def test_only_refine_more_refines():
    assert _functions_where(_sources(), _calls_refine) == [("fields", "_refine_more")]


def test_field_mismatch_raiser_is_found():
    sources = {
        "a": "class K:\n    def _coerce(self, o):\n"
             "        raise FieldMismatch(f'{o}')\n"
             "def bare():\n    raise FieldMismatch\n",
        "b": "from . import errors\ndef g(x):\n    raise errors.FieldMismatch('x')\n"
             "def h(x):\n    try:\n        x()\n    except FieldMismatch:\n"
             "        raise ValueError('y')\n",
    }
    assert _functions_where(sources, _raises("FieldMismatch")) == [
        ("a", "_coerce"), ("a", "bare"), ("b", "g")]


def test_only_coerce_raises_field_mismatch():
    assert _functions_where(_sources(), _raises("FieldMismatch")) == [
        ("fields", "_coerce")]


def test_degenerate_system_raiser_is_found():
    sources = {
        "a": "def recover(m):\n    if m:\n        raise DegenerateSystem('x')\n"
             "class K:\n    def _guard(self):\n"
             "        raise errors.DegenerateSystem\n",
        "b": "def g(x):\n    raise FieldMismatch('x')\n"
             "def h(x):\n    return DegenerateSystem('y')\n",
    }
    assert _functions_where(sources, _raises("DegenerateSystem")) == [
        ("a", "_guard"), ("a", "recover")]


def test_only_recover_cubic_eventual_raises_degenerate_system():
    assert _functions_where(_sources(), _raises("DegenerateSystem")) == [
        ("recovery", "recover_cubic_eventual")]


def test_parse_number_caller_is_found():
    sources = {
        "a": "def _literal(t, flag, kinds):\n    return parse_number(t)\n"
             "class K:\n    def get(self, t):\n"
             "        return literals.parse_number(t)\n",
        "b": "from .literals import parse_number\n"
             "def parse(t):\n    return parse_digits(t)\n"
             "def h(f):\n    return f(parse_number)\n",
    }
    assert _functions_where(sources, _calls_parse_number) == [
        ("a", "_literal"), ("a", "get")]


def test_only_literal_parses_numbers():
    assert _functions_where(_sources(), _calls_parse_number) == [("cli", "_literal")]


def test_degree_read_is_found():
    sources = {
        "a": "def f(x):\n    return x.field.degree\nD = K.degree\n",
        "b": "from . import polys\ndef g(c):\n    return polys.degree(c)\n"
             "def degree(x):\n    return degree(x)\n",
    }
    assert _lines_where(sources, _reads_degree) == [("a", 2), ("a", 3)]


def test_only_fields_reads_the_degree():
    sources = {m: s for m, s in _sources().items() if m != "fields"}
    assert _lines_where(sources, _reads_degree) == []


def _expansion_imports(source):
    """What a module imports of expansion: each name it takes from
    .expansion, and 'expansion' for the whole module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "expansion":
                names += [alias.name for alias in node.names]
            elif node.module is None:
                names += [a.name for a in node.names if a.name == "expansion"]
    return names


def test_expansion_import_is_found():
    source = ("from .expansion import bcf_expand, _rational_run\n"
              "from . import _kernels, expansion\nfrom .fields import floor_of\n")
    assert _expansion_imports(source) == ["bcf_expand", "_rational_run", "expansion"]


def test_cli_takes_one_expand_entry_point():
    assert _expansion_imports(_sources()["cli"]) == ["bcf_expand"]


def test_every_flag_has_an_action_parse_reads():
    from bcf import cli

    unread = [(name, flag) for name, (_, _, flags) in cli._COMMANDS.items()
              for flag, keywords in flags
              if keywords.get("action", "store") not in ("store", "append")]
    assert unread == []


# Run in the child after import bcf.cli: one catalogue argv of each
# subcommand and one usage error of each kind, then scan -h.
_RUN_PATH = """
import contextlib, io, json, sys
import bcf.cli
loaded = sorted(sys.modules)
sys.path.insert(0, "perfbench")
import workloads
argvs = {}
for workload in workloads.WORKLOADS.values():
    for op in workload.catalogue():
        argvs.setdefault(op["argv"][0], op["argv"])
argvs = [*argvs.values(), ["scan", "--bogus"], ["eval", "--a", "--b", "1"],
         ["eval", "--a=--", "--b=1"], ["expand", "--alpha"],
         ["scan", "--horizon=0"], ["eval", "--format=xml"], ["recover"],
         ["eval", "--a=1", "--b=1", "7"], ["eval", "--a=1", "--", "--b=1"],
         ["no-such-command"], [], ["-x"]]
with (contextlib.redirect_stdout(io.StringIO()),
      contextlib.redirect_stderr(io.StringIO())):
    codes = [bcf.cli.run(argv) for argv in argvs]
    after_run = "argparse" in sys.modules
    codes.append(bcf.cli.run(["scan", "-h"]))
print(json.dumps([loaded, codes, after_run, "argparse" in sys.modules]))
"""


def test_cli_import_loads_no_dataclasses_inspect_typing_or_argparse():
    # -S: site hooks may import typing themselves.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_PATH],
        cwd=SRC.parent.parent, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, codes, after_run, after_help = json.loads(proc.stdout)
    assert "bcf.cli" in loaded
    assert set(loaded) & {"dataclasses", "inspect", "typing", "argparse",
                          "shutil", "gettext", "locale"} == set()
    assert codes == [0] * 6 + [2] * 12 + [0]
    assert (after_run, after_help) == (False, True)
