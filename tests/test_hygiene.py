"""Source hygiene: every name a module imports is read in that module, every
function and class the package defines, but three named colorings, is read
outside the tests, the oracles import nothing from the code they check,
their search does not recurse, the detector has one grower, no module
reads the environment, and only constructions.py knows the verify limit."""
import ast
from pathlib import Path

import pytest

import arforest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "arforest").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads.

    A name is read if it is loaded anywhere in the module or listed in
    __all__; __future__ imports bind no name anyone reads, so they are
    skipped.
    """
    tree = ast.parse(source)
    imported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import pi, tau\n"
              "from typing import Optional\n"
              "__all__ = ['tau']\n"
              "def f(x: Optional[int]) -> float:\n"
              "    return pi\n")
    assert unused_imports(source) == ["js", "os"]


def test_every_exported_name_resolves():
    assert [name for name in arforest.__all__
            if not hasattr(arforest, name)] == []


def package_imports(source: str) -> set[str]:
    """The arforest modules the source imports, by their name in the
    package."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("arforest."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "arforest":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_oracles_import_only_what_they_do_not_check():
    # the oracles are the ground truth for the hub constructions, so they
    # must not build their answers from them
    source = (ROOT / "src" / "arforest" / "oracles.py").read_text()
    assert package_imports(source) <= {"graphs", "formulas", "rainbow"}


def test_package_imports_sees_every_form():
    source = ("from . import rainbow\n"
              "from .graphs import Graph\n"
              "from arforest.constructions import build_turan_extremal\n"
              "from arforest import formulas\n"
              "import arforest.cli\n"
              "import os.path\n"
              "from typing import Optional\n")
    assert package_imports(source) == {"rainbow", "graphs", "constructions",
                                       "formulas", "cli"}


def self_calls(source: str) -> list[str]:
    """The functions in the source, nested ones included, that call
    themselves by name."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == node.name for call in ast.walk(node)))


def test_oracles_do_not_recurse():
    # a search nests no Python call per decided edge, so its depth is not
    # bounded by the interpreter stack
    source = (ROOT / "src" / "arforest" / "oracles.py").read_text()
    assert self_calls(source) == []


def test_detector_has_one_grower():
    # the plain and the anchored search share one extension loop, so no
    # second placement function may come back beside _grow
    tree = ast.parse((ROOT / "src" / "arforest" / "rainbow.py").read_text())
    assert sorted(node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name.startswith("_")) == ["_grow", "_search_forest"]


def test_oracles_call_the_detector_in_one_place():
    # every check of both oracles reads the copy store first, so the only
    # call of the detector in oracles.py is the one behind the store
    source = (ROOT / "src" / "arforest" / "oracles.py").read_text()
    lines = names_read(source, "_search_forest")
    [problem] = [node for node in ast.parse(source).body
                 if isinstance(node, ast.ClassDef) and node.name == "_Problem"]
    [detect] = [node for node in problem.body
                if isinstance(node, ast.FunctionDef) and node.name == "_detect"]
    assert len(lines) == 1
    assert detect.lineno <= lines[0] <= detect.end_lineno


def test_self_calls_sees_nested_functions():
    # reading a function's own name is not a call
    source = ("def outer(k):\n"
              "    def rec(i):\n"
              "        return rec(i - 1) if i else outer\n")
    assert self_calls(source) == ["rec"]


def environment_reads(source: str) -> list[int]:
    """The lines on which the source reads os.environ or os.getenv, as an
    attribute of os or imported from it."""
    names = {"environ", "environb", "getenv", "getenvb"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in names for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    # flags are the CLI's only input channel, so a run is described in full
    # by its command line
    found = {p.name: environment_reads(p.read_text())
             for p in (ROOT / "src" / "arforest").glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_environment_reads_sees_every_form():
    source = ("import os\n"
              "from os import getenv\n"
              "from os import path\n"
              "a = os.environ.get('X')\n"
              "b = os.getenv('X')\n"
              "c = os.path.join('a', 'b')\n")
    assert environment_reads(source) == [2, 4, 5]


def names_read(source: str, name: str) -> list[int]:
    """The lines on which the source names the given name, bare, as an
    attribute or in an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    alias.name == name for alias in node.names))):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_constructions_knows_the_verify_limit():
    # check_free alone decides which hosts the detector checks, so a
    # caller learns whether it ran from its return value
    found = {p.name: names_read(p.read_text(), "VERIFY_LIMIT")
             for p in (ROOT / "src" / "arforest").glob("*.py")
             if p.name != "constructions.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_names_read_sees_every_form():
    source = ("from .constructions import VERIFY_LIMIT\n"
              "import arforest.constructions as c\n"
              "a = c.VERIFY_LIMIT\n"
              "b = VERIFY_LIMIT\n"
              "VERIFY = 'VERIFY_LIMIT'\n")
    assert names_read(source, "VERIFY_LIMIT") == [1, 3, 4]


def unread_definitions(defining: list[str], reading: list[str]) -> list[str]:
    """The functions, methods and classes the defining sources define that
    no source, of either list, reads by name or as an attribute.

    A name that some source also stores as an attribute, as in self.edges =
    ..., counts as read only where it is called, since reading it may read
    the data.  Dunder methods are left out: Python calls them without
    naming them.
    """
    defined: set[str] = set()
    read: set[str] = set()
    stored: set[str] = set()
    called: set[str] = set()
    for source in defining + reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.ctx, ast.Store):
                    stored.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                called.add(func.attr if isinstance(func, ast.Attribute)
                           else getattr(func, "id", ""))
    for source in defining:
        defined.update(
            node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))
    return sorted(defined - (read - stored) - called)


def test_only_the_named_colorings_go_unread_outside_the_tests():
    # __init__.py only re-exports names, so a name it lists still counts as
    # unread; the named colorings are what the tests and the README build
    library = [p.read_text() for p in (ROOT / "src" / "arforest").glob("*.py")
               if p.name != "__init__.py"]
    bench = [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    assert unread_definitions(library, bench) == [
        "all_rainbow", "canonical", "monochromatic"]


def test_unread_definitions_sees_names_and_attributes():
    source = ("class Box:\n"
              "    def __len__(self):\n"
              "        return 0\n"
              "    def used(self):\n"
              "        return self.used\n"
              "    def only_stored(self):\n"
              "        self.only_stored = 1\n"
              "    def shadowed(self):\n"
              "        return self.shadowed\n"
              "    def stored_and_called(self):\n"
              "        self.stored_and_called = 1\n"
              "def helper():\n"
              "    pass\n"
              "def caller():\n"
              "    return Box()\n")
    # shadowed is read only as the data that self.shadowed = ... stores
    reading = ["caller(); x.helper; x.stored_and_called()",
               "self.shadowed = []"]
    assert unread_definitions([source], reading) == [
        "only_stored", "shadowed"]
