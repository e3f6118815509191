"""Every module-level import in the package and in the tests is used, and
every name the package re-exports is reached and hides none of its modules.

A stdlib-``ast`` stand-in for a linter's unused-import rule: deleting code
must not leave its imports behind.  The package's ``__init__.py`` (whose
imports are the package's re-exports) and ``from __future__`` imports are
exempt.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nctoggles"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a import b as c\n"
        "sys.exit()\n"
    )
    assert unused_imports(source) == ["os", "c"]


def test_package_modules_are_found():
    assert {"core.py", "toggles.py", "indsets.py"} <= {p.name for p in MODULES}
    assert {"brute.py", "test_imports.py"} <= {p.name for p in TESTS}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_test_module_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The top-level modules a source imports absolutely, at any depth:
    inside functions too, where the package imports numpy on first use."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_checker_finds_a_function_level_import():
    source = (
        "from . import core\n"
        "def f():\n"
        "    import numpy.linalg as la\n"
        "    from os import path\n"
    )
    assert imported_modules(source) == {"numpy", "os"}


def test_only_core_imports_numpy():
    # The engine choice (core.vectorized) and both engines live in core.
    importers = [
        p.name for p in sorted(PACKAGE.glob("*.py"))
        if "numpy" in imported_modules(p.read_text(encoding="utf-8"))
    ]
    assert importers == ["core.py"]


def reexported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]


def test_no_public_name_hides_a_module():
    exported = set(reexported())
    assert exported >= {"orbits", "toggle"}
    assert exported.isdisjoint(p.stem for p in MODULES)


def test_every_reexport_is_reached():
    # A name only tests call belongs in the tests, not in the package's
    # surface: each re-export must be read as a name or an attribute by a
    # package module or by bench/, or be documented in README's backticks.
    reached = set()
    for path in [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"`([^`\n]+)`", readme):
        reached.update(re.findall(r"[A-Za-z_]\w*", span))
    assert [name for name in reexported() if name not in reached] == []
