"""Every name a library module imports is used in that module, and every
module it imports is its own or the standard library's, other than
dataclasses. Every top-level function and class of the library is used
somewhere. No linter runs on the project, and a deletion can leave an
import or a definition behind."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cohcheck"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _imported_modules(path: Path) -> list[str]:
    """The modules a file imports by absolute name."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    # the library has no runtime dependency
    outside = [m for m in _imported_modules(path) if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_records_are_named_tuples(path):
    # one record idiom: every library record is a NamedTuple, none a dataclass
    assert "dataclasses" not in _imported_modules(path)


def _read_names(node: ast.AST) -> set[str]:
    """The names a subtree reads: variables, attributes, imported names, and
    strings, which getattr and perfbench's tracer hooks look names up by."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


def test_every_library_definition_is_used():
    # a definition's own body does not count as a use of it
    defined, used = set(), set()
    for folder in ("src", "scripts", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                names = _read_names(stmt)
                if path.parent == SRC and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(stmt.name)
                    names.discard(stmt.name)
                used |= names
    assert defined and sorted(defined - used) == []
