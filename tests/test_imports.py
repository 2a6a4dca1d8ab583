"""Every name a library module or script imports is used in that file.
Every module the library imports is its own or the standard library's,
other than dataclasses. Every top-level function and class of the library is used
somewhere, and one that only tests use has its reason listed. No library
line is over 120 characters. No linter runs on the project, and a deletion
can leave an import or a definition behind."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cohcheck"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))  # they import cohcheck, so only the first test reads them


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + SCRIPTS, ids=lambda p: p.name)
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_line_is_over_120_characters(path):
    # wc -l of the library is a size measure: joining lines past this width
    # would lower it without removing anything
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [n for n, line in enumerate(lines, start=1) if len(line) > 120] == []


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


# Library definitions that no src/ or scripts/ statement reads, each with the
# reason the library keeps it. A definition that only tests call needs a
# reason here, or it goes.
LIBRARY_ONLY = {
    "compose_path": "library API in the README; lambda_eval's input (ROADMAP item 4)",
    "lambda_eval": "library API in the README; its caller is ROADMAP item 4",
    "identity_obj_map": "the paper's classifier, which the tests check",
    "zeta": "the paper's section, which the tests check",
    "zeta_flat": "the paper's section, which the tests check",
    "validate_umor": "perfbench's tracer hooks it by name until ROADMAP item 1",
    "dissolve": "perfbench's tracer hooks it by name until ROADMAP item 1",
    "fmor_of": "the morphism from a source word and a content",
}


def test_library_only_definitions_have_a_reason():
    # read by name: a Name or an Attribute; an import reads nothing, and a
    # definition's own body does not count
    defined, read = set(), set()
    for folder in ("src", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                names = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))}
                if path.parent == SRC and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(stmt.name)
                    names.discard(stmt.name)
                read |= names
    assert sorted(defined - read) == sorted(LIBRARY_ONLY)
