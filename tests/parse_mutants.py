"""Deterministic token mutations of the fixtures, and what parse_source
makes of each: the frozen record of the parser's messages, spans and
structures on malformed and near-miss sources. A second record freezes
what build_diagram and the goal reports make of the same mutants.

    PYTHONPATH=src python3 tests/parse_mutants.py         # rewrite golden_parse_errors.json
    PYTHONPATH=src python3 tests/parse_mutants.py build   # rewrite golden_build_outcomes.json

Each golden file was written once and is not to be rewritten: a parser or
elaboration change must reproduce it, not regenerate it.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from cohcheck.cli import build_diagram, parse_source
from cohcheck.diagram_check import explain_goal, report_json
from cohcheck.errors import CohError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden_parse_errors.json"
BUILD_GOLDEN = Path(__file__).resolve().parent / "golden_build_outcomes.json"

# the tokens of the .coh format, found independently of the parser under test
_TOKEN = re.compile(r'"[^"]*"|->|==|[A-Za-z_][A-Za-z0-9_]*(?:\^-1)?|-?\d+|[()\[\]{}|;.,=:]')
REPLACEMENTS = ("=", "x", "(", ")", ",", "$", '"', "s0", "perm(")
KINDS = ("delete", "double") + tuple(f"replace {r}" for r in REPLACEMENTS)


def mutants() -> list[tuple[str, str]]:
    """(id, source) pairs: token g of the corpus (counted over every
    fixture's code, comments excluded) undergoes kinds g and g + 5 modulo
    the 11 kinds, so that neighbouring tokens see different kinds."""
    out = []
    g = 0
    for path in sorted(FIXTURES.glob("*.coh")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines):
            code = line.split("#", 1)[0]
            for m in _TOKEN.finditer(code):
                for step in (0, 5):
                    kind = KINDS[(g + step) % len(KINDS)]
                    if kind == "delete":
                        new = ""
                    elif kind == "double":
                        new = m.group() + " " + m.group()
                    else:
                        new = kind[len("replace "):]
                    mutated = line[: m.start()] + new + line[m.end():]
                    source = "\n".join(lines[:lineno] + [mutated] + lines[lineno + 1:]) + "\n"
                    out.append((f"{path.name}:{lineno + 1}:{m.start() + 1} {kind}", source))
                g += 1
    return out


def outcome(source: str) -> dict:
    """The error's class, message, line and column; or, for a source that
    parses, the SHA-256 of its structure and spans as canonical JSON (a
    digest keeps the file small: the structures alone are ~1 MB)."""
    try:
        sf = parse_source(source)
    except CohError as err:
        span = err.span
        return {"error": [type(err).__name__, err.message, span and span.line, span and span.col]}
    spans = sorted([kind, name, s.line, s.col] for (kind, name), s in sf.spans.items())
    blob = json.dumps([sf.structure(), spans], separators=(",", ":"))
    return {"parsed": hashlib.sha256(blob.encode()).hexdigest()}


def build_outcome(source: str) -> dict:
    """The error's class, message, line and column from parsing, building
    or explaining every goal; or, for a source that gets that far, the
    SHA-256 of its goal reports' JSON."""
    try:
        d = build_diagram(parse_source(source))
        reports = [report_json(explain_goal(d, g)) for g in d.goals]
    except CohError as err:
        span = err.span
        return {"error": [type(err).__name__, err.message, span and span.line, span and span.col]}
    blob = json.dumps(reports, separators=(",", ":"))
    return {"built": hashlib.sha256(blob.encode()).hexdigest()}


if __name__ == "__main__":
    golden, of = (BUILD_GOLDEN, build_outcome) if sys.argv[1:] == ["build"] else (GOLDEN, outcome)
    record = {key: of(source) for key, source in mutants()}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(record.items())]
    golden.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
