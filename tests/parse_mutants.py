"""Deterministic token mutations of the fixtures, and what parse_source
makes of each: the frozen record of the parser's messages, spans and
structures on malformed and near-miss sources. A second record freezes
what build_diagram and the goal reports make of the same mutants.

    PYTHONPATH=src python3 tests/parse_mutants.py         # rewrite golden_parse_errors.json
    PYTHONPATH=src python3 tests/parse_mutants.py build   # rewrite golden_build_outcomes.json

Each golden file was written once and is not to be rewritten: a parser or
elaboration change must reproduce it, not regenerate it.

A third mode is a differential to run on two trees and compare by hand:

    PYTHONPATH=src python3 tests/parse_mutants.py differential N SEED

It makes N random mutants, each a fixture with 1 to 3 of its code tokens
deleted, doubled or replaced by one of DIFF_TOKENS, and prints the digest
of their build outcomes in order, then the count of each outcome. It checks
every diagram that builds against the fold as it goes.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from cohcheck.cli import build_diagram, parse_source
from cohcheck.diagram_check import Diagram, explain_goal, report_json
from cohcheck.errors import CohError
from cohcheck.ualg import _dissolution

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


def build_outcome(source: str, check: Callable[[Diagram], None] | None = None) -> dict:
    """The error's class, message, line and column from parsing, building
    or explaining every goal; or, for a source that gets that far, the
    SHA-256 of its goal reports' JSON. check, if given, sees every diagram
    that builds, before its goals are explained."""
    try:
        d = build_diagram(parse_source(source))
        if check is not None:
            check(d)
        reports = [report_json(explain_goal(d, g)) for g in d.goals]
    except CohError as err:
        span = err.span
        return {"error": [type(err).__name__, err.message, span and span.line, span and span.col]}
    blob = json.dumps(reports, separators=(",", ":"))
    return {"built": hashlib.sha256(blob.encode()).hexdigest()}


def assert_residues_are_the_fold(d: Diagram) -> None:
    """Each stored residue, and the edge's normalized boundaries, are exactly
    what the fold (the oracle) makes of the edge's term."""
    assert d.residues.keys() == d.edges.keys()
    for name, e in d.edges.items():
        edge, residue = d.residues[name]
        assert edge is e
        assert _dissolution(e.term, d.phi, d.flavor) == (d.nodes[e.source], d.nodes[e.target], residue), name


DIFF_TOKENS = (
    "a", "b", "fa", "fb", "id", "s1", "s2", "s3", "s1^-1", "perm(2 1)",
    "phi(a)", "phi(a b)", "[fa]", "[fa fb]", ";", ".", "x", "=", "(", ")",
)


def random_mutants(n: int, seed: int) -> list[str]:
    """n sources, each a fixture (drawn uniformly) with 1 to 3 distinct code
    tokens deleted, doubled or replaced by one of DIFF_TOKENS."""
    rng = random.Random(seed)
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.coh"))]
    spans = []  # per fixture, the (start, end) offsets of its code tokens
    for text in texts:
        found, at = [], 0
        for line in text.splitlines(keepends=True):
            found += [(at + m.start(), at + m.end()) for m in _TOKEN.finditer(line.split("#", 1)[0])]
            at += len(line)
        spans.append(found)
    out = []
    for _ in range(n):
        i = rng.randrange(len(texts))
        text = texts[i]
        for start, end in sorted(rng.sample(spans[i], rng.randint(1, 3)), reverse=True):  # from the end, so offsets hold
            kind = rng.randrange(3)
            new = ("", text[start:end] + " " + text[start:end], rng.choice(DIFF_TOKENS))[kind]
            text = text[:start] + new + text[end:]
        out.append(text)
    return out


def differential(n: int, seed: int) -> tuple[str, Counter, int]:
    """The SHA-256 of the build outcomes of random_mutants(n, seed) in
    order, the count of each outcome (an error class, or "built"), and the
    number of diagrams that built and agreed with the fold."""
    checked = 0

    def check(d: Diagram) -> None:
        nonlocal checked
        assert_residues_are_the_fold(d)
        checked += 1

    outcomes = [build_outcome(source, check) for source in random_mutants(n, seed)]
    counts = Counter(o["error"][0] if "error" in o else "built" for o in outcomes)
    blob = json.dumps(outcomes, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), counts, checked


if __name__ == "__main__":
    if sys.argv[1:2] == ["differential"]:
        digest, counts, checked = differential(int(sys.argv[2]), int(sys.argv[3]))
        print(f"digest {digest}")
        for name, count in counts.most_common():
            print(f"{name} {count}")
        print(f"fold agreed on {checked} diagrams")
        sys.exit(0)
    golden, of = (BUILD_GOLDEN, build_outcome) if sys.argv[1:] == ["build"] else (GOLDEN, outcome)
    record = {key: of(source) for key, source in mutants()}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(record.items())]
    golden.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
