"""The printer of the .coh format: a parsed SourceFile back to text.

Only the tests print sources, so the printer lives here rather than in the
tool; reparsing its output yields the same structure.
"""

from __future__ import annotations

from cohcheck.braid_core import BraidWord, braid_str
from cohcheck.cli import FLAVOR_WORDS, MorAst, ObjAst, SourceFile


def _format_obj(ast: ObjAst) -> str:
    parts = []
    for item in ast:
        if item[0] == "letters":
            parts.append("[" + " ".join(item[1]) + "]")
        else:
            parts.append(f"{item[1]}(" + " ".join(item[2]) + ")")
    return " ; ".join(parts)


def _format_word(letters: tuple[int, ...]) -> str:
    return '"' + braid_str(BraidWord(max((abs(l) for l in letters), default=0) + 1, letters)) + '"'


def _format_factor(f: tuple) -> str:
    if f[0] == "id":
        return "id"
    if f[0] == "word":
        return _format_word(f[1])
    if f[0] == "perm":
        return "perm(" + " ".join(str(i + 1) for i in f[1]) + ")"
    if f[0] in ("q", "qinv"):
        head = "q" if f[0] == "q" else "q^-1"
        return head + "(" + " | ".join(" ".join(w) for w in f[1]) + ")"
    if f[0] == "pf":
        inner = ", ".join(_format_factor(g) for g in f[2])
        return f"pf(outer={_format_factor(f[1])}; inner={inner})"
    return f"braid({_format_obj(f[1])}, {_format_obj(f[2])})"


def _format_mor(ast: MorAst) -> str:
    return " . ".join(" ; ".join(_format_factor(f) for f in row[1]) for row in ast[1])


def format_source(sf: SourceFile) -> str:
    """Print a SourceFile back out; reparsing yields the same structure."""
    out: list[str] = []
    if sf.flavor is not None:
        word = {v: k for k, v in FLAVOR_WORDS.items()}[sf.flavor]
        out.append(f"flavor {word}")
    for name, names in sf.gens:
        out.append(f"gens {name} = {{ " + ", ".join(names) + " }")
    if sf.objmap is not None:
        name, src, tgt, pairs = sf.objmap
        body = "; ".join(f"{a} -> {b}" for a, b in pairs)
        out.append(f"map {name} : {src} -> {tgt} {{ {body} }}")
    for name, ast in sf.nodes:
        out.append(f"node {name} = {_format_obj(ast)}")
    for name, src, tgt, ast in sf.edges:
        out.append(f"edge {name} : {src} -> {tgt} = {_format_mor(ast)}")
    for name, ast in sf.functors:
        if ast[0] == "builtin":
            out.append(f"functor {name} = {ast[1]} on {ast[2]}")
        else:
            out.append(f"functor {name} = compose({ast[1]}, {ast[2]})")
    for name, names in sf.interps:
        out.append(f"interp {name} = [" + " ".join(names) + "]")
    for name, left, right in sf.goals:
        out.append(f"goal {name} : " + " . ".join(left) + " == " + " . ".join(right))
    return "\n".join(out) + "\n"
