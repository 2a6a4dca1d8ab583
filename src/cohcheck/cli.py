"""Source format and the coh command line.

The source format is line oriented; ``#`` starts a comment. Declarations:

    flavor braided | symmetric | monoidal
    gens A = { a, b }
    gens A2 = { fa, fb }
    map phi : A -> A2 { a -> fa; b -> fb }
    node N = <object expr>
    edge e : N1 -> N2 = <morphism expr>
    functor F = identity | doubling | nfold(4) on A
    functor H = compose(F, F)
    interp fa = [a a]
    goal g : e1 . e2 == e3 . e4

Object expressions concatenate with ``;``: a bracket list ``[a b]`` of plain
letters, or a formed block written with the declared map's name, ``phi(a b)``.

Morphism expressions compose with ``.`` (rightmost applied first) and tensor
with ``;``. Factors: ``id``, a braid word (quoted or bare, as in ``"s2 s1"``),
``perm(2 1 3)`` (one-line, 1-based), ``q(a | b)``, ``q^-1(a | b)``,
``pf(outer=id; inner="s1", id)``, and ``braid(X, Y)`` on object expressions.

Each factor consumes a prefix of the raw letter sequence of its source:
``id`` takes one letter (the whole remainder in final position), a braid word
takes its minimal strand count (the remainder in final position), ``q`` takes
one letter per block, ``q^-1`` the single merged letter, ``pf`` one formed
letter per inner morphism, and ``braid(X, Y)`` the width of ``X ; Y``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import islice
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, NoReturn, Sequence

from .braid_core import (
    _LETTER_RE, BraidWord, Perm, braid_equal, braid_perm, braid_str, inverse_perm, normalize_braid,
    parse_braid, perm_braid, permute,
)
from .diagram_check import (
    EQUAL,
    EQUAL_IN_S_ONLY,
    Diagram,
    Edge,
    Goal,
    dissolve_path,
    explain_goal,
    report_json,
    validate_diagram,
)
from .errors import CohError, ElabError, ParseError, SourceSpan, StructureError
from .free_cat import (
    Flavor, FreeMor, FreeMor2, GenSet, Label, display_braid, fmor_id, fmor_of_perm,
)
from .functor_eval import FunctorSpec, compose_specs, make_builtin_spec
from .ualg import (
    FreeLetter,
    ObjMap,
    PhiLetter,
    UBraiding,
    UCompose,
    UFree,
    UId,
    ULetter,
    UPhiFree,
    UPhiQ,
    UPhiQInv,
    UTensor,
    _dissolve_leaf,
    format_uobj,
    normalize_uobj,
    uobj_dissolve,
)

# -- tokens ----------------------------------------------------------------------

# one match per token; a character that starts no token matches alone, with
# the group empty
_TOKEN_RE = re.compile(
    r'\s*(?:("[^"]*"'
    r"|->|=="
    r"|[A-Za-z_][A-Za-z0-9_]*(?:\^-1)?"
    r"|-?[0-9]+"
    r"|[()\[\]{}|;.,=:])|\S)"
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

FLAVOR_WORDS = {"braided": "B", "symmetric": "S", "monoidal": "M"}
# every declaration but flavor starts with its name
_DECLARED_NAMES = {
    "gens": "a generator set name", "map": "a map name", "node": "a node name", "edge": "an edge name",
    "functor": "a functor name", "interp": "a letter", "goal": "a goal name",
}


def _tokenize_line(line: str, lineno: int) -> list[str]:
    code = line.split("#", 1)[0]
    texts = _TOKEN_RE.findall(code)
    if "" in texts:
        m = next(islice(_TOKEN_RE.finditer(code), texts.index(""), None))
        raise ParseError(f"unexpected character {code[m.end() - 1]!r}", SourceSpan(lineno, m.end()))
    return texts


class _Cursor:
    """The token texts of one line, with one-token lookahead. A token's
    column is found again from the line, only when a span needs it."""

    def __init__(self, texts: list[str], line: str, lineno: int) -> None:
        self.texts = texts
        self.i = 0
        self.line = line
        self.lineno = lineno

    def span(self, i: int) -> SourceSpan:
        """Where token i starts; past the last token, just past the code
        before any comment."""
        code = self.line.split("#", 1)[0]
        if i >= len(self.texts):
            return SourceSpan(self.lineno, len(code) + 1)
        m = next(islice(_TOKEN_RE.finditer(code), i, None))
        return SourceSpan(self.lineno, m.start(1) + 1)

    def error(self, message: str, i: int | None = None) -> ParseError:
        """An error at token i, by default the one read last."""
        return ParseError(message, self.span(self.i - 1 if i is None else i))

    def peek(self) -> str | None:
        return self.texts[self.i] if self.i < len(self.texts) else None

    def next(self) -> str:
        if self.i >= len(self.texts):
            raise self.error("unexpected end of line", self.i)
        self.i += 1
        return self.texts[self.i - 1]

    def expect(self, text: str) -> None:
        found = self.next()
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}")

    def name(self, what: str) -> str:
        text = self.next()
        if not _NAME_RE.fullmatch(text):
            raise self.error(f"expected {what}, found {text!r}")
        return text

    def names(self, closer: str) -> tuple[str, ...]:
        """Generator names up to the closer, which is consumed; commas
        between them are optional."""
        texts, i, names = self.texts, self.i, []
        while i < len(texts) and texts[i] != closer:
            if texts[i] != ",":
                if not _NAME_RE.fullmatch(texts[i]):
                    raise self.error(f"expected a generator, found {texts[i]!r}", i)
                names.append(texts[i])
            i += 1
        self.i = i
        self.expect(closer)
        return tuple(names)


# -- source model ----------------------------------------------------------------

# Expression ASTs are plain tuples so structural equality is tuple equality:
#   object item:  ("letters", names) | ("block", head, names)
#   morphism:     ("compose", rows); row ("tensor", factors)
#   factor:       ("id",) | ("word", letters) | ("perm", p) | ("q", blocks)
#                 | ("qinv", blocks) | ("pf", outer, inners) | ("braid", x, y)

ObjAst = tuple
MorAst = tuple
FunAst = tuple


class SourceFile(NamedTuple):
    flavor: Flavor | None = None
    gens: tuple[tuple[str, tuple[str, ...]], ...] = ()
    objmap: tuple[str, str, str, tuple[tuple[str, str], ...]] | None = None
    nodes: tuple[tuple[str, ObjAst], ...] = ()
    edges: tuple[tuple[str, str, str, MorAst], ...] = ()
    functors: tuple[tuple[str, FunAst], ...] = ()
    interps: tuple[tuple[str, tuple[str, ...]], ...] = ()
    goals: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = ()
    spans: Mapping[tuple[str, str], SourceSpan] = MappingProxyType({})  # one default for all, so read-only

    def structure(self) -> tuple:
        """Everything but the spans; the round-trip invariant compares this."""
        return self[:-1]


def _number(digits: str, cur: _Cursor, i: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise cur.error(f"a number of {len(digits)} digits is too long", i) from None


def _parse_letters(texts: list[str], i: int, cur: _Cursor, at: int | None = None) -> tuple[list[int], int]:
    """The braid letters of texts[i:] up to the first text that is none,
    and that text's index. Errors point at token at, by default at the
    letter's own token."""
    letters = []
    while i < len(texts) and (m := _LETTER_RE.fullmatch(texts[i])):
        k = _number(m[1], cur, i if at is None else at)
        if k == 0:
            raise cur.error("braid letters are numbered from 1", i if at is None else at)
        letters.append(-k if m[2] else k)
        i += 1
    return letters, i


def _parse_obj(cur: _Cursor) -> ObjAst:
    items = []
    while True:
        t = cur.next()
        if t == "[":
            items.append(("letters", cur.names("]")))
        elif _NAME_RE.fullmatch(t) and cur.peek() == "(":
            cur.i += 1
            items.append(("block", t, cur.names(")")))
        else:
            raise cur.error(f"expected an object item, found {t!r}")
        if cur.peek() != ";":
            return tuple(items)
        cur.i += 1


def _parse_block_list(cur: _Cursor) -> tuple[tuple[str, ...], ...]:
    cur.expect("(")
    if cur.peek() == ")":
        cur.i += 1
        return ()
    blocks, word = [], []
    while True:
        t = cur.next()
        if t in ("|", ")"):
            blocks.append(tuple(word))
            word = []
            if t == ")":
                return tuple(blocks)
        elif _NAME_RE.fullmatch(t):
            word.append(t)
        else:
            raise cur.error(f"expected a generator, found {t!r}")


def _parse_factor(cur: _Cursor) -> tuple:
    t = cur.next()
    if t == "id":
        return ("id",)
    texts, at = cur.texts, cur.i - 1
    if t.startswith('"'):
        parts = t[1:-1].split()
        letters, i = _parse_letters(parts, 0, cur, at)
        if i < len(parts):
            raise cur.error(f"{parts[i]!r} is not a braid letter", at)
        return ("word", tuple(letters))
    if _LETTER_RE.fullmatch(t):  # a bare word: the run of letter tokens from here
        letters, cur.i = _parse_letters(texts, at, cur)
        return ("word", tuple(letters))
    if t == "perm":
        cur.expect("(")
        images, i = [], cur.i
        while i < len(texts) and texts[i] != ")":
            if texts[i] != ",":
                if not texts[i].isdigit():
                    raise cur.error(f"expected a strand number, found {texts[i]!r}", i)
                images.append(_number(texts[i], cur, i))
            i += 1
        cur.i = i
        cur.expect(")")
        if sorted(images) != list(range(1, len(images) + 1)):
            raise cur.error(f"{images} is not a permutation of 1..{len(images)}", at)
        return ("perm", tuple([k - 1 for k in images]))
    if t == "q":
        return ("q", _parse_block_list(cur))
    if t == "q^-1":
        return ("qinv", _parse_block_list(cur))
    if t == "pf":
        cur.expect("(")
        cur.expect("outer")
        cur.expect("=")
        outer = _parse_factor(cur)
        cur.expect(";")
        cur.expect("inner")
        cur.expect("=")
        inners = [_parse_factor(cur)]
        while cur.peek() == ",":
            cur.i += 1
            inners.append(_parse_factor(cur))
        cur.expect(")")
        return ("pf", outer, tuple(inners))
    if t == "braid":
        cur.expect("(")
        x = _parse_obj(cur)
        cur.expect(",")
        y = _parse_obj(cur)
        cur.expect(")")
        return ("braid", x, y)
    raise cur.error(f"expected a morphism factor, found {t!r}")


def _parse_mor(cur: _Cursor) -> MorAst:
    rows = []
    while True:
        factors = [_parse_factor(cur)]
        while cur.peek() == ";":
            cur.i += 1
            factors.append(_parse_factor(cur))
        rows.append(("tensor", tuple(factors)))
        if cur.peek() != ".":
            return ("compose", tuple(rows))
        cur.i += 1


def parse_source(text: str) -> SourceFile:
    """Parse a source file. Malformed input raises ParseError with the
    offending position; nothing else escapes."""
    flavor: Flavor | None = None
    gens: list[tuple[str, tuple[str, ...]]] = []
    objmap = None
    nodes: list[tuple[str, ObjAst]] = []
    edges: list[tuple[str, str, str, MorAst]] = []
    functors: list[tuple[str, FunAst]] = []
    interps: list[tuple[str, tuple[str, ...]]] = []
    goals: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
    spans: dict[tuple[str, str], SourceSpan] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        texts = _tokenize_line(line, lineno)
        if not texts:
            continue
        cur = _Cursor(texts, line, lineno)
        head = cur.next()
        if head == "map" and objmap is not None:
            raise cur.error("a file declares a single map")
        if head in _DECLARED_NAMES:
            name = cur.name(_DECLARED_NAMES[head])
            if (head, name) in spans:
                raise cur.error(f"{head} {name!r} already declared at {spans[head, name]}", 0)
            spans[head, name] = cur.span(0)
        if head == "flavor":
            word = cur.name("a flavor")
            if word not in FLAVOR_WORDS:
                raise cur.error(f"unknown flavor {word!r}")
            if flavor is not None:
                raise cur.error("flavor already declared", 0)
            flavor = FLAVOR_WORDS[word]
        elif head == "gens":
            cur.expect("=")
            cur.expect("{")
            gens.append((name, cur.names("}")))
        elif head == "map":
            cur.expect(":")
            src = cur.name("a generator set")
            cur.expect("->")
            tgt = cur.name("a generator set")
            cur.expect("{")
            pairs = []
            while cur.peek() != "}":
                if cur.peek() == ";":
                    cur.i += 1
                    continue
                a = cur.name("a generator")
                cur.expect("->")
                b = cur.name("a generator")
                pairs.append((a, b))
            cur.expect("}")
            objmap = (name, src, tgt, tuple(pairs))
        elif head == "node":
            cur.expect("=")
            nodes.append((name, _parse_obj(cur)))
        elif head == "edge":
            cur.expect(":")
            src = cur.name("a node")
            cur.expect("->")
            tgt = cur.name("a node")
            cur.expect("=")
            edges.append((name, src, tgt, _parse_mor(cur)))
        elif head == "functor":
            cur.expect("=")
            kind = cur.next()
            if kind == "compose":
                cur.expect("(")
                f = cur.name("a functor")
                cur.expect(",")
                g = cur.name("a functor")
                cur.expect(")")
                functors.append((name, ("compose", f, g)))
            else:
                spec = kind
                if kind == "nfold":
                    cur.expect("(")
                    n = cur.next()
                    if not n.isdigit():
                        raise cur.error(f"expected a count, found {n!r}")
                    _number(n, cur, cur.i - 1)  # a count int() cannot read is a parse error
                    cur.expect(")")
                    spec = f"nfold({n})"
                elif kind not in ("identity", "doubling"):
                    raise cur.error(f"unknown functor {kind!r}")
                cur.expect("on")
                on = cur.name("a generator set")
                functors.append((name, ("builtin", spec, on)))
        elif head == "interp":
            cur.expect("=")
            cur.expect("[")
            interps.append((name, cur.names("]")))
        elif head == "goal":
            cur.expect(":")

            def path() -> tuple[str, ...]:
                steps = [cur.name("an edge")]
                while cur.peek() == ".":
                    cur.i += 1
                    steps.append(cur.name("an edge"))
                return tuple(steps)

            left = path()
            cur.expect("==")
            right = path()
            goals.append((name, left, right))
        else:
            raise cur.error(f"unknown declaration {head!r}", 0)
        if cur.i < len(texts):
            raise cur.error(f"trailing input starting at {texts[cur.i]!r}", cur.i)

    sf = SourceFile(
        flavor, tuple(gens), objmap, tuple(nodes), tuple(edges),
        tuple(functors), tuple(interps), tuple(goals), spans,
    )
    _resolve(sf)
    return sf


def _resolve(sf: SourceFile) -> None:
    """Cross-declaration reference checks; expression-level name checks
    happen during elaboration."""
    gen_names = {n for n, _ in sf.gens}
    if sf.objmap is not None:
        name, src, tgt, _ = sf.objmap
        for g in (src, tgt):
            if g not in gen_names:
                raise ParseError(f"map {name}: no generator set {g!r}", sf.spans.get(("map", name)))
    node_names = {n for n, _ in sf.nodes}
    for name, src, tgt, _ in sf.edges:
        for n in (src, tgt):
            if n not in node_names:
                raise ParseError(f"edge {name}: no node {n!r}", sf.spans.get(("edge", name)))
    functor_names = set()
    for name, ast in sf.functors:
        if ast[0] == "builtin" and ast[2] not in gen_names:
            raise ParseError(f"functor {name}: no generator set {ast[2]!r}", sf.spans.get(("functor", name)))
        if ast[0] == "compose":
            for f in ast[1:]:
                if f not in functor_names:
                    raise ParseError(f"functor {name}: no functor {f!r}", sf.spans.get(("functor", name)))
        functor_names.add(name)
    edge_names = {n for n, *_ in sf.edges}
    for name, left, right in sf.goals:
        for step in left + right:
            if step not in edge_names:
                raise ParseError(f"goal {name}: no edge {step!r}", sf.spans.get(("goal", name)))


# -- elaboration -----------------------------------------------------------------

class _Env(NamedTuple):
    phi: ObjMap
    flavor: Flavor
    mapname: str
    span: SourceSpan | None


def _elab_obj(ast: ObjAst, env: _Env) -> tuple[ULetter, ...]:
    raw: list[ULetter] = []
    for item in ast:
        if item[0] == "letters":
            for n in item[1]:
                if n not in env.phi.target:
                    raise ElabError(f"{n!r} is not a generator of {env.phi.target.name}", env.span)
                raw.append(FreeLetter(n))
        else:
            _, head, names = item
            if head != env.mapname:
                raise ElabError(f"{head!r} is not the declared map {env.mapname!r}", env.span)
            for n in names:
                if n not in env.phi.source:
                    raise ElabError(f"{n!r} is not a generator of {env.phi.source.name}", env.span)
            raw.append(PhiLetter(names))
    return tuple(raw)


def _take(letters: tuple[ULetter, ...], pos: int, count: int, what: str, env: _Env) -> tuple[ULetter, ...]:
    if len(letters) - pos < count:
        raise ElabError(f"{what} needs {count} letters, {len(letters) - pos} left", env.span)
    return letters[pos : pos + count]


def _free_labels(chunk: Sequence[ULetter], env: _Env) -> tuple[str, ...]:
    """The plain labels of a chunk. Its letters were name-checked when they
    were elaborated, so only a formed letter not of length one is faulty."""
    for letter in chunk:
        if type(letter) is PhiLetter and len(letter.word) != 1:
            raise ElabError(f"{format_uobj((letter,))} is not a single plain letter", env.span)
    return uobj_dissolve(chunk, env.phi)


def _check_flavor(f: tuple, env: _Env) -> None:
    if f[0] == "word" and env.flavor == "M":
        raise ElabError("braid words need a symmetric or braided flavor", env.span)
    if f[0] == "perm" and env.flavor != "S":
        raise ElabError("perm(..) is only available in the symmetric flavor", env.span)


def _free_mor(f: tuple, x: tuple[Label, ...], env: _Env, part: str) -> tuple[FreeMor, Perm | None]:
    """An id, braid-word or perm(..) factor as a free morphism on the word
    x, with the permutation it was built from (None for id). part is
    "inner" or "outer" for a part of pf(..), whose misfits it names, and ""
    for a factor of a row, which is taken at its own width."""
    if f[0] == "id":
        return fmor_id(env.flavor, x), None
    if f[0] not in ("word", "perm"):
        where = "appear inside" if part == "inner" else "be the outer part of"
        raise ElabError(f"{f[0]} cannot {where} pf(..)", env.span)
    _check_flavor(f, env)
    n = len(x)
    if f[0] == "perm":
        if len(f[1]) != n:
            misfit = "perm of length {} on a block of {}" if part == "inner" else "outer perm of length {} on {} blocks"
            raise ElabError(misfit.format(len(f[1]), n), env.span)
        return fmor_of_perm(x, f[1]), f[1]
    if any(abs(l) > n - 1 for l in f[1]):
        raise ElabError(f"{part} word uses strand {max(abs(l) for l in f[1]) + 1}, only {n} available", env.span)
    word = tuple.__new__(BraidWord, (n, f[1]))
    p = braid_perm(word)
    if env.flavor == "S":
        return fmor_of_perm(x, p), p
    return tuple.__new__(FreeMor, ("B", x, tuple(permute(x, p)), word)), p  # valid: its target is x permuted by p


def _elab_factor(
    f: tuple, letters: tuple[ULetter, ...], pos: int, final: bool, env: _Env
) -> tuple[object, tuple[ULetter, ...], Sequence[ULetter]]:
    """The factor's term, the chunk it consumes from pos, and its target letters."""
    phi = env.phi
    if f[0] == "id":
        chunk = _take(letters, pos, len(letters) - pos if final else 1, "id", env)
        return UId(normalize_uobj(chunk, phi)), chunk, chunk

    if f[0] in ("word", "perm"):
        _check_flavor(f, env)
        if f[0] == "perm":
            chunk = _take(letters, pos, len(f[1]), "perm", env)
        else:
            min_width = max(map(abs, f[1])) + 1 if f[1] else 0
            width = len(letters) - pos if final else min_width
            if width < min_width:
                raise ElabError(f"word needs {min_width} strands, {width} left", env.span)
            chunk = _take(letters, pos, width, "braid word", env)
            if not f[1]:
                return UId(normalize_uobj(chunk, phi)), chunk, chunk
        u, p = _free_mor(f, _free_labels(chunk, env), env, "")
        return UFree(u), chunk, permute(chunk, p)

    if f[0] in ("q", "qinv"):
        blocks = f[1]
        for w in blocks:
            for n in w:
                if n not in phi.source:
                    raise ElabError(f"{n!r} is not a generator of {phi.source.name}", env.span)
        merged = tuple(n for w in blocks for n in w)
        if f[0] == "q":
            chunk = _take(letters, pos, len(blocks), "q", env)
            for w, letter in zip(blocks, chunk):
                if not _letter_matches_block(letter, w, env):
                    raise ElabError(
                        f"{format_uobj((letter,))} does not match the block ({' '.join(w)})", env.span
                    )
            return UPhiQ(blocks), chunk, (PhiLetter(merged),)
        chunk = _take(letters, pos, 1, "q^-1", env)
        if not _letter_matches_block(chunk[0], merged, env):
            raise ElabError(
                f"{format_uobj(chunk)} does not match the merged block ({' '.join(merged)})", env.span
            )
        return UPhiQInv(blocks), chunk, [PhiLetter(w) for w in blocks]

    if f[0] == "pf":
        inners_ast = f[2]
        chunk = _take(letters, pos, len(inners_ast), "pf", env)
        blocks = []
        for letter in chunk:
            if not isinstance(letter, PhiLetter):
                raise ElabError(f"pf expects formed letters, found {format_uobj((letter,))}", env.span)
            blocks.append(letter.word)
        inners = tuple(_free_mor(g, w, env, "inner")[0] for g, w in zip(inners_ast, blocks))
        outer = _free_mor(f[1], tuple(u.target for u in inners), env, "outer")[0]
        m2 = FreeMor2(env.flavor, tuple(blocks), outer.target, outer.content, inners)
        return UPhiFree(m2), chunk, [PhiLetter(w) for w in m2.target]

    if f[0] == "braid":
        xraw = _elab_obj(f[1], env)
        yraw = _elab_obj(f[2], env)
        k = len(xraw)
        chunk = _take(letters, pos, k + len(yraw), "braid", env)
        got_x, got_y = normalize_uobj(chunk[:k], phi), normalize_uobj(chunk[k:], phi)
        x, y = normalize_uobj(xraw, phi), normalize_uobj(yraw, phi)
        if (got_x, got_y) != (x, y):
            raise ElabError(
                f"braid arguments {format_uobj(x)} ; {format_uobj(y)} do not match the "
                f"source letters {format_uobj(got_x)} ; {format_uobj(got_y)}", env.span
            )
        if env.flavor == "M":
            if x and y:
                raise ElabError("the plain flavor has no braiding", env.span)
            return UId(x + y), chunk, chunk
        return UBraiding(x, y), chunk, chunk[k:] + chunk[:k]

    raise ElabError(f"unknown factor {f[0]!r}", env.span)


def _letter_matches_block(letter: ULetter, word: tuple[str, ...], env: _Env) -> bool:
    if isinstance(letter, PhiLetter) and letter.word == word:
        return True
    if len(word) == 1 and isinstance(letter, FreeLetter):
        return letter.name == env.phi(word[0])
    return False


def _elab_mor(ast: MorAst, raw: tuple[ULetter, ...], env: _Env) -> tuple[object, FreeMor, tuple[ULetter, ...]]:
    """The term, its residue and its target letters. The residue, the term's
    dissolution, is joined once: each factor adds its labels, and its content
    at its offset unless it is an identity (id, q, q^-1, an empty word, or
    braid(..) in M). Flavor S composes the rows on one list of the strand at
    each position; flavor B joins the rows' letters, the last row first."""
    phi, flavor = env.phi, env.flavor
    letters, composite, source, rows = raw, None, (), []
    for row in reversed(ast[1]):
        pos, terms, tgt_letters, src, tgt, moves = 0, [], [], [], [], []
        for idx, f in enumerate(row[1]):
            t, chunk, t_letters = _elab_factor(f, letters, pos, idx == len(row[1]) - 1, env)
            pos += len(chunk)
            terms.append(t)
            tgt_letters += t_letters
            if type(t) in (UId, UPhiQ, UPhiQInv):
                u_src = u_tgt = uobj_dissolve(chunk, phi)
            else:
                u = _dissolve_leaf(t, chunk, phi, flavor)
                moves.append((len(src), u.content))
                u_src, u_tgt = u.source, u.target
            src += u_src
            tgt += u_tgt
        if pos < len(letters):
            raise ElabError(
                f"{len(letters) - pos} source letters not consumed, starting at "
                f"{format_uobj((letters[pos],))}", env.span
            )
        term = terms[-1]
        for t in reversed(terms[:-1]):
            term = UTensor(t, term)
        composite, source = (term, tuple(src)) if composite is None else (UCompose(term, composite), source)
        rows.append(moves)
        letters = tuple(tgt_letters)
    content = None
    if flavor == "S":
        at = list(range(len(source)))
        for off, p in (move for moves in rows for move in moves):
            at[off : off + len(p)] = permute(at[off : off + len(p)], p)
        content = inverse_perm(at)
    elif flavor == "B":
        word = (l + off if l > 0 else l - off for moves in reversed(rows) for off, w in moves for l in w.letters)
        content = tuple.__new__(BraidWord, (len(source), tuple(word)))
    return composite, tuple.__new__(FreeMor, (flavor, source, tuple(tgt), content)), letters


def build_diagram(sf: SourceFile) -> Diagram:
    """Elaborate a parsed file into a validated diagram."""
    if sf.flavor is None:
        raise ElabError("file declares no flavor")
    if sf.objmap is None:
        raise ElabError("file declares no map")
    gensets = {name: GenSet(name, names) for name, names in sf.gens}
    mapname, src, tgt, pairs = sf.objmap
    phi = ObjMap(gensets[src], gensets[tgt], pairs)

    raw_nodes: dict[str, tuple[ULetter, ...]] = {}
    nodes: dict[str, tuple[ULetter, ...]] = {}
    for name, ast in sf.nodes:
        env = _Env(phi, sf.flavor, mapname, sf.spans.get(("node", name)))
        raw_nodes[name] = _elab_obj(ast, env)
        nodes[name] = normalize_uobj(raw_nodes[name], phi)

    residues: dict[str, tuple[Edge, FreeMor]] = {}  # each edge with its dissolved term
    for name, esrc, etgt, ast in sf.edges:
        env = _Env(phi, sf.flavor, mapname, sf.spans.get(("edge", name)))
        term, residue, raw_tgt = _elab_mor(ast, raw_nodes[esrc], env)
        if normalize_uobj(raw_tgt, phi) != nodes[etgt]:
            raise ElabError(
                f"edge {name} ends at {format_uobj(normalize_uobj(raw_tgt, phi))}, "
                f"node {etgt} is {format_uobj(nodes[etgt])}", env.span
            )
        residues[name] = (Edge(name, esrc, etgt, term), residue)

    functor: FunctorSpec | None = None
    built: dict[str, FunctorSpec] = {}
    for name, ast in sf.functors:
        span = sf.spans.get(("functor", name))
        try:
            if ast[0] == "builtin":
                built[name] = make_builtin_spec(ast[1], gensets[ast[2]], sf.flavor)
            else:
                built[name] = compose_specs(built[ast[1]], built[ast[2]])
        except CohError as err:
            raise ElabError(f"functor {name}: {err}", span) from err
        functor = built[name]

    interp: dict[str, tuple[str, ...]] | None = None
    if sf.interps:
        interp = {}
        for name, names in sf.interps:
            span = sf.spans.get(("interp", name))
            if name not in phi.target:
                raise ElabError(f"{name!r} is not a generator of {phi.target.name}", span)
            for n in names:
                if n not in phi.source:
                    raise ElabError(f"{n!r} is not a generator of {phi.source.name}", span)
            interp[name] = names

    goals = tuple(Goal(name, left, right) for name, left, right in sf.goals)
    d = Diagram(sf.flavor, phi, nodes, {name: e for name, (e, _) in residues.items()}, goals, functor, interp)
    d.residues.update(residues)  # elaboration typed every edge, so validation checks only the goals
    validate_diagram(d)
    return d


# -- rendering -------------------------------------------------------------------

def render_braid_ascii(w: BraidWord, labels: Sequence[str]) -> str:
    """One header row of labels, then one row per letter in application
    order (first applied on top). A positive letter marks its crossing with
    ``+`` (left strand passing under), the inverse with ``-``."""
    if len(labels) != w.n:
        raise StructureError(f"{len(labels)} labels for {w.n} strands")
    col = lambda j: 4 * j  # noqa: E731
    width = col(max(w.n - 1, 0)) + 1
    header = [" "] * (width + 3)
    for j, label in enumerate(labels):
        for k, ch in enumerate(label[:3]):
            header[col(j) + k] = ch
    lines = ["".join(header).rstrip()]

    def bars() -> list[str]:
        row = [" "] * width
        for j in range(w.n):
            row[col(j)] = "|"
        return row

    if not w.letters:
        lines.append("".join(bars()).rstrip())
    for letter in reversed(w.letters):
        i = abs(letter) - 1
        row = bars()
        row[col(i)] = "\\"
        row[col(i + 1)] = "/"
        row[col(i) + 2] = "+" if letter > 0 else "-"
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


# -- commands --------------------------------------------------------------------

def _load(path: str) -> Diagram:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise CohError(f"{path}: {getattr(err, 'strerror', None) or err}") from None
    return build_diagram(parse_source(text))


_VERDICT_COLORS = {EQUAL: 32, EQUAL_IN_S_ONLY: 33}  # ANSI green and yellow; red otherwise


def check(file: str, symmetric_ok: bool, json_path: str | None) -> int:
    """Check every goal and print the verdict array."""
    d = _load(file)
    try:
        reports = [explain_goal(d, g) for g in d.goals]
    except CohError as err:
        print(json.dumps({"error": str(err)}), flush=True)  # a closed stdout fails here, as in main
        raise
    blob = json.dumps([report_json(r) for r in reports], indent=2)
    if json_path is not None:  # before any output, so that a failed write prints no verdicts
        try:
            with open(json_path, "w", encoding="utf-8") as handle:
                handle.write(blob + "\n")
        except OSError as err:
            raise CohError(f"{json_path}: {err.strerror or err}") from None
    color = {"0": False, "1": True}.get(os.environ.get("COH_COLOR"), sys.stderr.isatty())
    for r in reports:
        verdict = f"\x1b[{_VERDICT_COLORS.get(r.verdict, 31)}m{r.verdict}\x1b[0m" if color else r.verdict
        print(f"goal {r.goal}: {verdict}", file=sys.stderr)
    print(blob)
    passing = {EQUAL, EQUAL_IN_S_ONLY} if symmetric_ok else {EQUAL}
    return 0 if all(r.verdict in passing for r in reports) else 1


def dissolve_cmd(file: str) -> int:
    """Print every edge's dissolution, then each goal side's composite."""
    d = _load(file)
    for name in d.edges:
        u = dissolve_path(d, (name,))
        print(f"edge {name}: {' '.join(u.source)} -> {' '.join(u.target)}  {_content_str(u, d.flavor)}")
    for g in d.goals:
        for label, path in (("left", g.left), ("right", g.right)):
            u = dissolve_path(d, path)
            print(f"goal {g.name} {label}: {_content_str(u, d.flavor)}  nf {_nf_str(u, d.flavor)}")
    return 0


def _content_str(u: FreeMor, flavor: Flavor) -> str:
    if flavor == "B":
        return braid_str(u.content) or "(empty)"
    if flavor == "S":
        return "perm " + " ".join(str(i + 1) for i in u.content)
    return "id"


def _nf_str(u: FreeMor, flavor: Flavor) -> str:
    if flavor == "B":
        return str(normalize_braid(u.content))
    if flavor == "S":
        return braid_str(perm_braid(u.content)) or "(empty)"
    return "id"


def braid_eq(w1: str, w2: str, strands: int) -> int:
    """Decide equality of two braid words on the given strand count."""
    u, v = parse_braid(w1, strands), parse_braid(w2, strands)
    # B_m embeds in B_n, so the words are compared on the strands they use:
    # the normal form's work grows with the strand count.
    m = min(strands, max(map(abs, u.letters + v.letters), default=0) + 1)
    equal = braid_equal(BraidWord(m, u.letters), BraidWord(m, v.letters))
    print("equal" if equal else "not equal")
    return 0 if equal else 1


def render(file: str, edge_name: str) -> int:
    """Draw an edge's dissolved braid."""
    d = _load(file)
    u = dissolve_path(d, (edge_name,))
    print(render_braid_ascii(display_braid(u), u.source))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coh", allow_abbrev=False,
        description="Decide whether diagrams of braids, permutations, and constraint collapses commute.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add(name: str, command: Callable[..., int]) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=command.__doc__, description=command.__doc__, allow_abbrev=False)
        sub.set_defaults(command=command)
        return sub

    sub = add("check", check)
    sub.add_argument("file")
    sub.add_argument("--symmetric-ok", action="store_true", help="Exit 0 when braids differ but permutations agree.")
    sub.add_argument("--json", dest="json_path", metavar="PATH", help="Also write the verdicts to a file.")
    add("dissolve", dissolve_cmd).add_argument("file")
    sub = add("braid-eq", braid_eq)
    sub.add_argument("w1")
    sub.add_argument("w2")
    sub.add_argument("--strands", type=int, required=True)
    sub = add("render", render)
    sub.add_argument("file")
    sub.add_argument("--edge", dest="edge_name", metavar="NAME", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> NoReturn:
    """Run one command and exit with its status: 0 or 1 for a verdict, 2
    for a usage error, a CohError or a closed stdout, 3 for any other
    exception, which is a bug, so that a crash never reads as a verdict."""
    args = vars(_parser().parse_args(argv))  # a usage error exits 2 here
    command = args.pop("command")
    try:
        status = command(**args)
        print(end="", flush=True)  # a closed stdout fails here, not at exit; print skips a missing one
    except CohError as err:
        print(f"error: {err}", file=sys.stderr)
        status = 2
    except BrokenPipeError as err:  # Python flushes stdout again at exit, now into the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: <stdout>: {err.strerror}", file=sys.stderr)
        status = 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        status = 3
    raise SystemExit(status)


if __name__ == "__main__":
    main()
