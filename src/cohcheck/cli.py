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
from functools import cached_property, reduce
from itertools import accumulate, islice
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .braid_core import (
    _LETTER_RE, BraidWord, Perm, block_braid, block_perm, braid_equal, braid_perm, braid_str, parse_braid, permute,
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
    side_report,
    validate_diagram,
)
from .errors import CohError, ElabError, ParseError, SourceSpan, StructureError
from .free_cat import (
    Content, Flavor, FreeMor, FreeMor2, GenSet, Label, display_braid, flatten_mu, fmor_id, fmor_join,
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
    UMor,
    UObj,
    UPhiFree,
    UPhiQ,
    UPhiQInv,
    UTensor,
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


def _tokenize_line(line: str, lineno: int) -> tuple[str, ...]:
    code = line.split("#", 1)[0]
    texts = _TOKEN_RE.findall(code)
    if "" in texts:
        m = next(islice(_TOKEN_RE.finditer(code), texts.index(""), None))
        raise ParseError(f"unexpected character {code[m.end() - 1]!r}", SourceSpan(lineno, m.end()))
    return tuple(texts)


class _Cursor:
    """The token texts of one line, with one-token lookahead. A token's
    column is found again from the line, only when a span needs it. rows
    is the memo of one parse_source call (_parse_row)."""

    def __init__(self, texts: tuple[str, ...], line: str, lineno: int, rows: dict) -> None:
        self.texts = texts
        self.i = 0
        self.line = line
        self.lineno = lineno
        self.rows = rows

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

    def items(self, read: Callable[[_Cursor], object], sep: str) -> tuple:
        """One or more items, each read by read, up to the first that sep
        does not follow."""
        items = [read(self)]
        while self.peek() == sep:
            self.i += 1
            items.append(read(self))
        return tuple(items)


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


def _parse_letters(texts: Sequence[str], i: int, cur: _Cursor, at: int | None = None) -> tuple[list[int], int]:
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


def _parse_obj_item(cur: _Cursor) -> tuple:
    t = cur.next()
    if t == "[":
        return ("letters", cur.names("]"))
    if _NAME_RE.fullmatch(t) and cur.peek() == "(":
        cur.i += 1
        return ("block", t, cur.names(")"))
    raise cur.error(f"expected an object item, found {t!r}")


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
    if t == "perm":
        cur.expect("(")
        images, i = [], cur.i  # 0-based as read
        while i < len(texts) and (s := texts[i]) != ")":
            if s != ",":
                if not s.isdigit():
                    raise cur.error(f"expected a strand number, found {s!r}", i)
                images.append((int(s) if len(s) < 20 else _number(s, cur, i)) - 1)  # only a long one can fail
            i += 1
        cur.i = i
        cur.expect(")")
        if sorted(images) != list(range(len(images))):
            raise cur.error(f"{[k + 1 for k in images]} is not a permutation of 1..{len(images)}", at)
        return ("perm", tuple(images))
    if _LETTER_RE.fullmatch(t):  # a bare word: the run of letter tokens from here
        letters, cur.i = _parse_letters(texts, at, cur)
        return ("word", tuple(letters))
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
        inners = cur.items(_parse_factor, ",")
        cur.expect(")")
        return ("pf", outer, inners)
    if t == "braid":
        cur.expect("(")
        x = cur.items(_parse_obj_item, ";")
        cur.expect(",")
        y = cur.items(_parse_obj_item, ";")
        cur.expect(")")
        return ("braid", x, y)
    raise cur.error(f"expected a morphism factor, found {t!r}")


def _parse_row(cur: _Cursor) -> tuple:
    """A row, looked up first by its tokens up to the next "." or the end
    of the line, which no factor contains. The memo lives for one
    parse_source call: a row parsed once is handed back again, the same
    tuple, for the same tokens. A parse that raises, or stops short of its
    span, stores nothing, so every error and its column is the parse's
    own."""
    texts, i = cur.texts, cur.i
    try:
        end = texts.index(".", i)
    except ValueError:  # the last row
        end = len(texts)
    key = texts[i:end]
    row = cur.rows.get(key)
    if row is not None:
        cur.i = end
        return row
    row = ("tensor", cur.items(_parse_factor, ";"))
    if cur.i == end:
        cur.rows[key] = row
    return row


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
    rows: dict[tuple[str, ...], tuple] = {}  # the memo of _parse_row

    for lineno, line in enumerate(text.splitlines(), start=1):
        texts = _tokenize_line(line, lineno)
        if not texts:
            continue
        cur = _Cursor(texts, line, lineno, rows)
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
            nodes.append((name, cur.items(_parse_obj_item, ";")))
        elif head == "edge":
            cur.expect(":")
            src = cur.name("a node")
            cur.expect("->")
            tgt = cur.name("a node")
            cur.expect("=")
            edges.append((name, src, tgt, ("compose", cur.items(_parse_row, "."))))
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
            left = cur.items(lambda c: c.name("an edge"), ".")
            cur.expect("==")
            right = cur.items(lambda c: c.name("an edge"), ".")
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


def _check_names(names: Sequence[str], gens: GenSet, span: SourceSpan | None) -> None:
    for n in names:
        if n not in gens:
            raise ElabError(f"{n!r} is not a generator of {gens.name}", span)


def _elab_obj(ast: ObjAst, env: _Env) -> tuple[ULetter, ...]:
    raw: list[ULetter] = []
    for item in ast:
        if item[0] == "letters":
            _check_names(item[1], env.phi.target, env.span)
            raw += map(FreeLetter, item[1])
        elif item[1] != env.mapname:
            raise ElabError(f"{item[1]!r} is not the declared map {env.mapname!r}", env.span)
        else:
            _check_names(item[2], env.phi.source, env.span)
            raw.append(PhiLetter(item[2]))
    return tuple(raw)


def _check_flavor(f: tuple, env: _Env) -> None:
    if f[0] == "word" and env.flavor == "M":
        raise ElabError("braid words need a symmetric or braided flavor", env.span)
    if f[0] == "perm" and env.flavor != "S":
        raise ElabError("perm(..) is only available in the symmetric flavor", env.span)


def _free_mor(f: tuple, x: tuple[Label, ...], env: _Env, part: str) -> FreeMor:
    """An id, braid-word or perm(..) factor as a free morphism on the word
    x. part is "inner" or "outer" for a part of pf(..), whose misfits it
    names, and "" for a factor of a row, which is taken at its own width."""
    if f[0] == "id":
        return fmor_id(env.flavor, x)
    if f[0] not in ("word", "perm"):
        where = "appear inside" if part == "inner" else "be the outer part of"
        raise ElabError(f"{f[0]} cannot {where} pf(..)", env.span)
    _check_flavor(f, env)
    n = len(x)
    if f[0] == "perm":
        if len(f[1]) != n:
            misfit = "perm of length {} on a block of {}" if part == "inner" else "outer perm of length {} on {} blocks"
            raise ElabError(misfit.format(len(f[1]), n), env.span)
        p = f[1]
    elif any(abs(l) > n - 1 for l in f[1]):
        raise ElabError(f"{part} word uses strand {max(abs(l) for l in f[1]) + 1}, only {n} available", env.span)
    else:
        word = tuple.__new__(BraidWord, (n, f[1]))
        p = braid_perm(word)
    content = p if env.flavor == "S" else word  # valid: the target is x permuted by p
    return tuple.__new__(FreeMor, (env.flavor, x, tuple(permute(x, p)), content))


def _take_factor(f: tuple, letters: UObj, pos: int, final: bool, env: _Env, builds: dict) -> UObj:
    """The chunk a factor consumes from pos, after every check that reads
    none of its letters: the flavor of a word or perm(..), the source names
    of q and q^-1, the objects of braid(X, Y), which builds keeps under the
    factor, and the width. The last factor of a row, if it is id or a braid
    word, takes the rest."""
    kind, rest = f[0], len(letters) - pos
    if kind == "id":
        count = rest if final else 1
    elif kind in ("word", "perm"):
        _check_flavor(f, env)
        count = len(f[1]) if kind == "perm" else (max(map(abs, f[1])) + 1 if f[1] else 0)
        if kind == "word" and final:
            if rest < count:
                raise ElabError(f"word needs {count} strands, {rest} left", env.span)
            count = rest
    elif kind in ("q", "qinv"):
        _check_names([n for w in f[1] for n in w], env.phi.source, env.span)
        count = len(f[1]) if kind == "q" else 1
    elif kind == "pf":
        count = len(f[2])
    elif kind == "braid":
        if (objs := builds.get(f)) is None:
            objs = builds[f] = (_elab_obj(f[1], env), _elab_obj(f[2], env))
        count = len(objs[0]) + len(objs[1])
    else:
        raise ElabError(f"unknown factor {kind!r}", env.span)
    if rest < count:
        what = {"word": "braid word", "qinv": "q^-1"}.get(kind, kind)
        raise ElabError(f"{what} needs {count} letters, {rest} left", env.span)
    return letters[pos : pos + count]


def _formed_words(chunk: UObj, env: _Env) -> tuple[tuple[str, ...], ...]:
    """The words of a pf(..) factor's chunk, which holds formed letters only."""
    for letter in chunk:
        if not isinstance(letter, PhiLetter):
            raise ElabError(f"pf expects formed letters, found {format_uobj((letter,))}", env.span)
    return tuple(letter.word for letter in chunk)


def _pf(f: tuple, blocks: tuple[tuple[Label, ...], ...], env: _Env) -> FreeMor2:
    """A pf(..) factor on the blocks, one per formed letter of its chunk."""
    inners = tuple(_free_mor(g, w, env, "inner") for g, w in zip(f[2], blocks))
    outer = _free_mor(f[1], tuple(u.target for u in inners), env, "outer")
    # valid: the inners were built on the blocks and the outer on their targets
    return tuple.__new__(FreeMor2, (env.flavor, blocks, outer.target, outer.content, inners))


def _elab_factor(key: tuple, chunk: UObj, env: _Env, builds: dict) -> tuple[UObj, int, Content]:
    """A factor but perm(..), key[0], on the chunk _take_factor gave it,
    built for its key in builds (_elab_mor); a result that depends on
    nothing else: its target letters, and the width and content of its
    move on the chunk's labels; the content is None for an identity (id, q,
    q^-1, an empty word, any factor in M). A nonempty braid word
    reads only the chunk's length: built on the positions 0 .. n-1, its
    target says which position of the chunk each target letter comes from.
    pf(..) reads only its blocks' lengths, key[1]: built on blocks of the
    positions 0 .. n-1 of the chunk's labels, its target is those blocks
    moved."""
    f, phi = key[0], env.phi
    if f[0] == "id" or f[0] == "word" and not f[1]:
        return chunk, len(uobj_dissolve(chunk, phi)), None

    if f[0] == "word":
        u = _free_mor(f, tuple(range(len(chunk))), env, "")
        return u.target, len(chunk), u.content

    if f[0] in ("q", "qinv"):
        blocks = f[1]
        merged = tuple(n for w in blocks for n in w)
        if f[0] == "q":
            for w, letter in zip(blocks, chunk):
                if not _letter_matches_block(letter, w, env):
                    raise ElabError(
                        f"{format_uobj((letter,))} does not match the block ({' '.join(w)})", env.span
                    )
            return (PhiLetter(merged),), len(merged), None
        if not _letter_matches_block(chunk[0], merged, env):
            raise ElabError(
                f"{format_uobj(chunk)} does not match the merged block ({' '.join(merged)})", env.span
            )
        return tuple(PhiLetter(w) for w in blocks), len(merged), None

    if f[0] == "pf":
        sizes = key[1]
        m2 = _pf(f, tuple(tuple(range(a, a + k)) for a, k in zip(accumulate(sizes, initial=0), sizes)), env)
        u = flatten_mu(m2)
        return m2.target, len(u.source), u.content

    xraw, yraw = builds[f]  # braid(X, Y)
    k = len(xraw)
    got_x, got_y = normalize_uobj(chunk[:k], phi), normalize_uobj(chunk[k:], phi)
    x, y = normalize_uobj(xraw, phi), normalize_uobj(yraw, phi)
    if (got_x, got_y) != (x, y):
        raise ElabError(
            f"braid arguments {format_uobj(x)} ; {format_uobj(y)} do not match the "
            f"source letters {format_uobj(got_x)} ; {format_uobj(got_y)}", env.span
        )
    m, n = len(uobj_dissolve(x, phi)), len(uobj_dissolve(y, phi))
    if env.flavor == "M":
        if x and y:
            raise ElabError("the plain flavor has no braiding", env.span)
        return chunk, m + n, None
    content = (block_perm if env.flavor == "S" else block_braid)(m, n)
    return chunk[k:] + chunk[:k], m + n, content


def _letter_matches_block(letter: ULetter, word: tuple[str, ...], env: _Env) -> bool:
    if isinstance(letter, PhiLetter) and letter.word == word:
        return True
    if len(word) == 1 and isinstance(letter, FreeLetter):
        return letter.name == env.phi(word[0])
    return False


def _chunks(factors: tuple, letters: UObj, env: _Env, builds: dict) -> Iterator[tuple[tuple, UObj]]:
    """Each factor of a row with the chunk it takes of the row's source
    letters, in order; then a check that the row took them all."""
    pos, last = 0, len(factors) - 1
    for idx, f in enumerate(factors):
        chunk = _take_factor(f, letters, pos, idx == last, env, builds)
        yield f, chunk
        pos += len(chunk)
    if pos < len(letters):
        raise ElabError(
            f"{len(letters) - pos} source letters not consumed, starting at {format_uobj((letters[pos],))}", env.span
        )


def _elab_mor(ast: MorAst, raw: UObj, env: _Env, builds: dict) -> tuple[tuple, FreeMor, UObj]:
    """The rows in application order, each (factors, source letters): the
    parse's own factor tuple and the letters the row reads, from which
    _chunks gives each chunk back; the residue, one fmor_join of the rows'
    contents at their label offsets between the edge's letters dissolved;
    and the target letters. perm(..) is applied, not built: its target is
    its chunk permuted, its move its permutation at the chunk's width.
    builds, the file's memo, keeps a nonempty braid word by (factor,
    width), pf(..) by (factor, block lengths), and any other factor by
    (factor, chunk). A build that raises stores nothing."""
    letters, rows, moves_rows = raw, [], []
    for row in reversed(ast[1]):
        off, tgt_letters, moves = 0, [], []
        for f, chunk in _chunks(row[1], letters, env, builds):
            if by_width := f[0] == "perm" or f[0] == "word" and f[1]:
                # names were checked when the letters were made: only a formed letter not of length one is faulty
                for letter in chunk:
                    if type(letter) is PhiLetter and len(letter.word) != 1:
                        raise ElabError(f"{format_uobj((letter,))} is not a single plain letter", env.span)
                if f[0] == "perm":
                    tgt_letters += permute(chunk, f[1])
                    moves.append((off, f[1]))
                    off += len(chunk)
                    continue
                key = (f, len(chunk))
            elif f[0] == "pf":
                words = _formed_words(chunk, env)
                key = (f, tuple(map(len, words)))
            else:
                key = (f, chunk)
            build = builds.get(key)
            if build is None:
                build = builds[key] = _elab_factor(key, chunk, env, builds)
            t_letters, width, content = build
            if by_width:
                tgt_letters += map(chunk.__getitem__, t_letters)
            elif f[0] == "pf":
                labels = [n for w in words for n in w]
                tgt_letters += (PhiLetter(tuple(map(labels.__getitem__, b))) for b in t_letters)
            else:
                tgt_letters += t_letters
            if content is not None:
                moves.append((off, content))
            off += width
        rows.append((row[1], letters))
        moves_rows.append(moves)
        letters = tuple(tgt_letters)
    residue = fmor_join(env.flavor, uobj_dissolve(raw, env.phi), uobj_dissolve(letters, env.phi), moves_rows)
    return tuple(rows), residue, letters


def _factor_term(f: tuple, chunk: UObj, env: _Env) -> UMor:
    """The term of a factor built on the chunk."""
    if f[0] == "id" or f[0] == "word" and not f[1]:
        return UId(normalize_uobj(chunk, env.phi))
    if f[0] in ("word", "perm"):
        return UFree(_free_mor(f, uobj_dissolve(chunk, env.phi), env, ""))
    if f[0] in ("q", "qinv"):
        return (UPhiQ if f[0] == "q" else UPhiQInv)(f[1])
    if f[0] == "pf":
        return UPhiFree(_pf(f, _formed_words(chunk, env), env))
    k = len(_elab_obj(f[1], env))  # braid(X, Y)
    x, y = normalize_uobj(chunk[:k], env.phi), normalize_uobj(chunk[k:], env.phi)
    return UId(x + y) if env.flavor == "M" else UBraiding(x, y)


class _ParsedEdge(Edge):
    """An edge of a parsed file: its fourth field holds the rows _elab_mor
    kept, each (factors, source letters), read in env. The term is derived
    from them when first read, and kept: each row is the tensor of its
    factors on the chunks _chunks gives back, composed in order. repr,
    _asdict() and tuple unpacking read the tuple, so they show the rows;
    .term is the way to read the term. _replace gives a hand-built Edge
    that carries the derived term."""

    @cached_property
    def term(self) -> UMor:
        terms = ([_factor_term(f, chunk, self.env) for f, chunk in _chunks(*row, self.env, {})] for row in self[3])
        rows = (reduce(lambda right, left: UTensor(left, right), reversed(factors)) for factors in terms)
        return reduce(lambda applied, row: UCompose(row, applied), rows)

    def _replace(self, **fields) -> Edge:
        return Edge(*self[:3], self.term)._replace(**fields)


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
    # for every edge of this file: (factor, width) -> a braid word's build,
    # (factor, chunk) -> any other factor's, braid(X, Y) -> its objects
    builds: dict = {}
    for name, esrc, etgt, ast in sf.edges:
        env = _Env(phi, sf.flavor, mapname, sf.spans.get(("edge", name)))
        rows, residue, raw_tgt = _elab_mor(ast, raw_nodes[esrc], env, builds)
        if (tgt := normalize_uobj(raw_tgt, phi)) != nodes[etgt]:
            message = f"edge {name} ends at {format_uobj(tgt)}, node {etgt} is {format_uobj(nodes[etgt])}"
            raise ElabError(message, env.span)
        e = _ParsedEdge(name, esrc, etgt, rows)
        e.env = env
        residues[name] = (e, residue)

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

    for name, names in sf.interps:  # parsing rejects a letter interpreted twice
        span = sf.spans.get(("interp", name))
        _check_names((name,), phi.target, span)
        _check_names(names, phi.source, span)
    interp = dict(sf.interps) if sf.interps else None

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
    lines = ["".join(f"{label[:3]:<4}" for label in labels).rstrip()]
    if not w.letters:
        lines.append(("|   " * w.n).rstrip())
    for letter in reversed(w.letters):
        i = abs(letter) - 1
        crossing = "\\ + /" if letter > 0 else "\\ - /"
        lines.append(("|   " * i + crossing + "   |" * (w.n - i - 2)).rstrip())
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
        word = braid_str(u.content) if d.flavor == "B" else ""
        print(f"edge {name}: {' '.join(u.source)} -> {' '.join(u.target)}  {_content_str(d.flavor, word, u.content)}")
    for g in d.goals:
        for label, path in (("left", g.left), ("right", g.right)):
            s = side_report(d, path)
            nf = "id" if d.flavor == "M" else s.nf or "(empty)"
            print(f"goal {g.name} {label}: {_content_str(d.flavor, s.word, s.perm)}  nf {nf}")
    return 0


def _content_str(flavor: Flavor, word: str, perm: Perm) -> str:
    """A residue as dissolve spells it: its braid word in flavor B, its permutation in flavor S."""
    if flavor == "B":
        return word or "(empty)"
    return "perm " + " ".join(str(i + 1) for i in perm) if flavor == "S" else "id"


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
