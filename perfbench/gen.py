"""Seeded .coh files with long goals whose verdicts are fixed by construction.

Nothing here imports cohcheck: the braid word each side dissolves to, and
so each goal's verdict, is worked out from the construction itself.

Words are tuples of nonzero ints, i for s_i and -i for s_i^-1 (1-based),
written left to right with the rightmost letter applied first, as in the
.coh format. A side of a goal is built as groups of rows in the order they
are applied; an edge may end only between groups, where every strand is a
plain letter again.

One side is built from every kind of row the format has. The other side is
the first side's word rewritten and written out again as rows:

- ``equal``: braid relations (far commutation and s_i s_j s_i = s_j s_i s_j,
  letters of one sign), inserted and cancelled ``s s^-1`` pairs, and
  constraint identities (a ``q`` undone by its ``q^-1``, a block braiding
  undone by its inverse word);
- ``equal_in_s_only``: as ``equal``, then one letter's sign is flipped. The
  permutation stays; the braid changes, since s_i^2 != 1 in B_n;
- ``not_equal``: as ``equal``, then one letter is inserted where two equal
  labels meet, so both sides end on the same object but the permutation's
  parity differs.

In the symmetric flavor signs do not matter, so only ``equal`` and
``not_equal`` are built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EQUAL = "equal"
S_ONLY = "equal_in_s_only"
NOT_EQUAL = "not_equal"

Word = tuple[int, ...]


# -- words and permutations -----------------------------------------------------


def shift(w: Word, off: int) -> Word:
    return tuple(l + off if l > 0 else l - off for l in w)


def inverse(w: Word) -> Word:
    return tuple(-l for l in reversed(w))


def block_braid(m: int, k: int) -> Word:
    """The first m strands pass under the last k: in the order applied,
    the rightmost strand of the first block crosses k strands, then the
    next one, and so on."""
    applied: list[int] = []
    for x in range(m - 1, -1, -1):
        applied.extend(range(x + 1, x + k + 1))
    return tuple(reversed(applied))


def apply(labels: list[str], w: Word) -> list[str]:
    """The labels at each position after w acts."""
    out = list(labels)
    for l in reversed(w):
        j = abs(l) - 1
        out[j], out[j + 1] = out[j + 1], out[j]
    return out


def perm_of(w: Word, n: int) -> tuple[int, ...]:
    """0-based one-line image: strand at i ends at position p[i]."""
    at = apply([str(i) for i in range(n)], w)
    out = [0] * n
    for pos, s in enumerate(at):
        out[int(s)] = pos
    return tuple(out)


def word_of_perm(p: tuple[int, ...]) -> Word:
    """A positive word with permutation p, by bubble-sorting the final
    arrangement back to the identity."""
    at = [0] * len(p)
    for i, pos in enumerate(p):
        at[pos] = i
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(at) - 1):
            if at[j] > at[j + 1]:
                at[j], at[j + 1] = at[j + 1], at[j]
                swaps.append(j + 1)
                changed = True
    # sorting undoes the braid, so the swaps are its letters applied last-first
    return tuple(swaps)


def word_text(w: Word, off: int = 0) -> str:
    return " ".join(f"s{abs(l) - off}" + ("^-1" if l < 0 else "") for l in w)


# -- rows -------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    text: str
    word: Word  # dissolved braid, written order


def _ids(p: int) -> str:
    return "id ; " * p


def _rest(used: int, width: int) -> str:
    return " ; id" if used < width else ""


def _tgt(g: str) -> str:
    return "f" + g


def plain_obj(labels) -> str:
    return "[" + " ".join(_tgt(g) for g in labels) + "]"


def _formed(labels) -> str:
    return "phi(" + " ".join(labels) + ")"


def _blocks(labels) -> str:
    return " | ".join(labels)


class _RowMaker:
    """Rows on n strands for one flavor; tracks the label at each strand.
    Each kind of group has a fixed number of rows and letters, so that
    files of one shape cost about the same whatever the seed."""

    def __init__(self, rng: random.Random, flavor: str, labels: list[str], inv_share: float):
        self.rng = rng
        self.flavor = flavor
        self.n = len(labels)
        self.labels = list(labels)
        self.inv_share = inv_share

    def _word(self, width: int, k: int) -> Word:
        out = []
        for _ in range(k):
            i = self.rng.randint(1, width - 1)
            out.append(-i if self.flavor == "B" and self.rng.random() < self.inv_share else i)
        return tuple(out)

    def _row(self, text: str, word: Word) -> Row:
        self.labels = apply(self.labels, word)
        return Row(text, word)

    def perm_row(self, w: Word) -> Row:
        return self._row("perm(" + " ".join(str(i + 1) for i in perm_of(w, self.n)) + ")", w)

    def word_row(self, w: Word) -> Row:
        """A row of plain letters across the whole width: a bare or quoted
        word, the same behind an id, or a perm(..) in the symmetric flavor."""
        r = self.rng.random()
        if self.flavor == "S" and r < 0.5:
            return self.perm_row(w)
        if w and min(abs(l) for l in w) >= 2 and r < 0.75:
            return self._row("id ; " + word_text(w, 1), w)
        if r < 0.85:
            return self._row('"' + word_text(w) + '"', w)
        return self._row(word_text(w), w)

    def _inner(self, m: int) -> tuple[str, Word]:
        w = self._word(m, 1)
        if self.flavor == "S" and self.rng.random() < 0.5:
            return "perm(" + " ".join(str(i + 1) for i in perm_of(w, m)) + ")", w
        return word_text(w), w

    # groups, each a list of rows in the order applied

    def plain(self) -> list[Row]:
        """One row, three letters."""
        return [self.word_row(self._word(self.n, 3))]

    def perm(self) -> list[Row]:
        """One perm(..) row of a random permutation (symmetric only)."""
        p = list(range(self.n))
        self.rng.shuffle(p)
        return [self._row("perm(" + " ".join(str(i + 1) for i in p) + ")", word_of_perm(tuple(p)))]

    def braid(self) -> list[Row]:
        """One braid(X, Y) row of two plain letters against one: two letters."""
        m = self.rng.choice((1, 2))
        k = 3 - m
        p = self.rng.randint(0, self.n - 3)
        x, y = self.labels[p : p + m], self.labels[p + m : p + 3]
        text = _ids(p) + f"braid({plain_obj(x)}, {plain_obj(y)})" + _rest(p + 3, self.n)
        return [self._row(text, shift(block_braid(m, k), p))]

    def collapse(self) -> list[Row]:
        """q of two letters, a pf acting inside the formed letter, a braiding
        that moves it past a neighbour, q^-1: four rows, three letters."""
        n, rng = self.n, self.rng
        p = rng.randint(0, n - 2)
        width = n - 1  # raw letters while the formed letter exists
        rows = [self._row(_ids(p) + f"q({_blocks(self.labels[p:p + 2])})" + _rest(p + 2, n), ())]
        text, w = self._inner(2)
        rows.append(self._row(_ids(p) + f"pf(outer=id; inner={text})" + _rest(p + 1, width), shift(w, p)))
        block = _formed(self.labels[p : p + 2])
        if p == 0 or (p + 2 < n and rng.random() < 0.5):
            text = f"braid({block}, {plain_obj(self.labels[p + 2:p + 3])})"
            rows.append(self._row(_ids(p) + text + _rest(p + 2, width), shift(block_braid(2, 1), p)))
            p += 1
        else:
            text = f"braid({plain_obj(self.labels[p - 1:p])}, {block})"
            rows.append(self._row(_ids(p - 1) + text + _rest(p + 1, width), shift(block_braid(1, 2), p - 1)))
            p -= 1
        rows.append(self._row(_ids(p) + f"q^-1({_blocks(self.labels[p:p + 2])})" + _rest(p + 1, width), ()))
        return rows

    def collapse2(self) -> list[Row]:
        """Two adjacent formed letters of two, and a pf whose outer braid
        crosses them, cabled by the block sizes: three rows, six letters."""
        n, rng = self.n, self.rng
        p = rng.randint(0, n - 4)
        width = n - 2
        a, b = self.labels[p : p + 2], self.labels[p + 2 : p + 4]
        rows = [self._row(_ids(p) + f"q({_blocks(a)}) ; q({_blocks(b)})" + _rest(p + 4, n), ())]
        if rng.random() < 0.5:
            outer, cabled = "s1", block_braid(2, 2)
        elif self.flavor == "S":
            outer, cabled = "perm(2 1)", block_braid(2, 2)
        else:
            outer, cabled = "s1^-1", inverse(block_braid(2, 2))
        i1, w1 = self._inner(2)
        i2, w2 = self._inner(2)
        word = shift(cabled + w1 + shift(w2, 2), p)
        rows.append(self._row(_ids(p) + f"pf(outer={outer}; inner={i1}, {i2})" + _rest(p + 2, width), word))
        a, b = self.labels[p : p + 2], self.labels[p + 2 : p + 4]
        rows.append(self._row(_ids(p) + f"q^-1({_blocks(a)}) ; q^-1({_blocks(b)})" + _rest(p + 2, width), ()))
        return rows

    def q_identity(self) -> list[Row]:
        """A collapse undone at once: two rows that dissolve to nothing."""
        p = self.rng.randint(0, self.n - 2)
        blocks = _blocks(self.labels[p : p + 2])
        return [
            self._row(_ids(p) + f"q({blocks})" + _rest(p + 2, self.n), ()),
            self._row(_ids(p) + f"q^-1({blocks})" + _rest(p + 1, self.n - 1), ()),
        ]

    def braid_identity(self) -> list[Row]:
        """A block braiding followed by its inverse word."""
        first = self.braid()[0]
        return [first, self.word_row(inverse(first.word))]


# -- sides and files --------------------------------------------------------------


@dataclass(frozen=True)
class GoalSpec:
    """What a generated file must produce: the verdict, and the words both
    sides dissolve to (written order)."""

    name: str
    flavor: str
    n: int
    verdict: str
    left: Word
    right: Word


@dataclass(frozen=True)
class CohFile:
    name: str
    text: str
    flavor: str
    goals: tuple[GoalSpec, ...]
    rows: int  # composed rows over both sides
    deep: bool = False


@dataclass(frozen=True)
class Shape:
    """The make-up of one generated file."""

    flavor: str  # "B" or "S"
    n: int  # strands, at least 4
    gens: tuple[str, ...]
    edges: int  # per side
    blocks: int  # blocks of the row schedule on the built side
    inv_share: float  # share of inverse letters the built side draws
    functor: str | None  # e.g. "nfold(3)"


# Each block of the built side is these groups in a random order.
SCHEDULE = {
    "B": ("plain", "plain", "plain", "plain", "braid", "braid", "collapse", "collapse2"),
    "S": ("plain", "plain", "perm", "perm", "perm", "braid", "collapse", "collapse2"),
}


def _source_labels(rng: random.Random, n: int, gens: tuple[str, ...]) -> list[str]:
    """Every generator at least once, and one adjacent equal pair, where a
    not_equal insertion can always go. Needs n >= len(gens) + 1."""
    rest = list(gens) + [rng.choice(gens) for _ in range(n - len(gens) - 1)]
    rng.shuffle(rest)
    j = rng.randrange(len(rest))
    return rest[:j] + [rest[j]] + rest[j:]


def _built_side(b: _RowMaker, shape: Shape) -> list[list[Row]]:
    groups: list[list[Row]] = []
    for _ in range(shape.blocks):
        kinds = list(SCHEDULE[shape.flavor])
        b.rng.shuffle(kinds)
        groups.extend(getattr(b, kind)() for kind in kinds)
    return groups


def _rewrite(rng: random.Random, w: list[int], n: int) -> list[int]:
    """Insert len/10 pairs s s^-1, apply braid relations at 2 len random
    places, then cancel up to len/20 adjacent inverse pairs. The word is in
    the order applied; each relation reads the same reversed."""
    inserts = len(w) // 10
    for _ in range(inserts):
        i = rng.randint(0, len(w))
        l = rng.randint(1, n - 1) * rng.choice((1, -1))
        w[i:i] = [l, -l]
    for _ in range(2 * len(w)):
        i = rng.randrange(len(w) - 2)
        a, b, c = w[i], w[i + 1], w[i + 2]
        if abs(abs(a) - abs(b)) >= 2:
            w[i], w[i + 1] = b, a
        elif a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            w[i : i + 3] = [b, a, b]
    cancels = inserts // 2
    i = rng.randrange(len(w))
    for _ in range(len(w)):
        if cancels == 0:
            break
        i %= len(w) - 1
        if w[i] == -w[i + 1]:
            del w[i : i + 2]
            cancels -= 1
        else:
            i += 1
    return w


def _retype(rng: random.Random, w: list[int], verdict: str, labels: list[str]) -> list[int]:
    if verdict == S_ONLY:
        i = rng.randrange(len(w))
        w[i] = -w[i]
    elif verdict == NOT_EQUAL:
        spots = []
        at = list(labels)
        for pos in range(len(w) + 1):
            spots.extend((pos, j) for j in range(len(at) - 1) if at[j] == at[j + 1])
            if pos < len(w):
                at = apply(at, (w[pos],))
        pos, j = rng.choice(spots)
        w.insert(pos, (j + 1) * rng.choice((1, -1)))
    return w


def _written_side(b: _RowMaker, applied: list[int], rows: int) -> list[list[Row]]:
    """Write a word (order applied) out as the given number of rows: word
    rows of near-equal length (all perm(..) rows in the symmetric flavor),
    and identity groups of two rows, q then q^-1 or a block braiding then
    its inverse, taking one row in six."""
    idents = rows // 12
    words = rows - 2 * idents
    at_ident = set(b.rng.sample(range(words), idents))
    groups: list[list[Row]] = []
    for c in range(words):
        if c in at_ident:
            groups.append(b.q_identity() if len(groups) % 2 else b.braid_identity())
        chunk = tuple(reversed(applied[c * len(applied) // words : (c + 1) * len(applied) // words]))
        groups.append([b.perm_row(chunk) if b.flavor == "S" else b.word_row(chunk)])
    return groups


def _edges(prefix: str, groups: list[list[Row]], k: int, labels: list[str], nodes: list[str]):
    """Split groups into k edges of about equal row counts. Returns the
    edge declarations as (name, source, target, text, labels at target)."""
    total = sum(len(g) for g in groups)
    edges: list[list[Row]] = [[] for _ in range(k)]
    done = 0
    for g in groups:
        edges[min(k - 1, done * k // max(total, 1))].extend(g)
        done += len(g)
    decls = []
    at = list(labels)
    src = nodes[0]
    for e, rows in enumerate(edges, start=1):
        for row in rows:
            at = apply(at, row.word)
        tgt = nodes[1] if e == k else f"{prefix.upper()}{e}"
        text = " . ".join(r.text for r in reversed(rows)) if rows else "id"
        decls.append((f"{prefix}{e}", src, tgt, text, list(at)))
        src = tgt
    return decls


def _written(groups: list[list[Row]]) -> Word:
    out: list[int] = []
    for g in reversed(groups):
        for row in reversed(g):
            out.extend(row.word)
    return tuple(out)


def make_file(rng: random.Random, name: str, shape: Shape, verdict: str) -> CohFile:
    labels = _source_labels(rng, shape.n, shape.gens)
    b = _RowMaker(rng, shape.flavor, labels, shape.inv_share)
    built = _built_side(b, shape)
    applied = _rewrite(rng, list(reversed(_written(built))), shape.n)
    applied = _retype(rng, applied, verdict, labels)
    b.labels = list(labels)
    other = _written_side(b, applied, sum(len(g) for g in built))

    lw, rw = _written(built), _written(other)
    lg, rg = built, other
    if rng.random() < 0.5:
        lw, rw, lg, rg = rw, lw, rg, lg
    left = _edges("l", lg, shape.edges, labels, ["S", "T"])
    right = _edges("r", rg, shape.edges, labels, ["S", "T"])
    if left[-1][4] != right[-1][4]:
        raise ValueError("both sides must end on one object")

    flavor_word = {"B": "braided", "S": "symmetric"}[shape.flavor]
    gens = shape.gens
    lines = [
        f"# generated: {flavor_word}, {shape.n} strands, {verdict}",
        f"flavor {flavor_word}",
        f"gens A = {{ {', '.join(gens)} }}",
        f"gens A2 = {{ {', '.join(_tgt(g) for g in gens)} }}",
        f"map phi : A -> A2 {{ {'; '.join(f'{g} -> {_tgt(g)}' for g in gens)} }}",
        f"node S = {plain_obj(labels)}",
        f"node T = {plain_obj(left[-1][4])}",
    ]
    for decls in (left, right):
        for _, _, tgt, _, at in decls[:-1]:
            lines.append(f"node {tgt} = {plain_obj(at)}")
    for decls in (left, right):
        for ename, src, tgt, text, _ in decls:
            lines.append(f"edge {ename} : {src} -> {tgt} = {text}")
    lpath = " . ".join(d[0] for d in reversed(left))
    rpath = " . ".join(d[0] for d in reversed(right))
    lines.append(f"goal g : {lpath} == {rpath}")
    if shape.functor:
        copies = int(shape.functor[len("nfold("):-1]) if shape.functor.startswith("nfold") else 2
        lines.append(f"functor Q = {shape.functor} on A")
        lines.extend(f"interp {_tgt(g)} = [{' '.join([g] * copies)}]" for g in gens)
    spec = GoalSpec("g", shape.flavor, shape.n, verdict, lw, rw)
    rows = sum(len(g) for g in built) + sum(len(g) for g in other)
    return CohFile(name, "\n".join(lines) + "\n", shape.flavor, (spec,), rows)


# -- the two deep files -----------------------------------------------------------


def deep_path_file() -> CohFile:
    """A goal path of 1,500 copies of one 2-strand edge, against the same
    word written as a single row."""
    copies = 1500
    lines = [
        "# generated: a goal path of one 2-strand edge repeated",
        "flavor braided",
        "gens A = { a }",
        "gens A2 = { fa }",
        "map phi : A -> A2 { a -> fa }",
        "node n = [fa fa]",
        "edge e : n -> n = s1",
        "edge f : n -> n = " + word_text((1,) * copies),
        "goal deep : " + " . ".join(["e"] * copies) + " == f",
    ]
    w = (1,) * copies
    spec = GoalSpec("deep", "B", 2, EQUAL, w, w)
    return CohFile("deep_path", "\n".join(lines) + "\n", "B", (spec,), copies + 1, deep=True)


def deep_edge_file() -> CohFile:
    """One edge of 1,200 composed one-letter rows on 3 strands, against the
    same word as a single row. Its letters come from a fixed seed."""
    rows = 1200
    rng = random.Random("deep-edge")
    w = tuple(rng.randint(1, 2) * (-1 if rng.random() < 0.25 else 1) for _ in range(rows))
    labels = ["a", "b", "a"]
    end = apply(labels, w)
    lines = [
        "# generated: one edge of many composed rows",
        "flavor braided",
        "gens A = { a, b }",
        "gens A2 = { fa, fb }",
        "map phi : A -> A2 { a -> fa; b -> fb }",
        f"node n1 = {plain_obj(labels)}",
        f"node n2 = {plain_obj(end)}",
        "edge e : n1 -> n2 = " + " . ".join(word_text((l,)) for l in w),
        "edge f : n1 -> n2 = " + word_text(w),
        "goal deep : e == f",
    ]
    spec = GoalSpec("deep", "B", 3, EQUAL, w, w)
    return CohFile("deep_edge", "\n".join(lines) + "\n", "B", (spec,), rows + 1, deep=True)
