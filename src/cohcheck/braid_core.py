"""Permutations, braid words, and the word problem in the braid groups B_n.

Conventions used throughout the package:

- Permutations are 0-indexed tuples in one-line image notation: p[i] is the
  final position of the strand that starts at position i. Composition is
  function composition, compose_perm(p, q)[i] = p[q[i]].
- A braid word composes the same way: in a word written left to right, the
  rightmost letter is applied first. Positive sigma_i passes the strand at
  position i under the strand at position i+1.
- Text format: whitespace-separated letters "s<i>" or "s<i>^-1" with 1-based
  strand indices; the empty string is the identity.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate
from math import factorial
from typing import NamedTuple, Sequence

from .errors import ParseError, StructureError

Perm = tuple[int, ...]


def is_perm(p: Perm) -> bool:
    return set(map(type, p)) <= {int} and sorted(p) == list(range(len(p)))


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose_perm(p: Perm, q: Perm) -> Perm:
    """(p o q)[i] = p[q[i]]; q acts first."""
    if len(p) != len(q):
        raise StructureError(f"cannot compose permutations of {len(p)} and {len(q)} points")
    return tuple(map(p.__getitem__, q))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_one_line(p: Perm) -> list[int]:
    """1-based one-line image, the external form used in reports."""
    return [i + 1 for i in p]


_LETTER_RE = re.compile(r"s([0-9]+)(\^-1)?$")


class _BraidWordFields(NamedTuple):
    n: int
    letters: tuple[int, ...] = ()


class BraidWord(_BraidWordFields):
    """A word in B_n. letters[k] = i means sigma_i, -i means sigma_i^-1.
    A call checks the parts; the operations below build from valid parts
    with tuple.__new__, which skips the checks."""

    __slots__ = ()

    def __new__(cls, n: int, letters: tuple[int, ...] = ()) -> BraidWord:
        if type(n) is not int or n < 0:
            raise StructureError(f"a braid on {n!r} strands")
        if type(letters) is not tuple:
            raise StructureError(f"braid letters {letters!r} are not a tuple")
        for l in letters:
            if type(l) is not int or not 0 < abs(l) < n:
                raise StructureError(f"letter {l!r} out of range for {n} strands")
        return tuple.__new__(cls, (n, letters))

    def __str__(self) -> str:
        return braid_str(self)


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse the text format; raises ParseError on bad letters."""
    letters = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if not m:
            raise ParseError(f"bad braid letter {tok!r}")
        try:
            i = int(m.group(1))
        except ValueError as err:  # more digits than int() converts
            raise ParseError(str(err)) from err
        if not 1 <= i <= n - 1:
            raise ParseError(f"letter {tok!r} out of range for {n} strands")
        letters.append(-i if m.group(2) else i)
    return BraidWord(n, tuple(letters))


def braid_str(w: BraidWord) -> str:
    return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in w.letters)


def braid_id(n: int) -> BraidWord:
    return tuple.__new__(BraidWord, (n, ()))


def braid_compose(u: BraidWord, v: BraidWord) -> BraidWord:
    """u o v, with v applied first."""
    if u.n != v.n:
        raise StructureError(f"cannot compose braids on {u.n} and {v.n} strands")
    return tuple.__new__(BraidWord, (u.n, u.letters + v.letters))


def braid_tensor(u: BraidWord, v: BraidWord) -> BraidWord:
    """Disjoint juxtaposition, v on strands shifted past u's."""
    shifted = tuple(l + u.n if l > 0 else l - u.n for l in v.letters)
    return tuple.__new__(BraidWord, (u.n + v.n, u.letters + shifted))


def braid_inverse(w: BraidWord) -> BraidWord:
    return tuple.__new__(BraidWord, (w.n, tuple(-l for l in reversed(w.letters))))


def braid_perm(w: BraidWord) -> Perm:
    """Underlying permutation; signs are ignored."""
    # both ways round, so that a letter costs O(1) and no inversion is paid
    # at the end: most words whose permutation is asked for are empty
    pos = list(range(w.n))  # pos[i] = current position of strand i
    at = pos[:]  # at[j] = strand now at position j
    for l in reversed(w.letters):
        j = abs(l) - 1
        a, b = at[j], at[j + 1]
        at[j], at[j + 1] = b, a
        pos[a], pos[b] = j + 1, j
    return tuple(pos)


def perm_braid(p: Perm) -> BraidWord:
    """A positive reduced word with underlying permutation p. Each letter is
    the leftmost left descent j of what remains, q = t_j o q', which swaps
    entries j and j+1 of q's inverse: so one pass sorts the inverse by
    adjacent swaps, always at the leftmost descent, stepping back after each."""
    r = list(inverse_perm(p))
    letters = []
    j = 0
    while j < len(r) - 1:
        if r[j] > r[j + 1]:
            r[j], r[j + 1] = r[j + 1], r[j]
            letters.append(j + 1)
            j = j - 1 if j else 0
        else:
            j += 1
    return tuple.__new__(BraidWord, (len(p), tuple(letters)))


# -- block braidings and cabling ---------------------------------------------


def block_perm(m: int, k: int) -> Perm:
    """Permutation moving the first m strands past the last k."""
    return tuple(i + k for i in range(m)) + tuple(range(k))


def block_braid(m: int, k: int) -> BraidWord:
    """The braid passing the first m strands under the last k, with no
    crossings inside either block."""
    letters: list[int] = []
    for i in range(1, m + 1):
        # strand i goes under strands i+1 .. i+k
        letters.extend(range(k + i - 1, i - 1, -1))
    return tuple.__new__(BraidWord, (m + k, tuple(letters)))


def permute(items: Sequence, p: Perm) -> list:
    """The items after the one at i moves to position p[i]."""
    out = list(items)
    for i, x in enumerate(items):
        out[p[i]] = x
    return out


def cable(w: BraidWord, sizes: list[int]) -> BraidWord:
    """Replace strand i of w by sizes[i] parallel strands."""
    if len(sizes) != w.n or any(s < 0 for s in sizes):
        raise StructureError(f"cannot cable {w.n} strands by sizes {sizes}")
    blocks = list(sizes)
    chunks: list[tuple[int, ...]] = []  # in application order, each shifted to its blocks' strands
    for l in reversed(w.letters):
        j = abs(l) - 1
        a, b = blocks[j], blocks[j + 1]
        off = sum(blocks[:j])
        if l > 0:
            chunks.append(tuple(k + off for k in block_braid(a, b).letters))
        else:
            chunks.append(tuple(-k - off for k in reversed(block_braid(b, a).letters)))
        blocks[j], blocks[j + 1] = b, a
    return tuple.__new__(BraidWord, (sum(sizes), tuple(k for piece in reversed(chunks) for k in piece)))


def cable_perm(p: Perm, sizes: list[int]) -> Perm:
    """The permutation of cable(w, sizes) depends on w only through p."""
    if len(sizes) != len(p):
        raise StructureError(f"cannot cable {len(p)} strands by sizes {sizes}")
    src_off = list(accumulate(sizes, initial=0))
    tgt_off = list(accumulate(permute(sizes, p), initial=0))
    out = [0] * sum(sizes)
    for i in range(len(p)):
        for r in range(sizes[i]):
            out[src_off[i] + r] = tgt_off[p[i]] + r
    return tuple(out)


# -- Garside left-greedy normal form ------------------------------------------

# Factors are permutation braids, stored as their permutations. A pair of
# consecutive factors (x, y), with y applied first, is left-weighted iff
# every left descent of y is a right descent of x.


class BraidNormalForm(NamedTuple):
    n: int
    delta_power: int
    factors: tuple[Perm, ...]

    def __str__(self) -> str:
        # few distinct simple braids recur: spell each once
        spelled = {f: f"({braid_str(perm_braid(f))})" for f in set(self.factors)}
        return " ".join([f"D^{self.delta_power}", *map(spelled.__getitem__, self.factors)])


@lru_cache(maxsize=None)
def _w0(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


# While a word is normalized, each factor is held as a mutable pair (p, q)
# of one-line lists with q the inverse of p. Then j is a right descent of p
# iff p[j] > p[j+1] and a left descent iff q[j] > q[j+1], and moving the
# crossing t_j from the left of y to the right of x is two adjacent swaps.
_Factor = tuple[list[int], list[int]]


def _left_weight_pair(x: _Factor, y: _Factor, todo: list[int]) -> list[int]:
    """Move crossings from the left of y to the right of x until the pair
    is left-weighted. Only the positions in todo can break that, and a move
    at j changes descents only next to the two strands it moved, so repair
    visits todo and the positions j - 1 and j + 1 after each move. Returns
    the positions whose left descent in x may have changed: a - 1, a,
    b - 1, b for each pair a, b of entries of x's inverse that moved."""
    xp, xq = x
    yp, yq = y
    top = len(xp) - 2
    moved: list[int] = []
    while todo:
        j = todo.pop()
        if 0 <= j <= top and yq[j] > yq[j + 1] and xp[j] < xp[j + 1]:
            # x := x o t_j swaps xp[j], xp[j+1]; y := t_j o y swaps yq[j], yq[j+1]
            a, b = xp[j], xp[j + 1]
            xp[j], xp[j + 1] = b, a
            xq[a], xq[b] = j + 1, j
            c, d = yq[j], yq[j + 1]
            yq[j], yq[j + 1] = d, c
            yp[c], yp[d] = j + 1, j
            moved += (a - 1, a, b - 1, b)
            todo += (j - 1, j + 1)
    return moved


def _tau(p: list[int]) -> list[int]:
    """Conjugation by the half twist, which sends t_j to t_{n-2-j}."""
    top = len(p) - 1
    return [top - x for x in reversed(p)]


# Words of at least this many letters per simple braid, n! on n strands,
# take the tabled pass: from there it is no slower on 2 to 6 strands,
# whatever the share of inverse letters (README, braid_core).
_TABLED_LETTERS_PER_SIMPLE = 8


def normalize_braid(w: BraidWord) -> BraidNormalForm:
    """Left-greedy normal form: Delta^k f_1 ... f_r with each f_i a
    permutation braid, no f_i trivial or the half twist, and each
    consecutive pair left-weighted. Words are equal in B_n iff their
    normal forms coincide."""
    n = w.n
    if n <= 1:
        return BraidNormalForm(n, 0, ())
    # free cancellation first: each inverse letter costs a near-Delta factor
    letters: list[int] = []
    for l in w.letters:
        if letters and letters[-1] == -l:
            letters.pop()
        else:
            letters.append(l)
    # a word long against the simple braids repeats its steps, so tables
    # pay; on a short or wide word filling them costs more than they save
    if len(letters) >= _TABLED_LETTERS_PER_SIMPLE * factorial(n):
        return _normalize_tabled(n, letters)
    return _normalize_incremental(n, letters)


# Both passes read the letters left to right.
# sigma_j^-1 = Delta^-1 (Delta sigma_j^-1), and the paren is simple.
# Moving a Delta^+-1 to the front conjugates each simple to its left by
# Delta, which sends t_j to t_{n-2-j} and keeps pairs left-weighted.
# Factors are stored mirrored iff an odd number of half twists has been
# taken out to their right, so a letter is mirrored by the parity of the
# inverse letters to its right plus that of the half twists taken out.
# Repair of left-weightedness runs from the right; once a pair is left
# unchanged, everything left of it is too (Elrifai-Morton 1994; Epstein et
# al. 1992, ch. 9).


def _normalize_incremental(n: int, letters: list[int]) -> BraidNormalForm:
    """Each factor is a mutable pair of lists, and each step repairs only
    the positions that the strands it moved can have broken."""
    inverses_right = sum(l < 0 for l in letters)
    delta = -inverses_right
    twists = 0
    ident = list(range(n))
    w0 = list(_w0(n))
    factors: list[_Factor] = []
    for l in letters:
        inverses_right -= l < 0
        j = abs(l) - 1
        if (inverses_right + twists) % 2:
            j = n - 2 - j
        i = len(factors) - 1
        if l > 0 and factors and factors[i][0][j] < factors[i][0][j + 1]:
            # j is no right descent of the last factor x, so x o t_j is
            # simple: absorb the letter in place, as repairing the pair
            # (x, t_j) at j would
            xp, xq = factors[i]
            a, b = xp[j], xp[j + 1]
            xp[j], xp[j + 1] = b, a
            xq[a], xq[b] = j + 1, j
            todo = [a - 1, a, b - 1, b]
        else:
            # here a positive letter's one left descent, j, is a right
            # descent of x; an inverse letter may break the pair anywhere
            p = ident[:] if l > 0 else w0[:]
            p[j], p[j + 1] = p[j + 1], p[j]
            factors.append((p, p[:] if l > 0 else list(inverse_perm(p))))
            i += 1
            todo = [] if l > 0 else list(range(n - 1))
        while i > 0 and factors[i][0] != w0 and (todo := _left_weight_pair(factors[i - 1], factors[i], todo)):
            i -= 1
        if factors[i][0] == w0:
            # f_1 ... f_{i-1} Delta = Delta tau(f_1) ... tau(f_{i-1}): flip
            # the stored parity and mirror only the factors right of Delta
            del factors[i]
            twists += 1
            factors[i:] = [(_tau(p), _tau(q)) for p, q in factors[i:]]
        # identities sink to the right
        while factors and factors[-1][0] == ident:
            factors.pop()
    out = tuple(tuple(_tau(p) if twists % 2 else p) for p, _ in factors)
    return BraidNormalForm(n, delta + twists, out)


def _normalize_tabled(n: int, letters: list[int]) -> BraidNormalForm:
    """The same pass over simple braids interned as ints. Tables that live
    for this one call answer each repeated step by one lookup: a factor and
    a positive letter give the factor that absorbs the letter and whether
    its left descents grew; a pair gives its left-weighted form, found on a
    miss by _left_weight_pair at every position; a factor gives its
    conjugate by Delta."""
    perms: list[Perm] = []  # id -> permutation, and its inverse
    inverses: list[Perm] = []
    ids: dict[Perm, int] = {}

    def intern(p: Sequence[int]) -> int:
        p = tuple(p)
        k = ids.get(p)
        if k is None:
            k = ids[p] = len(perms)
            perms.append(p)
            inverses.append(inverse_perm(p))
        return k

    # (x, j) -> (x o t_j, whether its left descents grew), or (-1, False)
    # if j is a right descent of x
    absorbed: dict[tuple[int, int], tuple[int, bool]] = {}
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    taus: dict[int, int] = {}

    def tau(f: int) -> int:
        t = taus.get(f)
        if t is None:
            t = taus[f] = intern(_tau(perms[f]))
        return t

    ident = intern(range(n))
    w0 = intern(_w0(n))
    swapped = [list(range(n)) for _ in range(n - 1)]
    for j, p in enumerate(swapped):
        p[j], p[j + 1] = p[j + 1], p[j]
    positive = [intern(p) for p in swapped]  # t_j, and Delta t_j for an inverse letter
    negative = [intern(compose_perm(_w0(n), p)) for p in swapped]
    inverses_right = sum(l < 0 for l in letters)
    delta = -inverses_right
    twists = 0
    factors: list[int] = []
    for l in letters:
        inverses_right -= l < 0
        j = abs(l) - 1
        if (inverses_right + twists) % 2:
            j = n - 2 - j
        if l < 0 or not factors:
            factors.append(positive[j] if l > 0 else negative[j])
        else:
            x = factors[-1]
            step = absorbed.get((x, j))
            if step is None:
                p = list(perms[x])
                if p[j] > p[j + 1]:
                    step = (-1, False)
                else:
                    p[j], p[j + 1] = p[j + 1], p[j]
                    y = intern(p)
                    q, r = inverses[x], inverses[y]
                    step = (y, any(r[k] > r[k + 1] and q[k] < q[k + 1] for k in range(n - 1)))
                absorbed[x, j] = step
            y, repair = step
            if y < 0:
                # (x, t_j) is left-weighted: nothing to repair
                factors.append(positive[j])
                continue
            factors[-1] = y
            if not repair:
                # x o t_j has the left descents of x, which the factor
                # before it covers; so it is no half twist either
                continue
        i = len(factors) - 1
        while i and factors[i] != w0:
            x, y = factors[i - 1], factors[i]
            pair = pairs.get((x, y))
            if pair is None:
                xf = (list(perms[x]), list(inverses[x]))
                yf = (list(perms[y]), list(inverses[y]))
                moved = _left_weight_pair(xf, yf, list(range(n - 1)))
                pair = pairs[x, y] = (intern(xf[0]), intern(yf[0])) if moved else (x, y)
            if pair[0] == x:
                break
            factors[i - 1], factors[i] = pair
            i -= 1
        if factors[i] == w0:
            # flip the stored parity; mirror the factors right of Delta
            del factors[i]
            twists += 1
            factors[i:] = map(tau, factors[i:])
        while factors and factors[-1] == ident:
            factors.pop()
    out = tuple(perms[tau(f) if twists % 2 else f] for f in factors)
    return BraidNormalForm(n, delta + twists, out)


def braid_equal(u: BraidWord, v: BraidWord) -> bool:
    """Equal letters are the same group element, so only words that differ
    as words need their normal forms."""
    if u.n != v.n:
        raise StructureError("words on different strand counts")
    return u.letters == v.letters or normalize_braid(u) == normalize_braid(v)
