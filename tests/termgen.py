"""Seeded random generators for free-algebra and universal-algebra terms.

Plain random.Random throughout so the acceptance suite can fix a seed and
module tests can feed hypothesis-drawn seeds.
"""

from __future__ import annotations

import random

from cohcheck.braid_core import BraidWord, braid_perm
from cohcheck.free_cat import Flavor, FreeMor, FreeMor2, fmor_id, fmor_of
from cohcheck.ualg import (
    FreeLetter,
    ObjMap,
    PhiLetter,
    UBraiding,
    UCompose,
    UFree,
    UId,
    UMor,
    UObj,
    UPhiFree,
    UPhiQ,
    UPhiQInv,
    UTensor,
    normalize_uobj,
    validate_umor,
)


def random_obj(rng: random.Random, names, max_len: int = 5) -> tuple[str, ...]:
    return tuple(rng.choice(names) for _ in range(rng.randint(0, max_len)))


def random_fmor(rng: random.Random, flavor: Flavor, source) -> FreeMor:
    n = len(source)
    if flavor == "M":
        return fmor_id("M", source)
    if flavor == "S":
        p = list(range(n))
        rng.shuffle(p)
        return fmor_of("S", source, tuple(p))
    if n >= 2:
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))
        )
    else:
        letters = ()
    return fmor_of("B", source, BraidWord(n, letters))


def random_fmor2(rng: random.Random, flavor: Flavor, blocks) -> FreeMor2:
    m = len(blocks)
    inners = tuple(random_fmor(rng, flavor, b) for b in blocks)
    if flavor == "M":
        outer = None
        p = tuple(range(m))
    elif flavor == "S":
        pl = list(range(m))
        rng.shuffle(pl)
        p = tuple(pl)
        outer = p
    else:
        if m >= 2:
            letters = tuple(
                rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(rng.randint(0, 4))
            )
        else:
            letters = ()
        outer = BraidWord(m, letters)
        p = braid_perm(outer)
    target = [None] * m
    for i in range(m):
        target[p[i]] = inners[i].target
    return FreeMor2(flavor, blocks, tuple(target), outer, inners)


def random_uobj(rng: random.Random, phi: ObjMap, max_len: int = 5) -> UObj:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            letters.append(FreeLetter(rng.choice(phi.target.names)))
        else:
            w = tuple(rng.choice(phi.source.names) for _ in range(rng.randint(0, 3)))
            letters.append(PhiLetter(w))
    return normalize_uobj(letters, phi)


def _preimages(phi: ObjMap, name: str) -> list[str]:
    return [a for a, img in phi.pairs if img == name]


def _as_block(rng: random.Random, phi: ObjMap, letter) -> tuple[str, ...] | None:
    if isinstance(letter, PhiLetter):
        return letter.word
    pre = _preimages(phi, letter.name)
    return (rng.choice(pre),) if pre else None


def random_step(rng: random.Random, phi: ObjMap, flavor: Flavor, source: UObj) -> UMor:
    """A tensor of generator pieces consuming the source left to right."""
    pieces: list[UMor] = []
    i = 0
    n = len(source)
    while i < n:
        letter = source[i]
        choices = ["id", "id"]
        if isinstance(letter, FreeLetter):
            choices.append("free")
            if _preimages(phi, letter.name):
                choices += ["merge", "pf"]
        else:
            choices += ["split", "merge", "pf"]
        if flavor != "M" and n - i >= 2:
            choices.append("swap")
        kind = rng.choice(choices)
        if kind == "id":
            pieces.append(UId((letter,)))
            i += 1
        elif kind == "free":
            j = i
            while j < n and j - i < 4 and isinstance(source[j], FreeLetter):
                j += 1
            pieces.append(UFree(random_fmor(rng, flavor, tuple(l.name for l in source[i:j]))))
            i = j
        elif kind == "split":
            word = letter.word
            cuts = sorted(rng.randint(0, len(word)) for _ in range(rng.randint(0, 2)))
            blocks, prev = [], 0
            for c in cuts:
                blocks.append(word[prev:c])
                prev = c
            blocks.append(word[prev:])
            pieces.append(UPhiQInv(tuple(blocks)))
            i += 1
        elif kind in ("merge", "pf"):
            blocks = []
            j = i
            while j < n and len(blocks) < 3:
                b = _as_block(rng, phi, source[j])
                if b is None:
                    break
                blocks.append(b)
                j += 1
                if rng.random() < 0.4:
                    break
            if not blocks:
                pieces.append(UId((letter,)))
                i += 1
                continue
            if kind == "merge":
                pieces.append(UPhiQ(tuple(blocks)))
            else:
                pieces.append(UPhiFree(random_fmor2(rng, flavor, tuple(blocks))))
            i = j
        else:  # swap
            q = rng.randint(2, n - i)
            p = rng.randint(1, q - 1)
            pieces.append(UBraiding(source[i : i + p], source[i + p : i + q]))
            i += q
    if not pieces:
        return UId(())
    term = pieces[0]
    for piece in pieces[1:]:
        term = UTensor(term, piece)
    return term


def random_umor(rng: random.Random, phi: ObjMap, flavor: Flavor, max_steps: int = 3) -> UMor:
    """A random well-typed composite starting from a random object."""
    cur = random_uobj(rng, phi)
    term: UMor = UId(cur)
    for _ in range(rng.randint(1, max_steps)):
        step = random_step(rng, phi, flavor, cur)
        _, cur = validate_umor(step, phi, flavor)
        term = UCompose(step, term)
    return term
