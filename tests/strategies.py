"""Shared hypothesis strategies for free-algebra morphisms."""

from __future__ import annotations

from hypothesis import strategies as st

from cohcheck.braid_core import BraidWord, braid_perm
from cohcheck.free_cat import Flavor, FreeMor, FreeMor2, fmor_id, fmor_of

LABELS = ("a", "b")


@st.composite
def objects(draw, max_len: int = 5) -> tuple[str, ...]:
    k = draw(st.integers(0, max_len))
    return tuple(draw(st.sampled_from(LABELS)) for _ in range(k))


@st.composite
def fmors(draw, flavor: Flavor | None = None, source: tuple[str, ...] | None = None) -> FreeMor:
    if flavor is None:
        flavor = draw(st.sampled_from(("M", "S", "B")))
    if source is None:
        source = draw(objects())
    n = len(source)
    if flavor == "M":
        return fmor_id("M", source)
    if flavor == "S":
        return fmor_of("S", source, tuple(draw(st.permutations(tuple(range(n))))))
    if n >= 2:
        k = draw(st.integers(0, 6))
        letters = tuple(
            draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1))) for _ in range(k)
        )
    else:
        letters = ()
    return fmor_of("B", source, BraidWord(n, letters))


@st.composite
def fmor2s(draw, flavor: Flavor | None = None, source=None) -> FreeMor2:
    if flavor is None:
        flavor = draw(st.sampled_from(("M", "S", "B")))
    if source is None:
        m = draw(st.integers(1, 3))
        source = tuple(draw(objects(max_len=3)) for _ in range(m))
    m = len(source)
    inners = tuple(draw(fmors(flavor=flavor, source=b)) for b in source)
    if flavor == "M":
        outer = None
        p = tuple(range(m))
    elif flavor == "S":
        p = tuple(draw(st.permutations(tuple(range(m)))))
        outer = p
    else:
        if m >= 2:
            k = draw(st.integers(0, 4))
            letters = tuple(
                draw(st.integers(1, m - 1)) * draw(st.sampled_from((1, -1))) for _ in range(k)
            )
        else:
            letters = ()
        outer = BraidWord(m, letters)
        p = braid_perm(outer)
    target = [None] * m
    for i in range(m):
        target[p[i]] = inners[i].target
    return FreeMor2(flavor, source, tuple(target), outer, inners)


@st.composite
def partitions(draw, word: tuple[str, ...]):
    """Split a word into consecutive blocks (possibly empty ones)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(word)), max_size=3)))
    blocks = []
    prev = 0
    for c in cuts:
        blocks.append(word[prev:c])
        prev = c
    blocks.append(word[prev:])
    return tuple(blocks)
