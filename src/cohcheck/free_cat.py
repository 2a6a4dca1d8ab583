"""Free strict monoidal categories on a finite generator set.

Three flavors are supported: M (plain monoidal), S (symmetric), B (braided).
Objects are tuples of generator names. A morphism exists only between tuples
of equal length with matching multiset of labels; it carries no content in M,
a permutation in S, and a braid word in B.

Morphisms of the depth-two free algebra (tuples of tuples) are FreeMor2
values: a permutation/braid of the blocks plus one inner morphism per block.
Labels are compared only by equality, so the same FreeMor machinery serves
both levels; at depth two the "generators" are themselves tuples.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Literal, NamedTuple

from .braid_core import (
    BraidWord,
    Perm,
    braid_compose,
    braid_equal,
    braid_id,
    braid_inverse,
    braid_perm,
    braid_tensor,
    block_braid,
    block_perm,
    cable,
    cable_perm,
    compose_perm,
    identity_perm,
    inverse_perm,
    is_perm,
    perm_braid,
    permute,
)
from .errors import BoundaryError, FlavorError, StructureError, UnsupportedOp

Flavor = Literal["M", "S", "B"]
FLAVORS: tuple[Flavor, ...] = ("M", "S", "B")

Gen = str
Obj = tuple[Gen, ...]
# Depth-two objects: tuples whose entries are themselves objects.
Tuple2 = tuple[Obj, ...]
Label = Gen | Obj
Content = None | Perm | BraidWord


class _GenSetFields(NamedTuple):
    name: str
    names: tuple[str, ...]


class GenSet(_GenSetFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both check as a call does

    def __new__(cls, name: str, names: tuple[str, ...]) -> GenSet:
        if len(set(names)) != len(names):
            raise StructureError(f"generator set {name}: duplicate names")
        if any(not n for n in names):
            raise StructureError(f"generator set {name}: empty name")
        return tuple.__new__(cls, (name, names))

    def __contains__(self, g: str) -> bool:
        return g in self.names


def _content_perm(flavor: Flavor, content: Content, n: int) -> Perm:
    """The permutation of a content of the flavor on n strands: nothing in
    M, a permutation in S, a braid word in B. The one check of a content."""
    if flavor == "M" and content is None:
        return identity_perm(n)
    if flavor == "S" and type(content) is tuple and len(content) == n and is_perm(content):  # not a BraidWord
        return content
    if flavor == "B" and isinstance(content, BraidWord) and content.n == n:
        return braid_perm(content)
    if flavor not in FLAVORS:
        raise FlavorError(f"unknown flavor {flavor!r}")
    raise StructureError({"M": "flavor M admits only identities",
                          "S": "flavor S needs a permutation of the source length",
                          "B": "flavor B needs a braid word on the source strands"}[flavor])


class _FreeMorFields(NamedTuple):
    flavor: Flavor
    source: tuple[Label, ...]
    target: tuple[Label, ...]
    content: Content


class FreeMor(_FreeMorFields):
    """A morphism of the free algebra. The target is stored redundantly, so
    a call FreeMor(...) checks the boundary against the content. Library
    operations build from parts already known valid with tuple.__new__,
    which skips the checks; so do the inherited _make and _replace."""

    __slots__ = ()

    def __new__(cls, flavor: Flavor, source: tuple[Label, ...], target: tuple[Label, ...], content: Content) -> FreeMor:
        self = tuple.__new__(cls, (flavor, source, target, content))
        self.__post_init__()  # looked up on the class on every call, so that it can be hooked
        return self

    def __post_init__(self) -> None:
        if type(self.source) is not tuple or type(self.target) is not tuple:
            raise StructureError("source and target words must be tuples")
        n = len(self.source)
        p = _content_perm(self.flavor, self.content, n)
        if len(self.target) != n or any(self.target[p[i]] != self.source[i] for i in range(n)):
            raise StructureError("target word is not the source permuted by the content")


def _by_flavor(flavor: Flavor, on_perms: Callable, on_braids: Callable, *args) -> Content:
    """The flavor's operation on contents: none in M, on_perms in S,
    on_braids in B."""
    if flavor == "M":
        return None
    if flavor not in FLAVORS:
        raise FlavorError(f"unknown flavor {flavor!r}")
    return (on_perms if flavor == "S" else on_braids)(*args)


def fmor_id(flavor: Flavor, x: tuple[Label, ...]) -> FreeMor:
    content = _by_flavor(flavor, identity_perm, braid_id, len(x))
    return tuple.__new__(FreeMor, (flavor, x, x, content))


def fmor_of(flavor: Flavor, x: tuple[Label, ...], content: Content) -> FreeMor:
    """The morphism from x that carries content. The target is built from
    the content, so only x and the content are checked."""
    if type(x) is not tuple:
        raise StructureError("the source word must be a tuple")
    return tuple.__new__(FreeMor, (flavor, x, tuple(permute(x, _content_perm(flavor, content, len(x)))), content))


def _check_flavors(u: FreeMor | FreeMor2, v: FreeMor | FreeMor2) -> None:
    if u.flavor != v.flavor:
        raise FlavorError(f"cannot combine flavors {u.flavor} and {v.flavor}")


def fmor_compose(u: FreeMor, v: FreeMor) -> FreeMor:
    """u after v."""
    _check_flavors(u, v)
    if u.source != v.target:
        raise BoundaryError("compose: source of the outer morphism differs from target of the inner")
    content = _by_flavor(u.flavor, compose_perm, braid_compose, u.content, v.content)
    return tuple.__new__(FreeMor, (u.flavor, v.source, u.target, content))


def _perm_tensor(p: Perm, q: Perm) -> Perm:
    m = len(p)
    return p + tuple(m + j for j in q)


def fmor_tensor(u: FreeMor, v: FreeMor) -> FreeMor:
    _check_flavors(u, v)
    content = _by_flavor(u.flavor, _perm_tensor, braid_tensor, u.content, v.content)
    return tuple.__new__(FreeMor, (u.flavor, u.source + v.source, u.target + v.target, content))


def _join_perms(n: int, rows: list[list[tuple[int, Perm]]]) -> Perm:
    at = list(range(n))  # at[j] = the strand now at position j
    for off, p in (move for moves in rows for move in moves):
        at[off : off + len(p)] = permute(at[off : off + len(p)], p)
    return inverse_perm(at)


def _join_braids(n: int, rows: list[list[tuple[int, BraidWord]]]) -> BraidWord:
    word: list[int] = []
    for moves in reversed(rows):
        for off, w in moves:  # a move at offset 0 is copied whole, as concatenation would
            word += [l + off if l > 0 else l - off for l in w.letters] if off else w.letters
    return tuple.__new__(BraidWord, (n, tuple(word)))


def fmor_join(flavor: Flavor, source: tuple[Label, ...], target: tuple[Label, ...], rows: list[list]) -> FreeMor:
    """The composite of rows, in the order they apply; each row is a list of
    (label offset, content) moves on disjoint strands. Flavor S composes the
    moves on one list of the strand at each position; flavor B joins the
    letters, the last row first. The boundary is the caller's and is not
    checked."""
    content = _by_flavor(flavor, _join_perms, _join_braids, len(source), rows)
    return tuple.__new__(FreeMor, (flavor, source, target, content))


def fmor_inverse(u: FreeMor) -> FreeMor:
    content = _by_flavor(u.flavor, inverse_perm, braid_inverse, u.content)
    return tuple.__new__(FreeMor, (u.flavor, u.target, u.source, content))


def fmor_braiding(x: tuple[Label, ...], y: tuple[Label, ...], flavor: Flavor) -> FreeMor:
    """The block braiding x;y -> y;x (block transposition in flavor S)."""
    if flavor == "M":
        raise UnsupportedOp("flavor M has no braiding")
    content = _by_flavor(flavor, block_perm, block_braid, len(x), len(y))
    return tuple.__new__(FreeMor, (flavor, x + y, y + x, content))


def underlying_permutation(u: FreeMor) -> Perm:
    return _content_perm(u.flavor, u.content, len(u.source))


def display_braid(u: FreeMor) -> BraidWord:
    """The braid u is shown as: its content in flavor B, otherwise the
    positive reduced word of its permutation (empty in flavor M)."""
    return u.content if u.flavor == "B" else perm_braid(underlying_permutation(u))


def permutation_shadow(u: FreeMor) -> FreeMor:
    """The flavor-S morphism with the same boundary and underlying
    permutation; used to state symmetric-level facts about braids."""
    return tuple.__new__(FreeMor, ("S", u.source, u.target, underlying_permutation(u)))


def fmor_equal(u: FreeMor, v: FreeMor) -> bool:
    _check_flavors(u, v)
    if u.source != v.source or u.target != v.target:
        raise BoundaryError("equality of non-parallel morphisms")
    if u.flavor == "M":
        return True
    if u.flavor == "S":
        return u.content == v.content
    return braid_equal(u.content, v.content)


def project_generator(u: FreeMor, g: str) -> Perm:
    """The self-permutation of the g-labeled strands: delete every other
    position and renumber. Flavor S only; for braids, project the shadow."""
    if u.flavor != "S":
        raise UnsupportedOp("self-permutations are defined for flavor S")
    p = u.content
    images = [p[i] for i, lab in enumerate(u.source) if lab == g]
    rank = {v: r for r, v in enumerate(sorted(images))}
    return tuple(rank[v] for v in images)


# -- depth two ----------------------------------------------------------------


def concat_blocks(blocks: Tuple2) -> Obj:
    return tuple(g for b in blocks for g in b)


class _FreeMor2Fields(NamedTuple):
    flavor: Flavor
    source: Tuple2
    target: Tuple2
    outer: Content
    inners: tuple[FreeMor, ...]


class FreeMor2(_FreeMor2Fields):
    """A morphism of the depth-two free algebra: an outer permutation or
    braid of the blocks, plus one inner morphism per block. Inner i maps
    source block i to the target block at its image position. A call
    checks the parts, as FreeMor's does."""

    __slots__ = ()

    def __new__(
        cls, flavor: Flavor, source: Tuple2, target: Tuple2, outer: Content, inners: tuple[FreeMor, ...]
    ) -> FreeMor2:
        if not (type(source) is type(target) is type(inners) is tuple
                and all(type(b) is tuple for b in source + target)):
            raise StructureError("boundary blocks and inner morphisms must be tuples")
        m = len(source)
        if len(inners) != m or len(target) != m:
            raise StructureError("block counts of boundary and inner morphisms differ")
        p = _content_perm(flavor, outer, m)
        for i, inner in enumerate(inners):
            if not isinstance(inner, FreeMor):
                raise StructureError(f"inner morphism {i} is not a FreeMor")
            if inner.flavor != flavor:
                raise FlavorError("inner morphism flavor differs from the outer flavor")
            if inner.source != source[i] or inner.target != target[p[i]]:
                raise StructureError(f"inner morphism {i} does not match its blocks")
        return tuple.__new__(cls, (flavor, source, target, outer, inners))


def fmor2_shadow(u: FreeMor2) -> FreeMor2:
    """Forget braiding blockwise: the flavor-S morphism with the same
    boundary, outer permutation, and shadowed inners."""
    outer = _content_perm(u.flavor, u.outer, len(u.source))
    return tuple.__new__(FreeMor2, ("S", u.source, u.target, outer, tuple(map(permutation_shadow, u.inners))))


def flatten_mu(u: FreeMor2) -> FreeMor:
    """Collapse a depth-two morphism to depth one in one join: a row of the
    inners at their block offsets, then a row of the outer braid cabled by
    the block sizes."""
    sizes = [len(b) for b in u.source]
    inners = [(off, inner.content) for off, inner in zip(accumulate(sizes, initial=0), u.inners)]
    outer = _by_flavor(u.flavor, cable_perm, cable, u.outer, sizes)
    return fmor_join(u.flavor, concat_blocks(u.source), concat_blocks(u.target), [inners, [(0, outer)]])


def format_obj(x: Obj) -> str:
    return "[" + " ".join(x) + "]"

