"""The universal algebra of a generator map.

Given a map phi from source generators to target generators, objects here
are words in two kinds of letters: plain target generators, and formed
letters Phi(w) standing for the image of a whole source word w. A formed
letter on a length-one word is the same thing as the plain letter phi(a),
and a formed letter on the empty word is the monoidal unit, so objects
normalize to words whose formed letters all have length at least two.

Morphism terms are syntax trees over six generator families:

  UFree     a free morphism between plain words
  UPhiFree  a blockwise image of a depth-two free morphism over the source
  UPhiQ     the adjoined isomorphism gluing formed letters into one
  UPhiQInv  its formal inverse
  UBraiding a formal braiding between two objects (not in flavor M)
  UId       an identity

closed under UCompose and UTensor. Equality of parallel terms is decided
by dissolution: every adjoined isomorphism becomes an identity and every
formed letter is read through phi, landing in the free algebra on the
target generators where the word problem is decidable. Dissolution is
faithful here, so the answer is exact, not conservative.

Over identity_obj_map this algebra is the classifier of the generator set:
the constraint-adjoining construction, whose evaluation dissolves every
adjoined isomorphism to an identity. Its two sections send a free morphism
to one formed letter moving to another (zeta) and to an outer move of
one-letter blocks (zeta_flat); dissolving either gives the morphism back.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Union

from .errors import BoundaryError, FlavorError, StructureError, UnknownName, UnsupportedOp
from .free_cat import (
    Flavor,
    FreeMor,
    FreeMor2,
    GenSet,
    Obj,
    Tuple2,
    concat_blocks,
    flatten_mu,
    fmor2_shadow,
    fmor_braiding,
    fmor_compose,
    fmor_id,
    fmor_tensor,
    permutation_shadow,
)


class _ObjMapFields(NamedTuple):
    source: GenSet
    target: GenSet
    pairs: tuple[tuple[str, str], ...]


class ObjMap(_ObjMapFields):
    """A total map between generator sets, one image per source; a call
    checks the pairs. Outside equality, hashing and repr, it keeps the images
    in a dict and one memo from each letter to its normal form and labels:
    a letter is read through the map once, and never stored if it raises."""
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both check as a call does

    def __new__(cls, source: GenSet, target: GenSet, pairs: tuple[tuple[str, str], ...]) -> ObjMap:
        images = dict(pairs)
        for g in source.names:
            if g not in images:
                raise StructureError(f"map is not total: no image for {g!r}")
        for g, img in pairs:
            if g not in source:
                raise UnknownName(f"map source {g!r} is not in {source.name}")
            if img not in target:
                raise UnknownName(f"map image {img!r} is not in {target.name}")
        if len(images) != len(pairs):
            g = next(g for g in images if sum(h == g for h, _ in pairs) > 1)
            raise StructureError(f"map gives {g!r} more than one image")
        self = tuple.__new__(cls, (source, target, pairs))
        self.images: dict[str, str] = images
        self.letters: dict[ULetter, tuple[UObj, Obj]] = {}
        return self

    def __call__(self, g: str) -> str:
        if g not in self.images:
            raise UnknownName(f"unknown generator {g!r} in {self.source.name}")
        return self.images[g]


def identity_obj_map(gens: GenSet) -> ObjMap:
    return ObjMap(gens, gens, tuple((g, g) for g in gens.names))


# -- objects ------------------------------------------------------------------


class FreeLetter(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


class PhiLetter(NamedTuple):
    word: Obj

    def __str__(self) -> str:
        return "phi(" + " ".join(self.word) + ")"


ULetter = Union[FreeLetter, PhiLetter]
UObj = tuple[ULetter, ...]


def format_uobj(x: UObj) -> str:
    return "[" + " ; ".join(str(l) for l in x) + "]"


def _read_letter(letter: ULetter, phi: ObjMap) -> tuple[UObj, Obj]:
    """A letter's normal form and its plain labels, read through phi."""
    if isinstance(letter, FreeLetter):
        if letter.name not in phi.target:
            raise UnknownName(f"unknown generator {letter.name!r} in {phi.target.name}")
        return (letter,), (letter.name,)
    labels = tuple(map(phi, letter.word))
    if len(labels) == 1:
        return (FreeLetter(labels[0]),), labels
    return (letter,) if labels else (), labels


def _read(x: Iterable[ULetter], phi: ObjMap, part: int) -> tuple:
    """Part 0 (the normal form) or 1 (the labels) of each letter's memoized reading, joined."""
    memo = phi.letters
    out: list = []
    for letter in x:
        read = memo.get(letter)
        if read is None:
            read = memo[letter] = _read_letter(letter, phi)
        out += read[part]
    return tuple(out)


def normalize_uobj(x: Iterable[ULetter], phi: ObjMap) -> UObj:
    """Canonical form: length-one formed letters become plain letters,
    empty ones disappear. Letterwise, hence idempotent and a monoid map."""
    return _read(x, phi, 0)


def phi_object(blocks: Tuple2, phi: ObjMap) -> UObj:
    """The normalized word of formed letters for a tuple of source words."""
    return normalize_uobj([PhiLetter(tuple(b)) for b in blocks], phi)


def free_uobj(word: Obj, phi: ObjMap) -> UObj:
    return normalize_uobj(map(FreeLetter, word), phi)


def uobj_dissolve(x: Iterable[ULetter], phi: ObjMap) -> Obj:
    """Read formed letters through phi, giving a plain target word; a word
    reads as its normal form does, and its names are checked the same way."""
    return _read(x, phi, 1)


# -- morphism terms -----------------------------------------------------------


class UFree(NamedTuple):
    mor: FreeMor


class UPhiFree(NamedTuple):
    mor: FreeMor2


class UPhiQ(NamedTuple):
    blocks: Tuple2


class UPhiQInv(NamedTuple):
    blocks: Tuple2


class UBraiding(NamedTuple):
    x: UObj
    y: UObj


class UId(NamedTuple):
    obj: UObj


class UCompose(NamedTuple):
    """after is applied second: UCompose(after, first)."""

    after: "UMor"
    first: "UMor"


class UTensor(NamedTuple):
    left: "UMor"
    right: "UMor"


UMor = Union[UFree, UPhiFree, UPhiQ, UPhiQInv, UBraiding, UId, UCompose, UTensor]

# a named tuple equals every tuple of equal fields; a term equals only terms of its own kind
for _kind in UMor.__args__:
    _kind.__eq__ = lambda s, o: type(s) is type(o) and tuple.__eq__(s, o)
    _kind.__ne__ = lambda s, o: not s == o
    _kind.__hash__ = tuple.__hash__


# -- the two sections ----------------------------------------------------------


def zeta(u: FreeMor) -> UPhiFree:
    """The image of a source free morphism under the universal map: one
    formed letter moving to another, from phi_object((u.source,), phi) to
    phi_object((u.target,), phi)."""
    outer = fmor_id(u.flavor, (u.source,)).content
    return UPhiFree(FreeMor2(u.flavor, (u.source,), (u.target,), outer, (u,)))


def zeta_flat(u: FreeMor) -> UPhiFree:
    """A source free morphism as an outer move of one-letter blocks: each
    letter of u is a block of its own, and u moves the blocks."""
    inners = tuple(fmor_id(u.flavor, (g,)) for g in u.source)
    source = tuple((g,) for g in u.source)
    target = tuple((g,) for g in u.target)
    return UPhiFree(FreeMor2(u.flavor, source, target, u.content, inners))


# -- one fold for every term tree ---------------------------------------------


class TermFault(Exception):
    """TermFault(kind, message), raised by a fold callback at a faulty node:
    the fold raises kind(message) prefixed by the node's path."""


_PARTS = ((".left", ".right"), (".first", ".after"))


def fold(t: UMor, leaf: Callable, compose: Callable, tensor: Callable):
    """Evaluate a term tree bottom-up on an explicit stack, so that depth is
    bounded by memory, not by the recursion limit. Every node but UCompose
    and UTensor is a leaf. compose(after, first) and tensor(left, right)
    combine the values of the parts, which are evaluated first before after
    and left before right. The path of a faulty node (term.after.first) is
    built only when a TermFault is raised."""
    todo: list[tuple[object, int]] = []  # the ancestors, and which part is under way
    values: list = []
    node = t
    try:
        while True:
            while isinstance(node, (UCompose, UTensor)):
                todo.append((node, 0))
                node = node.first if isinstance(node, UCompose) else node.left
            values.append(leaf(node))
            while todo:
                parent, part = todo.pop()
                if not part:
                    todo.append((parent, 1))
                    node = parent.after if isinstance(parent, UCompose) else parent.right
                    break
                second = values.pop()
                first = values[-1]
                values[-1] = compose(second, first) if isinstance(parent, UCompose) else tensor(first, second)
            else:
                return values[0]
    except TermFault as fault:
        kind, message = fault.args
        path = "term" + "".join(_PARTS[isinstance(n, UCompose)][part] for n, part in todo)
        raise kind(f"{path}: {message}") from None


def _bounds(t: UMor, phi: ObjMap, flavor: Flavor) -> tuple[UObj, UObj]:
    """The boundary of a generator term, rejecting one that is ill-typed."""
    if isinstance(t, (UFree, UPhiFree)) and t.mor.flavor != flavor:
        raise TermFault(FlavorError, f"flavor {t.mor.flavor} inside a {flavor} term")
    if isinstance(t, UFree):
        return free_uobj(t.mor.source, phi), free_uobj(t.mor.target, phi)
    if isinstance(t, UPhiFree):
        return phi_object(t.mor.source, phi), phi_object(t.mor.target, phi)
    if isinstance(t, UPhiQ):
        return phi_object(t.blocks, phi), phi_object((concat_blocks(t.blocks),), phi)
    if isinstance(t, UPhiQInv):
        return phi_object((concat_blocks(t.blocks),), phi), phi_object(t.blocks, phi)
    if isinstance(t, UBraiding):
        if flavor == "M":
            raise TermFault(UnsupportedOp, "no braiding in flavor M")
        x = normalize_uobj(t.x, phi)
        y = normalize_uobj(t.y, phi)
        return x + y, y + x
    if isinstance(t, UId):
        x = normalize_uobj(t.obj, phi)
        return x, x
    raise TermFault(StructureError, f"not a morphism term: {t!r}")


def fold_typed(t: UMor, phi: ObjMap, flavor: Flavor, leaf: Callable, compose: Callable, tensor: Callable):
    """Validate and evaluate a term in one pass: (source, target, value),
    the value folded from leaf(g, source, target), compose and tensor."""

    def typed_leaf(g: UMor) -> tuple:
        src, tgt = _bounds(g, phi, flavor)
        return src, tgt, leaf(g, src, tgt)

    def after_first(a: tuple, f: tuple) -> tuple:
        if a[0] != f[1]:
            raise TermFault(
                BoundaryError, f"middle boundary mismatch: {format_uobj(f[1])} then {format_uobj(a[0])}"
            )
        return f[0], a[1], compose(a[2], f[2])

    return fold(
        t,
        typed_leaf,
        after_first,
        lambda l, r: (l[0] + r[0], l[1] + r[1], tensor(l[2], r[2])),
    )


def validate_umor(t: UMor, phi: ObjMap, flavor: Flavor) -> tuple[UObj, UObj]:
    """Boundary computation; rejects ill-typed terms naming the subterm."""
    return fold_typed(t, phi, flavor, *[lambda *_: None] * 3)[:2]


# -- dissolution --------------------------------------------------------------


def _relabel(u: FreeMor, phi: ObjMap) -> FreeMor:
    """Relabelling a valid morphism pointwise keeps it valid."""
    source, target = tuple(phi(g) for g in u.source), tuple(phi(g) for g in u.target)
    return tuple.__new__(FreeMor, (u.flavor, source, target, u.content))


def _dissolve_leaf(t: UMor, src: Iterable[ULetter], phi: ObjMap, flavor: Flavor) -> FreeMor:
    if isinstance(t, UFree):
        return t.mor
    if isinstance(t, UPhiFree):
        return _relabel(flatten_mu(t.mor), phi)
    if isinstance(t, UBraiding):
        return fmor_braiding(uobj_dissolve(t.x, phi), uobj_dissolve(t.y, phi), flavor)
    return fmor_id(flavor, uobj_dissolve(src, phi))  # UPhiQ, UPhiQInv and UId dissolve to identities


def _dissolution(t: UMor, phi: ObjMap, flavor: Flavor) -> tuple[UObj, UObj, FreeMor]:
    leaf = lambda g, src, tgt: _dissolve_leaf(g, src, phi, flavor)  # noqa: E731
    return fold_typed(t, phi, flavor, leaf, fmor_compose, fmor_tensor)


def dissolve(t: UMor, phi: ObjMap, flavor: Flavor) -> FreeMor:
    """The image in the free algebra on the target generators: adjoined
    isomorphisms become identities, formed letters are read through phi."""
    return _dissolution(t, phi, flavor)[2]


def _shadow_leaf(t: UMor) -> UMor:
    if isinstance(t, UFree):
        return UFree(permutation_shadow(t.mor))
    if isinstance(t, UPhiFree):
        return UPhiFree(fmor2_shadow(t.mor))
    if isinstance(t, (UPhiQ, UPhiQInv, UBraiding, UId)):
        return t
    raise StructureError(f"not a morphism term: {t!r}")


def umor_shadow(t: UMor) -> UMor:
    """Forget braid data down to permutations, sending a braided term to
    the symmetric term with the same shape."""
    return fold(t, _shadow_leaf, UCompose, UTensor)
