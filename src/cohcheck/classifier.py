"""The explicit classifier construction over a free algebra.

Terms are syntax trees over three generator families: free morphisms lifted
from the depth-two algebra, the adjoined isomorphisms q (gluing a tuple of
tuples into the one-block tuple of its concatenation), and their formal
inverses. Equality of parallel terms is decided by evaluating both sides
down to the free algebra: q evaluates to an identity, a free node to its
flattening, and the result is compared there. The evaluation functor is
faithful on these terms, so nothing is lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid_core import braid_id, identity_perm
from .errors import BoundaryError, FlavorError
from .free_cat import (
    Content,
    Flavor,
    FreeMor,
    FreeMor2,
    Obj,
    Tuple2,
    concat_blocks,
    flatten_mu,
    fmor_compose,
    fmor_equal,
    fmor_id,
    fmor_tensor,
)
from .ualg import fold


class QMor:
    """Base class; every node knows its flavor and Tuple2 boundary."""

    flavor: Flavor

    @property
    def source(self) -> Tuple2:
        raise NotImplementedError

    @property
    def target(self) -> Tuple2:
        raise NotImplementedError


@dataclass(frozen=True)
class QFree(QMor):
    mor: FreeMor2

    @property
    def flavor(self) -> Flavor:  # type: ignore[override]
        return self.mor.flavor

    @property
    def source(self) -> Tuple2:
        return self.mor.source

    @property
    def target(self) -> Tuple2:
        return self.mor.target


@dataclass(frozen=True)
class QAdj(QMor):
    """The adjoined isomorphism at a tuple of tuples."""

    flavor: Flavor
    blocks: Tuple2

    @property
    def source(self) -> Tuple2:
        return self.blocks

    @property
    def target(self) -> Tuple2:
        return (concat_blocks(self.blocks),)


@dataclass(frozen=True)
class QAdjInv(QMor):
    flavor: Flavor
    blocks: Tuple2

    @property
    def source(self) -> Tuple2:
        return (concat_blocks(self.blocks),)

    @property
    def target(self) -> Tuple2:
        return self.blocks


@dataclass(frozen=True)
class QId(QMor):
    flavor: Flavor
    blocks: Tuple2

    @property
    def source(self) -> Tuple2:
        return self.blocks

    @property
    def target(self) -> Tuple2:
        return self.blocks


@dataclass(frozen=True)
class QCompose(QMor):
    """after is applied second: QCompose(u, v) means u after v."""

    after: QMor
    first: QMor

    def __post_init__(self) -> None:
        if self.after.flavor != self.first.flavor:
            raise FlavorError("composed terms have different flavors")
        if self.after.source != self.first.target:
            raise BoundaryError("compose: inner target does not meet outer source")

    @property
    def flavor(self) -> Flavor:  # type: ignore[override]
        return self.after.flavor

    @property
    def source(self) -> Tuple2:
        return self.first.source

    @property
    def target(self) -> Tuple2:
        return self.after.target


@dataclass(frozen=True)
class QTensor(QMor):
    left: QMor
    right: QMor

    def __post_init__(self) -> None:
        if self.left.flavor != self.right.flavor:
            raise FlavorError("tensored terms have different flavors")

    @property
    def flavor(self) -> Flavor:  # type: ignore[override]
        return self.left.flavor

    @property
    def source(self) -> Tuple2:
        return self.left.source + self.right.source

    @property
    def target(self) -> Tuple2:
        return self.left.target + self.right.target


# -- units --------------------------------------------------------------------


def zeta_obj(x: Obj) -> Tuple2:
    """An object becomes the corresponding one-block tuple."""
    return (x,)


def zeta(u: FreeMor) -> QMor:
    """A free morphism becomes a one-block free node; its coherence
    constraints are the adjoined isomorphisms themselves."""
    outer: Content
    if u.flavor == "M":
        outer = None
    elif u.flavor == "S":
        outer = identity_perm(1)
    else:
        outer = braid_id(1)
    return QFree(FreeMor2(u.flavor, (u.source,), (u.target,), outer, (u,)))


def zeta_flat_obj(x: Obj) -> Tuple2:
    """An object becomes the tuple of its length-one blocks."""
    return tuple((g,) for g in x)


def zeta_flat(u: FreeMor) -> QMor:
    """A free morphism becomes an outer move of singleton blocks."""
    inners = tuple(fmor_id(u.flavor, (g,)) for g in u.source)
    return QFree(FreeMor2(u.flavor, zeta_flat_obj(u.source), zeta_flat_obj(u.target), u.content, inners))


# -- evaluation ---------------------------------------------------------------


def delta_obj(blocks: Tuple2) -> Obj:
    return concat_blocks(blocks)


def _delta_leaf(t: QMor) -> FreeMor:
    if isinstance(t, QFree):
        return flatten_mu(t.mor)
    if isinstance(t, (QAdj, QAdjInv, QId)):
        return fmor_id(t.flavor, concat_blocks(t.blocks))
    raise TypeError(f"not a classifier term: {t!r}")


def delta_eval(t: QMor) -> FreeMor:
    """Evaluate down to the free algebra: q and its inverse become
    identities, free nodes flatten."""
    return fold(t, _delta_leaf, fmor_compose, fmor_tensor, (QCompose, QTensor))


def theta_flat_component(blocks: Tuple2, flavor: Flavor) -> QMor:
    """The canonical map from the singleton regrouping of the underlying
    word back to the given grouping."""
    singles = zeta_flat_obj(concat_blocks(blocks))
    return QCompose(QAdjInv(flavor, blocks), QAdj(flavor, singles))


def qmor_equal(s: QMor, t: QMor) -> bool:
    if s.flavor != t.flavor:
        raise FlavorError(f"cannot compare flavors {s.flavor} and {t.flavor}")
    if s.source != t.source or s.target != t.target:
        raise BoundaryError("equality of non-parallel terms")
    return fmor_equal(delta_eval(s), delta_eval(t))
