"""Operations on braids, free morphisms, functors and diagrams that only
the tests use: the unit embedding, depth-two identities, composites and
tensors, expansion of a normal form, lift verification and enumeration of
parallel goals. The tests state the paper's facts through them."""

from __future__ import annotations

from typing import Mapping

from cohcheck.braid_core import (
    BraidNormalForm, BraidWord, _w0, braid_compose, braid_id, braid_inverse, braid_tensor, compose_perm,
    perm_braid,
)
from cohcheck.diagram_check import Diagram, Edge, Goal
from cohcheck.errors import BoundaryError, StructureError, UnknownName
from cohcheck.free_cat import (
    Flavor, FreeMor, FreeMor2, GenSet, Obj, Tuple2, _by_flavor, _check_flavors, _content_perm, _perm_tensor,
    fmor_compose, fmor_equal, fmor_id,
)
from cohcheck.functor_eval import FunctorSpec, lambda_eval
from cohcheck.ualg import ObjMap, UMor


def unit_embed(gens: GenSet, g: str) -> Obj:
    """The length-one tuple on a generator."""
    if g not in gens:
        raise UnknownName(f"unknown generator {g!r} in {gens.name}")
    return (g,)


def fmor2_id(flavor: Flavor, blocks: Tuple2) -> FreeMor2:
    outer = fmor_id(flavor, blocks).content
    return FreeMor2(flavor, blocks, blocks, outer, tuple(fmor_id(flavor, b) for b in blocks))


def fmor2_compose(u: FreeMor2, v: FreeMor2) -> FreeMor2:
    """u after v; inner i of the composite routes through v's image block."""
    _check_flavors(u, v)
    if u.source != v.target:
        raise BoundaryError("compose: source of the outer morphism differs from target of the inner")
    pv = _content_perm(v.flavor, v.outer, len(v.source))
    outer = _by_flavor(u.flavor, compose_perm, braid_compose, u.outer, v.outer)
    inners = tuple(fmor_compose(u.inners[pv[i]], v.inners[i]) for i in range(len(v.source)))
    return FreeMor2(u.flavor, v.source, u.target, outer, inners)


def fmor2_tensor(u: FreeMor2, v: FreeMor2) -> FreeMor2:
    _check_flavors(u, v)
    outer = _by_flavor(u.flavor, _perm_tensor, braid_tensor, u.outer, v.outer)
    return FreeMor2(u.flavor, u.source + v.source, u.target + v.target, outer, u.inners + v.inners)


def nf_word(nf: BraidNormalForm) -> BraidWord:
    """Expand a normal form back to a braid word."""
    if nf.n <= 1:
        return braid_id(nf.n)
    delta_word = perm_braid(_w0(nf.n))
    if nf.delta_power >= 0:
        w = BraidWord(nf.n, delta_word.letters * nf.delta_power)
    else:
        w = BraidWord(nf.n, braid_inverse(delta_word).letters * (-nf.delta_power))
    for f in nf.factors:
        w = braid_compose(w, perm_braid(f))
    return w


def verify_lift(t: UMor, claimed: FreeMor, F: FunctorSpec, interp: Mapping[str, Obj], phi: ObjMap) -> bool:
    """Does the term evaluate to the morphism it claims to present?"""
    return fmor_equal(lambda_eval(t, F, interp, phi), claimed)


def all_parallel_goals(d: Diagram, max_edges: int = 12) -> tuple[Goal, ...]:
    """Every unordered pair of distinct simple parallel paths, as goals.
    Capped by edge count: path enumeration is exponential in general."""
    if len(d.edges) > max_edges:
        raise StructureError(f"{len(d.edges)} edges is past the enumeration cap ({max_edges})")
    outgoing: dict[str, list[Edge]] = {}
    for e in d.edges.values():
        outgoing.setdefault(e.source, []).append(e)
    for es in outgoing.values():
        es.sort(key=lambda e: e.name)

    paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}

    def walk(node: str, seen: tuple[str, ...], trail: tuple[str, ...]) -> None:
        for e in outgoing.get(node, ()):
            if e.target in seen:
                continue
            found = trail + (e.name,)
            paths.setdefault((seen[0], e.target), []).append(found)
            walk(e.target, seen + (e.target,), found)

    for node in sorted(d.nodes):
        walk(node, (node,), ())

    goals: list[Goal] = []
    for (src, tgt), found in sorted(paths.items()):
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                # stored head-first; goals list edges outermost-first
                left = tuple(reversed(found[i]))
                right = tuple(reversed(found[j]))
                goals.append(Goal(f"{src}..{tgt}#{len(goals)}", left, right))
    return tuple(goals)
