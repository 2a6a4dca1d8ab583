"""Hand-built diagrams mirroring the bundled fixtures, for tests that want
the objects directly rather than through the parser."""

from __future__ import annotations

from cohcheck.braid_core import parse_braid
from cohcheck.diagram_check import Diagram, Edge, Goal
from cohcheck.free_cat import GenSet, fmor_of
from cohcheck.ualg import (
    FreeLetter,
    ObjMap,
    PhiLetter,
    UBraiding,
    UId,
    UPhiQ,
    UTensor,
    identity_obj_map,
    normalize_uobj,
    zeta,
)

from ualg_checks import kappa_embed

AB = GenSet("AB", ("a", "b"))
PHI_AB = identity_obj_map(AB)


def _fl(*names: str) -> tuple:
    return tuple(FreeLetter(n) for n in names)


def hexagon_diagram() -> Diagram:
    """One formed letter braided past a constraint collapse; commutes on the
    nose in both braided and symmetric flavors."""
    A = GenSet("A", ("a",))
    A2 = GenSet("A2", ("fa",))
    phi = ObjMap(A, A2, (("a", "fa"),))
    nodes = {
        "s1": _fl("fa", "fa", "fa"),
        "s2": (PhiLetter(("a", "a")), FreeLetter("fa")),
        "s3": (FreeLetter("fa"), PhiLetter(("a", "a"))),
        "s4": (PhiLetter(("a", "a", "a")),),
        "t2": (PhiLetter(("a", "a", "a")),),
        "t3": (PhiLetter(("a", "a", "a")),),
    }
    s2w = fmor_of("B", ("a", "a", "a"), parse_braid("s2", 3))
    s1w = fmor_of("B", ("a", "a", "a"), parse_braid("s1", 3))
    edges = {
        "e1": Edge("e1", "s1", "s2", UTensor(UPhiQ((("a",), ("a",))), UId((FreeLetter("fa"),)))),
        "e2": Edge("e2", "s2", "s3", UBraiding((PhiLetter(("a", "a")),), (FreeLetter("fa"),))),
        "e3": Edge("e3", "s3", "s4", UPhiQ((("a",), ("a", "a")))),
        "e4": Edge("e4", "s1", "t2", UPhiQ((("a",), ("a",), ("a",)))),
        "e5": Edge("e5", "t2", "t3", zeta(s2w)),
        "e6": Edge("e6", "t3", "s4", zeta(s1w)),
    }
    goals = (Goal("hex", ("e3", "e2", "e1"), ("e6", "e5", "e4")),)
    return Diagram("B", phi, nodes, edges, goals)


def naturality_diagram() -> Diagram:
    """Constraint collapses on either side of one middle transposition."""
    A = GenSet("A", ("a", "b", "c", "d"))
    A2 = GenSet("A2", ("fa", "fb", "fc", "fd"))
    phi = ObjMap(A, A2, (("a", "fa"), ("b", "fb"), ("c", "fc"), ("d", "fd")))
    nodes = {
        "s1": _fl("fa", "fb", "fc", "fd"),
        "s2": _fl("fa", "fc", "fb", "fd"),
        "s3": (PhiLetter(("a", "c")), PhiLetter(("b", "d"))),
        "s4": (PhiLetter(("a", "c", "b", "d")),),
        "t1": (PhiLetter(("a", "b")), PhiLetter(("c", "d"))),
        "t2": (PhiLetter(("a", "b", "c", "d")),),
    }
    mid = fmor_of("B", ("a", "b", "c", "d"), parse_braid("s2", 4))
    edges = {
        "e1": Edge(
            "e1", "s1", "s2",
            UTensor(UId((FreeLetter("fa"),)),
                    UTensor(UBraiding((FreeLetter("fb"),), (FreeLetter("fc"),)),
                            UId((FreeLetter("fd"),)))),
        ),
        "e2": Edge("e2", "s2", "s3", UTensor(UPhiQ((("a",), ("c",))), UPhiQ((("b",), ("d",))))),
        "e3": Edge("e3", "s3", "s4", UPhiQ((("a", "c"), ("b", "d")))),
        "e4": Edge("e4", "s1", "t1", UTensor(UPhiQ((("a",), ("b",))), UPhiQ((("c",), ("d",))))),
        "e5": Edge("e5", "t1", "t2", UPhiQ((("a", "b"), ("c", "d")))),
        "e6": Edge("e6", "t2", "s4", zeta(mid)),
    }
    goals = (Goal("natm", ("e3", "e2", "e1"), ("e6", "e5", "e4")),)
    return Diagram("B", phi, nodes, edges, goals)


def braiding_naturality_diagram() -> Diagram:
    """Braids two copies of a collapsed pair; the two composites agree only
    at the permutation level in the braided flavor."""
    A2 = GenSet("A2", ("fa", "fb"))
    phi = ObjMap(AB, A2, (("a", "fa"), ("b", "fb")))
    abab = _fl("fa", "fb", "fa", "fb")
    nodes = {
        "n1": _fl("fa", "fa", "fb", "fb"),
        "n2": _fl("fa", "fa", "fb", "fb"),
        "n3": abab,
        "n4": abab,
        "n5": (PhiLetter(("a", "b")), PhiLetter(("a", "b"))),
        "n6": (PhiLetter(("a", "b")), PhiLetter(("a", "b"))),
    }
    qq = UTensor(UPhiQ((("a",), ("b",))), UPhiQ((("a",), ("b",))))
    swap_mid = UTensor(
        UId((FreeLetter("fa"),)),
        UTensor(UBraiding((FreeLetter("fa"),), (FreeLetter("fb"),)), UId((FreeLetter("fb"),))),
    )
    edges = {
        "top": Edge(
            "top", "n1", "n2",
            UTensor(UBraiding((FreeLetter("fa"),), (FreeLetter("fa"),)),
                    UBraiding((FreeLetter("fb"),), (FreeLetter("fb"),))),
        ),
        "lmid": Edge("lmid", "n1", "n3", swap_mid),
        "rmid": Edge("rmid", "n2", "n4", swap_mid),
        "lq": Edge("lq", "n3", "n5", qq),
        "rq": Edge("rq", "n4", "n6", qq),
        "bottom": Edge(
            "bottom", "n5", "n6",
            UBraiding((PhiLetter(("a", "b")),), (PhiLetter(("a", "b")),)),
        ),
    }
    goals = (Goal("natb", ("bottom", "lq", "lmid"), ("rq", "rmid", "top")),)
    return Diagram("B", phi, nodes, edges, goals)


CYCLIC_LEFT = (6, 5, 4, 3, 2, 1, 7, 6, 5, 4, 3, 2, 2, 6, 4, 3, 5, 4)
CYCLIC_RIGHT = (2, 6, 4, 3, 5, 4, 3, 2, 1, 7, 6, 5)


def cyclic_diagram() -> Diagram:
    """The cyclic braiding of four copies against pairwise regrouping, built
    from plain braid words. Strands 2 and 5 stay linked on one side only."""
    a4b4 = ("a",) * 4 + ("b",) * 4
    aabb2 = ("a", "a", "b", "b") * 2
    abx4 = ("a", "b") * 4

    def word(src: tuple, text: str) -> Edge:
        return fmor_of("B", src, parse_braid(text, 8))

    nodes = {
        "na": _fl(*a4b4), "nb": _fl(*a4b4),
        "nc": _fl(*aabb2), "nd": _fl(*aabb2),
        "ne": _fl(*abx4), "nf": _fl(*abx4),
    }
    edges = {
        "top": Edge("top", "na", "nb", kappa_embed(word(a4b4, "s3 s2 s1 s7 s6 s5"))),
        "lv1": Edge("lv1", "na", "nc", kappa_embed(word(a4b4, "s4 s3 s5 s4"))),
        "rv1": Edge("rv1", "nb", "nd", kappa_embed(word(a4b4, "s4 s3 s5 s4"))),
        "lv2": Edge("lv2", "nc", "ne", kappa_embed(word(aabb2, "s2 s6"))),
        "rv2": Edge("rv2", "nd", "nf", kappa_embed(word(aabb2, "s2 s6"))),
        "bottom": Edge("bottom", "ne", "nf", kappa_embed(word(abx4, "s6 s5 s4 s3 s2 s1 s7 s6 s5 s4 s3 s2"))),
    }
    goals = (Goal("cyc", ("bottom", "lv2", "lv1"), ("rv2", "rv1", "top")),)
    return Diagram("B", PHI_AB, nodes, edges, goals)


def unequal_diagram() -> Diagram:
    """A transposition against an identity: honestly not equal."""
    A = GenSet("A", ("a",))
    phi = identity_obj_map(A)
    aa = _fl("a", "a")
    nodes = {"n1": aa, "n2": aa}
    edges = {
        "swap": Edge("swap", "n1", "n2", kappa_embed(fmor_of("S", ("a", "a"), (1, 0)))),
        "stay": Edge("stay", "n1", "n2", UId(aa)),
    }
    goals = (Goal("diff", ("swap",), ("stay",)),)
    return Diagram("S", phi, nodes, edges, goals)
