"""Diagram containers and commutativity verdicts.

A diagram bundles a generator map, named objects of the lifted algebra, and
named edges carrying lift terms between them. Each edge's residue, its term
dissolved, is kept on the diagram: elaboration hands over a source file's,
and validation dissolves and checks any other edge once. A goal is a parallel
pair of edge paths; since dissolution is a strict monoidal functor, each side's
residue is one join of its edges' residues, and checking compares the two.
In the braided flavor the verdict is tri-state, because a pair of composites
can disagree as braids while still agreeing at the permutation level; the
symmetric and plain flavors collapse to a binary verdict.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Sequence

from .braid_core import Perm, braid_str, normalize_braid, perm_one_line
from .errors import BoundaryError, PathError, UnknownName, UnsupportedOp
from .free_cat import Flavor, FreeMor, Gen, Obj, display_braid, fmor_join, permutation_shadow, project_generator
from .functor_eval import FunctorSpec, check_interp
from .ualg import ObjMap, UCompose, UId, UMor, UObj, _dissolution, format_uobj, umor_shadow

EQUAL = "equal"
EQUAL_IN_S_ONLY = "equal_in_s_only"
NOT_EQUAL = "not_equal"

Verdict = str


class Edge(NamedTuple):
    name: str
    source: str
    target: str
    term: UMor


class Goal(NamedTuple):
    """A parallel pair of paths, each a tuple of edge names written
    outermost-first: the last name is applied first."""

    name: str
    left: tuple[str, ...]
    right: tuple[str, ...]


class _DiagramFields(NamedTuple):
    flavor: Flavor
    phi: ObjMap
    nodes: dict[str, UObj]
    edges: dict[str, Edge]
    goals: tuple[Goal, ...]
    functor: FunctorSpec | None = None
    interp: dict[str, Obj] | None = None


class Diagram(_DiagramFields):
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both check as a call does
    # attributes, and so outside equality and repr, that live as long as the
    # diagram: residues, edge name -> (the edge, its dissolved term), filled
    # by build_diagram or _edge_residue; sides, path -> (its edges, its
    # SideReport), filled by side_report; and nf_tables, the tables that
    # normalize_braid's tabled pass keeps for each strand count
    def __new__(cls, *args, **kwargs) -> Diagram:
        self = super().__new__(cls, *args, **kwargs)
        self.residues: dict[str, tuple[Edge, FreeMor]] = {}
        self.sides: dict[tuple[str, ...], tuple[tuple[Edge | None, ...], SideReport]] = {}
        self.nf_tables: dict = {}
        return self


def _edge_residue(d: Diagram, e: Edge) -> FreeMor:
    """The edge's term dissolved once per diagram, after checking it
    against its declared endpoints, unless elaboration stored it. An edge
    replaced in d.edges is dissolved afresh."""
    cached = d.residues.get(e.name)
    if cached is not None and cached[0] is e:
        return cached[1]
    for node in (e.source, e.target):
        if node not in d.nodes:
            raise UnknownName(f"edge {e.name}: no node named {node!r}")
    src, tgt, u = _dissolution(e.term, d.phi, d.flavor)
    for end, got, node in (("starts", src, e.source), ("ends", tgt, e.target)):
        if got != d.nodes[node]:
            raise BoundaryError(
                f"edge {e.name}: term {end} at {format_uobj(got)}, node {node} is {format_uobj(d.nodes[node])}"
            )
    d.residues[e.name] = (e, u)
    return u


def validate_diagram(d: Diagram) -> None:
    """Check every edge term against its declared endpoints, unless
    elaboration stored its residue, and every goal against its paths,
    dissolving each edge once. Nodes are expected in normalized form."""
    for e in d.edges.values():
        _edge_residue(d, e)
    for g in d.goals:
        if not g.left or not g.right:
            raise PathError(f"goal {g.name}: both sides need at least one edge")
        lends = path_endpoints(d, g.left)
        rends = path_endpoints(d, g.right)
        if lends != rends:
            raise BoundaryError(
                f"goal {g.name}: sides run {lends[0]} -> {lends[1]} and {rends[0]} -> {rends[1]}"
            )


def _edge(d: Diagram, name: str) -> Edge:
    e = d.edges.get(name)
    if e is None:
        raise UnknownName(f"no edge named {name!r}")
    return e


def path_endpoints(d: Diagram, path: Sequence[str]) -> tuple[str, str]:
    """Source and target node names of a nonempty path, checking junctions."""
    if not path:
        raise PathError("empty path has no endpoints")
    for late, early in zip(path, path[1:]):
        if _edge(d, late).source != _edge(d, early).target:
            raise PathError(
                f"cannot compose {late} after {early}: {early} ends at "
                f"{_edge(d, early).target}, {late} starts at {_edge(d, late).source}"
            )
    return _edge(d, path[-1]).source, _edge(d, path[0]).target


def compose_path(d: Diagram, path: Sequence[str], at: str | None = None) -> UMor:
    """The composite term of a path written outermost-first. An empty path
    is an identity and needs an explicit node to sit at."""
    if not path:
        if at is None:
            raise PathError("empty path needs a node")
        if at not in d.nodes:
            raise UnknownName(f"no node named {at!r}")
        return UId(d.nodes[at])
    path_endpoints(d, path)
    term = _edge(d, path[0]).term
    for name in path[1:]:
        term = UCompose(term, _edge(d, name).term)
    return term


def dissolve_path(d: Diagram, path: Sequence[str]) -> FreeMor:
    """The dissolution of compose_path(d, path), a nonempty path: one join,
    linear in the path, of its edges' residues in the order they apply. The
    join leaves its boundary unchecked; path_endpoints checks every junction."""
    path_endpoints(d, path)
    applied = [_edge_residue(d, d.edges[name]) for name in reversed(path)]
    return fmor_join(d.flavor, applied[0].source, applied[-1].target, [[(0, u.content)] for u in applied])


class SideReport(NamedTuple):
    """A goal side once every constraint is dissolved, as every command shows it: the
    word of its braid, the normal form that equality compares, and its permutation shadow."""

    word: str
    nf: str
    shadow: FreeMor

    @property
    def perm(self) -> Perm:
        return self.shadow.content


def side_report(d: Diagram, path: Sequence[str]) -> SideReport:
    """The view of a nonempty path's dissolution, made once per diagram:
    a path any of whose edges was replaced in d.edges is made afresh. The
    normal form is the Garside one in flavor B and the word otherwise,
    which spells the permutation; either is injective on parallel sides."""
    path = tuple(path)
    edges = tuple(map(d.edges.get, path))
    kept = d.sides.get(path)
    if kept is not None and all(map(operator.is_, kept[0], edges)):
        return kept[1]
    u = dissolve_path(d, path)
    word = braid_str(display_braid(u))
    nf = str(normalize_braid(u.content, tables=d.nf_tables)) if d.flavor == "B" else word
    report = SideReport(word, nf, permutation_shadow(u))
    d.sides[path] = (edges, report)
    return report


def _verdict(left: SideReport, right: SideReport) -> Verdict:
    if left.shadow.source != right.shadow.source or left.shadow.target != right.shadow.target:
        raise BoundaryError("equality of non-parallel morphisms")
    if left.nf == right.nf:
        return EQUAL
    if left.shadow == right.shadow:  # only braids can differ on equal permutations
        return EQUAL_IN_S_ONLY
    return NOT_EQUAL


def check_goal(d: Diagram, goal: Goal) -> Verdict:
    return _verdict(side_report(d, goal.left), side_report(d, goal.right))


class GoalReport(NamedTuple):
    goal: str
    verdict: Verdict
    left: SideReport
    right: SideReport
    projections: dict[Gen, tuple[Perm, Perm]]


def explain_goal(d: Diagram, goal: Goal) -> GoalReport:
    """Everything check_goal sees, plus per-generator self-permutations of
    the permutation shadows. A functor and interpretation declared in the
    diagram are checked."""
    left, right = side_report(d, goal.left), side_report(d, goal.right)
    if d.functor is not None and d.interp is not None:
        check_interp(d.functor, d.interp, d.phi)
    projections = {
        g: (project_generator(left.shadow, g), project_generator(right.shadow, g))
        for g in d.phi.target.names
    }
    return GoalReport(goal.name, _verdict(left, right), left, right, projections)


def report_json(rep: GoalReport) -> dict:
    """The stable machine shape. Permutations are 1-based one-line images,
    matching braid letter indexing."""

    def side(s: SideReport) -> dict:
        return {"word": s.word, "nf": s.nf, "perm": perm_one_line(s.perm)}

    return {
        "goal": rep.goal,
        "verdict": rep.verdict,
        "left": side(rep.left),
        "right": side(rep.right),
        "projections": {
            g: {"left": perm_one_line(l), "right": perm_one_line(r)}
            for g, (l, r) in rep.projections.items()
        },
    }


def diagram_shadow(d: Diagram) -> Diagram:
    """The same diagram with every braid forgotten down to its permutation.
    Verdicts of the shadow agree with the original when that was EQUAL or
    EQUAL_IN_S_ONLY."""
    if d.flavor == "M":
        raise UnsupportedOp("plain monoidal diagrams have no symmetric shadow")
    edges = {name: Edge(e.name, e.source, e.target, umor_shadow(e.term)) for name, e in d.edges.items()}
    return Diagram("S", d.phi, dict(d.nodes), edges, d.goals, None, d.interp)

