from __future__ import annotations

from pathlib import Path

import pytest

from cohcheck.braid_core import perm_one_line
from cohcheck.cli import build_diagram, parse_source
from cohcheck.diagram_check import (
    EQUAL,
    EQUAL_IN_S_ONLY,
    NOT_EQUAL,
    Diagram,
    Edge,
    Goal,
    check_goal,
    compose_path,
    diagram_shadow,
    dissolve_path,
    explain_goal,
    path_endpoints,
    report_json,
    validate_diagram,
)
from cohcheck.errors import BoundaryError, PathError, StructureError, UnknownName, UnsupportedOp
from cohcheck.free_cat import GenSet, fmor_equal
from cohcheck.functor_eval import lambda_eval, make_builtin_spec
from cohcheck.ualg import FreeLetter, UBraiding, UId, dissolve, identity_obj_map

from lib_extras import all_parallel_goals
from diagrams import (
    CYCLIC_LEFT,
    CYCLIC_RIGHT,
    braiding_naturality_diagram,
    cyclic_diagram,
    hexagon_diagram,
    naturality_diagram,
    unequal_diagram,
)

ALL = (hexagon_diagram, naturality_diagram, braiding_naturality_diagram, cyclic_diagram, unequal_diagram)
FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.coh"))


@pytest.fixture(params=ALL, ids=lambda f: f.__name__)
def diagram(request):
    return request.param()


def test_fixtures_validate(diagram):
    validate_diagram(diagram)


def test_single_edge_path_is_the_edge():
    d = hexagon_diagram()
    assert compose_path(d, ("e1",)) is d.edges["e1"].term


def test_empty_path_is_identity():
    d = hexagon_diagram()
    t = compose_path(d, (), at="s1")
    assert t == UId(d.nodes["s1"])
    with pytest.raises(PathError):
        compose_path(d, ())


def test_broken_path_names_the_junction():
    d = hexagon_diagram()
    with pytest.raises(PathError) as e:
        compose_path(d, ("e3", "e1"))
    assert "e3" in str(e.value) and "e1" in str(e.value)
    with pytest.raises(UnknownName):
        compose_path(d, ("nope",))


def test_path_endpoints():
    d = hexagon_diagram()
    assert path_endpoints(d, ("e3", "e2", "e1")) == ("s1", "s4")


def test_validate_rejects_wrong_endpoint():
    d = hexagon_diagram()
    bad = dict(d.edges)
    bad["e1"] = Edge("e1", "s1", "s3", d.edges["e1"].term)
    with pytest.raises(BoundaryError):
        validate_diagram(Diagram(d.flavor, d.phi, d.nodes, bad, ()))


def test_validate_rejects_unbalanced_goal():
    d = hexagon_diagram()
    with pytest.raises(BoundaryError):
        validate_diagram(
            Diagram(d.flavor, d.phi, d.nodes, d.edges, (Goal("g", ("e1",), ("e4",)),))
        )


def test_hexagon_commutes():
    d = hexagon_diagram()
    assert check_goal(d, d.goals[0]) == EQUAL
    assert check_goal(diagram_shadow(d), d.goals[0]) == EQUAL


def test_naturality_commutes():
    d = naturality_diagram()
    assert check_goal(d, d.goals[0]) == EQUAL
    rep = explain_goal(d, d.goals[0])
    assert rep.left.word == "s2"
    assert rep.right.word == "s2"


def test_braiding_naturality_is_permutation_only():
    d = braiding_naturality_diagram()
    rep = explain_goal(d, d.goals[0])
    assert rep.verdict == EQUAL_IN_S_ONLY
    assert rep.left.word == "s2 s1 s3 s2 s2"
    assert rep.right.word == "s2 s1 s3"
    assert check_goal(diagram_shadow(d), d.goals[0]) == EQUAL


def test_cyclic_words_and_projections():
    d = cyclic_diagram()
    rep = explain_goal(d, d.goals[0])
    assert rep.verdict == EQUAL_IN_S_ONLY
    assert rep.left.word == " ".join(f"s{i}" for i in CYCLIC_LEFT)
    assert rep.right.word == " ".join(f"s{i}" for i in CYCLIC_RIGHT)
    assert perm_one_line(rep.left.perm) == [7, 1, 3, 5, 8, 2, 4, 6]
    for g in ("a", "b"):
        left, right = rep.projections[g]
        assert perm_one_line(left) == [4, 1, 2, 3]
        assert perm_one_line(right) == [4, 1, 2, 3]


def test_unequal_square():
    d = unequal_diagram()
    assert check_goal(d, d.goals[0]) == NOT_EQUAL


def test_goal_is_symmetric(diagram):
    for g in diagram.goals:
        flipped = Goal(g.name, g.right, g.left)
        assert check_goal(diagram, g) == check_goal(diagram, flipped)


def test_equal_goals_project_equal(diagram):
    for g in diagram.goals:
        rep = explain_goal(diagram, g)
        if rep.verdict in (EQUAL, EQUAL_IN_S_ONLY):
            for left, right in rep.projections.values():
                assert left == right


def test_kappa_image_verdict_matches_direct_comparison():
    d = cyclic_diagram()
    g = d.goals[0]
    lv = dissolve(compose_path(d, g.left), d.phi, d.flavor)
    rv = dissolve(compose_path(d, g.right), d.phi, d.flavor)
    assert fmor_equal(lv, rv) == (check_goal(d, g) == EQUAL)


def test_explain_with_identity_functor():
    d = cyclic_diagram()
    F = make_builtin_spec("identity", d.phi.source, "B")
    interp = {g: (g,) for g in d.phi.target.names}
    g = d.goals[0]
    left, right = (lambda_eval(compose_path(d, side), F, interp, d.phi) for side in (g.left, g.right))
    assert left is not None and right is not None
    assert left.content.letters == CYCLIC_LEFT
    assert not fmor_equal(left, right)


def test_json_shape():
    d = cyclic_diagram()
    payload = report_json(explain_goal(d, d.goals[0]))
    assert sorted(payload) == ["goal", "left", "projections", "right", "verdict"]
    assert payload["goal"] == "cyc"
    assert payload["verdict"] == "equal_in_s_only"
    assert sorted(payload["left"]) == ["nf", "perm", "word"]
    assert payload["left"]["perm"] == [7, 1, 3, 5, 8, 2, 4, 6]
    assert payload["projections"]["a"]["left"] == [4, 1, 2, 3]
    assert all(isinstance(v, int) for v in payload["right"]["perm"])


def test_shadow_refuses_plain_flavor():
    d = unequal_diagram()
    assert check_goal(diagram_shadow(d), d.goals[0]) == NOT_EQUAL
    A = GenSet("A", ("a",))
    m = Diagram("M", identity_obj_map(A), {}, {}, ())
    with pytest.raises(UnsupportedOp):
        diagram_shadow(m)


@pytest.mark.parametrize("flavor", ["B", "S"])
def test_non_parallel_sides_are_refused(flavor):
    """A goal of an unvalidated diagram whose sides end at different
    objects: an identity on [a b] against the braiding [a b] -> [b a]."""
    ab, ba = (FreeLetter("a"), FreeLetter("b")), (FreeLetter("b"), FreeLetter("a"))
    edges = {
        "stay": Edge("stay", "ab", "ab", UId(ab)),
        "swap": Edge("swap", "ab", "ba", UBraiding(ab[:1], ab[1:])),
    }
    phi = identity_obj_map(GenSet("AB", ("a", "b")))
    d = Diagram(flavor, phi, {"ab": ab, "ba": ba}, edges, (Goal("g", ("stay",), ("swap",)),))
    for decide in (check_goal, explain_goal):
        with pytest.raises(BoundaryError, match="^equality of non-parallel morphisms$"):
            decide(d, d.goals[0])
    with pytest.raises(BoundaryError):
        validate_diagram(d)


def test_parallel_goal_enumeration():
    d = hexagon_diagram()
    goals = all_parallel_goals(d)
    pairs = {(g.left, g.right) for g in goals}
    assert (("e3", "e2", "e1"), ("e6", "e5", "e4")) in pairs or (
        ("e6", "e5", "e4"),
        ("e3", "e2", "e1"),
    ) in pairs
    for g in goals:
        assert check_goal(d, g) == EQUAL


def test_parallel_goal_cap():
    d = cyclic_diagram()
    with pytest.raises(StructureError):
        all_parallel_goals(d, max_edges=3)


# -- residues from edge residues ------------------------------------------------


def _every_diagram():
    for build in ALL:
        yield build.__name__, build()
    for path in FIXTURES:
        yield path.name, build_diagram(parse_source(path.read_text(encoding="utf-8")))


def test_side_residue_is_the_dissolved_composite():
    for name, d in _every_diagram():
        for g in d.goals:
            for side in (g.left, g.right):
                u = dissolve_path(d, side)
                v = dissolve(compose_path(d, side), d.phi, d.flavor)
                assert (u.flavor, u.source, u.target, u.content) == (v.flavor, v.source, v.target, v.content), (
                    name, g.name, side)


@pytest.mark.parametrize("build", ALL, ids=lambda f: f.__name__)
def test_explain_without_validation_matches_validated(build):
    lazy, checked = build(), build()
    validate_diagram(checked)
    assert len(checked.residues) == len(checked.edges)
    assert not lazy.residues
    # the residues are a cache, outside equality and repr
    assert lazy == checked and not lazy != checked
    assert "residues" not in repr(checked)
    for g in lazy.goals:
        assert explain_goal(lazy, g) == explain_goal(checked, g)


def test_diagram_replace_and_make_start_with_no_residues():
    d = unequal_diagram()
    validate_diagram(d)
    for copy in (d._replace(goals=d.goals), Diagram._make(d)):
        assert copy == d and copy.residues == {}
        assert check_goal(copy, copy.goals[0]) == NOT_EQUAL
        assert len(copy.residues) == len(copy.edges)


def test_replaced_edge_is_dissolved_afresh():
    d = unequal_diagram()
    g = d.goals[0]
    assert check_goal(d, g) == NOT_EQUAL
    stay = d.edges["stay"]
    d.edges["swap"] = Edge("swap", stay.source, stay.target, stay.term)
    assert check_goal(d, g) == EQUAL
