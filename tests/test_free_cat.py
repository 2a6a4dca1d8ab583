from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcheck.braid_core import BraidWord, compose_perm, parse_braid, perm_one_line
from cohcheck.errors import BoundaryError, FlavorError, StructureError, UnknownName, UnsupportedOp
from cohcheck.free_cat import (
    FreeMor,
    FLAVORS,
    FreeMor2,
    GenSet,
    Flavor,
    flatten_mu,
    fmor2_shadow,
    fmor_braiding,
    fmor_compose,
    fmor_equal,
    fmor_id,
    fmor_inverse,
    fmor_join,
    fmor_of,
    fmor_tensor,
    permutation_shadow,
    project_generator,
    underlying_permutation,
)

from lib_extras import fmor2_compose, fmor2_id, fmor2_tensor, unit_embed
from strategies import fmor2s, fmors, objects

AB = GenSet("AB", ("a", "b"))


# -- construction and validation ----------------------------------------------


def test_unit_embed():
    assert unit_embed(AB, "a") == ("a",)
    assert unit_embed(AB, "b") == ("b",)
    with pytest.raises(UnknownName):
        unit_embed(AB, "x")


def test_genset_rejects_duplicates():
    with pytest.raises(StructureError):
        GenSet("bad", ("a", "a"))


def test_genset_replace_and_make_check_as_a_call_does():
    g = GenSet("A", ("a",))
    assert g._replace(names=("a", "b")) == GenSet("A", ("a", "b"))
    assert type(GenSet._make(g)) is GenSet
    with pytest.raises(StructureError):
        g._replace(names=("a", "a"))
    with pytest.raises(StructureError):
        GenSet._make(("A", ("",)))


def test_freemor_validates_target():
    with pytest.raises(StructureError):
        FreeMor("S", ("a", "b"), ("a", "b"), (1, 0))
    # flavor M carries no content and is an identity
    with pytest.raises(StructureError):
        FreeMor("M", ("a",), ("b",), None)
    FreeMor("M", ("a", "b"), ("a", "b"), None)


def test_mixed_flavor_rejected():
    u = fmor_id("S", ("a",))
    v = fmor_id("B", ("a",))
    with pytest.raises(FlavorError):
        fmor_compose(u, v)
    with pytest.raises(FlavorError):
        fmor_tensor(u, v)


def test_equality_needs_parallel():
    u = fmor_id("S", ("a",))
    v = fmor_id("S", ("b",))
    with pytest.raises(BoundaryError):
        fmor_equal(u, v)


def _validated(u):
    """u, after checking that it is the record the validating constructor
    builds from its parts; tuple equality alone would accept a plain tuple."""
    assert type(u) in (FreeMor, FreeMor2)
    assert u == type(u)(*u)
    return u


@pytest.mark.parametrize("seed", range(4))
def test_trusted_constructors_match_validated(seed):
    # fmor_id, fmor_braiding, fmor_of, fmor_compose, fmor_tensor,
    # fmor_inverse, permutation_shadow, fmor2_shadow and flatten_mu skip
    # the records' checks: each result must be what the validating
    # constructor accepts from the same parts
    rng = random.Random(seed)

    def word() -> tuple:
        labels = ("a", "b", "c", "d", ("a", "b"), ("c",))
        return tuple(rng.choice(labels) for _ in range(rng.randint(0, 6)))

    for _ in range(25):
        x, y = word(), word()
        for flavor in FLAVORS:
            u = _validated(fmor_id(flavor, x))
            assert (u.flavor, u.source, u.target) == (flavor, x, x)
            assert underlying_permutation(u) == tuple(range(len(x)))
            _validated(permutation_shadow(u))
            _validated(flatten_mu(FreeMor2(flavor, (x,), (x,), fmor_id(flavor, ("b",)).content, (u,))))
        for flavor in ("S", "B"):
            u = _validated(fmor_braiding(x, y, flavor))
            assert (u.source, u.target) == (x + y, y + x)
            v = _validated(fmor_inverse(u))
            _validated(fmor_compose(v, u))
            _validated(fmor_tensor(u, v))
            _validated(permutation_shadow(u))
            outer = (1, 0) if flavor == "S" else BraidWord(2, (rng.choice((1, -1)),))
            u2 = _validated(FreeMor2(flavor, (x + y, y), (y, y + x), outer, (u, fmor_id(flavor, y))))
            _validated(fmor2_shadow(u2))
            _validated(flatten_mu(u2))
        n = len(x)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randint(0, 8)) if n > 1))
        u = _validated(fmor_of("B", x, w))
        assert (u.flavor, u.source) == ("B", x)
        assert u.content is w
        _validated(fmor_inverse(u))
        _validated(permutation_shadow(u))
    for n in (2, 4):  # too few strands, and too many
        with pytest.raises(StructureError, match="braid word on the source strands"):
            fmor_of("B", ("a", "b", "c"), BraidWord(n, (1,)))
    with pytest.raises(FlavorError):
        fmor_id("X", ("a",))
    with pytest.raises(FlavorError):
        fmor_braiding(("a",), ("b",), "X")
    with pytest.raises(FlavorError):
        fmor_join("X", ("a",), ("a",), [])


def test_flavor_s_content_is_a_plain_tuple():
    # a BraidWord is a tuple of two entries: it must not pass for a
    # permutation of two points
    ab, blocks = ("a", "b"), (("a",), ("b",))
    with pytest.raises(StructureError, match="flavor S needs a permutation"):
        FreeMor("S", ab, ab, BraidWord(2, ()))
    inners = (fmor_id("S", ("a",)), fmor_id("S", ("b",)))
    with pytest.raises(StructureError, match="flavor S needs a permutation of the source length"):
        FreeMor2("S", blocks, blocks, BraidWord(2, ()), inners)
    with pytest.raises(StructureError, match="flavor S needs a permutation"):
        FreeMor("S", ab, ab, [0, 1])
    FreeMor("S", ab, ab, (0, 1))


_AB, _BLOCKS = ("a", "b"), (("a",), ("b",))
_INNERS = (fmor_id("S", ("a",)), fmor_id("S", ("b",)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: FreeMor("S", _AB, _AB, ("x", 1)),
        lambda: FreeMor("S", _AB, _AB, (0, 1.0)),
        lambda: FreeMor2("S", _BLOCKS, _BLOCKS, (0, 1.0), (fmor_id("S", ("a",)), fmor_id("S", ("b",)))),
        lambda: BraidWord(2, ("x",)),
        lambda: BraidWord("2", ()),
        lambda: BraidWord(2, (1.0,)),
        # a field that holds a sequence must be a tuple, or the record is
        # not hashable
        lambda: BraidWord(2, [1]),
        lambda: BraidWord(2, 5),
        lambda: FreeMor("S", ["a", "b"], _AB, (0, 1)),
        lambda: FreeMor("S", _AB, ["a", "b"], (0, 1)),
        lambda: FreeMor("S", ["a"], ["a"], (0,)),
        lambda: FreeMor("S", 5, 5, ()),
        lambda: FreeMor2("S", list(_BLOCKS), _BLOCKS, (0, 1), _INNERS),
        lambda: FreeMor2("S", _BLOCKS, list(_BLOCKS), (0, 1), _INNERS),
        lambda: FreeMor2("S", (["a"], ("b",)), _BLOCKS, (0, 1), _INNERS),
        lambda: FreeMor2("S", _BLOCKS, (("a",), ["b"]), (0, 1), _INNERS),
        lambda: FreeMor2("S", _BLOCKS, _BLOCKS, (0, 1), list(_INNERS)),
        lambda: fmor_of("S", ["a", "b"], (1, 0)),
        lambda: fmor_of("B", ["a", "b"], BraidWord(2, (1,))),
        lambda: FreeMor2("S", (("a",),), (("a",),), (0,), (("S", ("a",), ("a",), (0,)),)),
    ],
    ids=[
        "perm-of-str", "perm-of-float", "outer-perm-of-float", "letter-str", "strands-str", "letter-float",
        "letters-list", "letters-int", "source-list", "target-list", "boundary-lists", "boundary-ints",
        "source2-list", "target2-list", "source-block-list", "target-block-list", "inners-list",
        "perm-source-list", "braid-source-list", "inner-tuple",
    ],
)
def test_wrong_element_types_are_structure_errors(build):
    # a CohError, so that a library caller sees the same error as for a
    # value out of range, not a TypeError from a comparison
    with pytest.raises(StructureError):
        build()


_NEED_PERM = "flavor S needs a permutation of the source length"


@pytest.mark.parametrize(
    "flavor, content, error, message",
    [("S", p, StructureError, _NEED_PERM) for p in [(0,), (0, 1, 2), (0, 0), (1, 2), [1, 0], (0, 1.0), BraidWord(2, (1,))]]
    + [
        ("B", BraidWord(3, (1,)), StructureError, "flavor B needs a braid word on the source strands"),
        ("B", (1, 0), StructureError, "flavor B needs a braid word on the source strands"),
        ("M", (0, 1), StructureError, "flavor M admits only identities"),
        ("X", (1, 0), FlavorError, "unknown flavor 'X'"),
    ],
    ids=["short", "long", "repeat", "out-of-range", "list", "float", "braid-word",
         "B-strands", "B-tuple", "M-content", "unknown-flavor"],
)
def test_fmor_of_perm_checks_its_permutation(flavor, content, error, message):
    # fmor_of, FreeMor, and FreeMor2's outer over one-letter blocks make
    # the one content check: each raises the same error for a bad content
    for build in (
        lambda: fmor_of(flavor, _AB, content),
        lambda: FreeMor(flavor, _AB, _AB, content),
        lambda: FreeMor2(flavor, _BLOCKS, _BLOCKS, content, _INNERS),
    ):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message
    assert fmor_of("S", _AB, (1, 0)) == FreeMor("S", _AB, ("b", "a"), (1, 0))


def test_records_are_frozen():
    u = fmor_braiding(("a",), ("b",), "B")
    u2 = FreeMor2("S", (("a",),), (("a",),), (0,), (fmor_id("S", ("a",)),))
    for record, field in ((u, "target"), (u2, "outer")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_hash_by_value():
    u = fmor_braiding(("a",), ("b",), "B")
    same = FreeMor("B", ("a", "b"), ("b", "a"), BraidWord(2, (1,)))
    assert u == same and u is not same and hash(u) == hash(same)
    assert {u, same} == {u} and {u: 1}[same] == 1
    assert u != fmor_inverse(u) and fmor_inverse(u) not in {u}
    assert len({fmor_id("S", ("a", "b")), FreeMor("S", ("a", "b"), ("a", "b"), (0, 1))}) == 1


def test_record_reprs():
    u = fmor_id("B", ("a",))
    assert repr(u) == "FreeMor(flavor='B', source=('a',), target=('a',), content=BraidWord(n=1, letters=()))"
    u2 = FreeMor2("S", (("a",),), (("a",),), (0,), (fmor_id("S", ("a",)),))
    assert repr(u2) == (
        "FreeMor2(flavor='S', source=(('a',),), target=(('a',),), outer=(0,),"
        " inners=(FreeMor(flavor='S', source=('a',), target=('a',), content=(0,)),))"
    )


# -- frozen composites --------------------------------------------------------


def test_swap_involution():
    swap = fmor_braiding(("a",), ("b",), "S")
    back = fmor_braiding(("b",), ("a",), "S")
    assert fmor_compose(back, swap) == fmor_id("S", ("a", "b"))


def test_one_step_block_braiding():
    # braiding two strands past one in a single step
    u = fmor_braiding(("a", "a"), ("a",), "B")
    assert u.content.letters == (1, 2)


def test_two_step_composite_word():
    # beta;1 after 1;beta on three strands gives the same block move
    first = fmor_tensor(fmor_id("B", ("a",)), fmor_braiding(("a",), ("a",), "B"))
    second = fmor_tensor(fmor_braiding(("a",), ("a",), "B"), fmor_id("B", ("a",)))
    comp = fmor_compose(second, first)
    assert comp.content.letters == (1, 2)
    assert fmor_equal(comp, fmor_braiding(("a", "a"), ("a",), "B"))


def test_tensor_shifts_indices():
    s1 = fmor_braiding(("a",), ("b",), "B")
    both = fmor_tensor(s1, s1)
    assert both.content == BraidWord(4, (1, 3))
    assert both.source == ("a", "b", "a", "b")
    assert both.target == ("b", "a", "b", "a")


def test_braiding_empty_block():
    u = fmor_braiding((), ("a",), "B")
    assert u == fmor_id("B", ("a",))
    assert fmor_braiding((), ("a",), "S") == fmor_id("S", ("a",))


def test_braiding_rejected_in_m():
    with pytest.raises(UnsupportedOp):
        fmor_braiding(("a",), ("b",), "M")


def test_equal_braids_on_six_strands():
    x = ("a", "b", "c", "a", "b", "c")
    u = fmor_of("B", x, parse_braid("s3 s4 s2", 6))
    v = fmor_of("B", x, parse_braid("s3 s2 s4", 6))
    assert u.target == v.target
    assert fmor_equal(u, v)


def test_unequal_braids_equal_permutations():
    x = ("a", "b", "a", "b")
    u = fmor_of("B", x, parse_braid("s3 s1 s2", 4))
    v = fmor_of("B", x, parse_braid("s2 s2 s1 s3 s2", 4))
    assert u.target == v.target
    assert not fmor_equal(u, v)
    assert fmor_equal(permutation_shadow(u), permutation_shadow(v))


def test_inverse_cancels():
    u = fmor_of("B", ("a", "b", "a"), parse_braid("s1 s2^-1 s1", 3))
    assert fmor_equal(fmor_compose(u, fmor_inverse(u)), fmor_id("B", u.target))
    assert fmor_equal(fmor_compose(fmor_inverse(u), u), fmor_id("B", u.source))


# -- projections --------------------------------------------------------------


def test_projection_of_identity():
    u = fmor_id("S", ("a", "b", "a", "b"))
    assert project_generator(u, "a") == (0, 1)
    assert project_generator(u, "b") == (0, 1)


def test_projection_of_swapped_as():
    u = fmor_of("S", ("a", "b", "a", "b"), (2, 1, 0, 3))
    assert project_generator(u, "a") == (1, 0)
    assert project_generator(u, "b") == (0, 1)


def test_projection_cyclic_on_eight():
    # interleaving a^4 b^4 into (ab)^4 cycles each label class
    p = (6, 0, 2, 4, 7, 1, 3, 5)
    u = fmor_of("S", ("a", "a", "a", "a", "b", "b", "b", "b"), p)
    assert u.target == ("a", "b", "a", "b", "a", "b", "a", "b")
    assert project_generator(u, "a") == (3, 0, 1, 2)
    assert perm_one_line(project_generator(u, "a")) == [4, 1, 2, 3]
    assert project_generator(u, "b") == (3, 0, 1, 2)


def test_projection_errors():
    with pytest.raises(UnsupportedOp):
        project_generator(fmor_id("B", ("a",)), "a")


def _label_preserving(x: tuple[str, ...]):
    """All permutations p of the positions of x with x[p[i]] == x[i]."""
    pos = {}
    for i, lab in enumerate(x):
        pos.setdefault(lab, []).append(i)
    labs = sorted(pos)
    for parts in itertools.product(*(itertools.permutations(pos[lab]) for lab in labs)):
        p = [None] * len(x)
        for lab, part in zip(labs, parts):
            for i, j in zip(pos[lab], part):
                p[i] = j
        yield tuple(p)


def test_projections_determine_permutation():
    # joint projections are injective on label-preserving permutations
    for length in range(7):
        for x in itertools.product("ab", repeat=length):
            seen = {}
            for p in _label_preserving(x):
                u = fmor_of("S", x, p)
                key = (project_generator(u, "a"), project_generator(u, "b"))
                assert key not in seen or seen[key] == p
                seen[key] = p


@given(st.data())
def test_projection_functorial(data):
    v = data.draw(fmors(flavor="S"))
    u = data.draw(fmors(flavor="S", source=v.target))
    uv = fmor_compose(u, v)
    for g in ("a", "b"):
        assert project_generator(uv, g) == compose_perm(
            project_generator(u, g), project_generator(v, g)
        )


# -- category laws ------------------------------------------------------------


@given(st.data())
def test_identity_laws(data):
    u = data.draw(fmors())
    for r in (
        fmor_compose(fmor_id(u.flavor, u.target), u),
        fmor_compose(u, fmor_id(u.flavor, u.source)),
        fmor_tensor(u, fmor_id(u.flavor, ())),
        fmor_tensor(fmor_id(u.flavor, ()), u),
    ):
        assert r == u
        # composites and tensors are not rechecked when built; they must pass
        assert FreeMor(r.flavor, r.source, r.target, r.content) == r


@given(st.data())
def test_interchange(data):
    flavor = data.draw(st.sampled_from(("M", "S", "B")))
    v = data.draw(fmors(flavor=flavor))
    u = data.draw(fmors(flavor=flavor, source=v.target))
    vv = data.draw(fmors(flavor=flavor))
    uu = data.draw(fmors(flavor=flavor, source=vv.target))
    lhs = fmor_compose(fmor_tensor(u, uu), fmor_tensor(v, vv))
    rhs = fmor_tensor(fmor_compose(u, v), fmor_compose(uu, vv))
    assert fmor_equal(lhs, rhs)
    for r in (fmor_tensor(u, uu), fmor_tensor(v, vv), lhs, fmor_compose(u, v), fmor_compose(uu, vv), rhs):
        assert FreeMor(r.flavor, r.source, r.target, r.content) == r


@given(st.data())
def test_braiding_natural(data):
    flavor = data.draw(st.sampled_from(("S", "B")))
    u = data.draw(fmors(flavor=flavor))
    v = data.draw(fmors(flavor=flavor))
    lhs = fmor_compose(fmor_braiding(u.target, v.target, flavor), fmor_tensor(u, v))
    rhs = fmor_compose(fmor_tensor(v, u), fmor_braiding(u.source, v.source, flavor))
    assert fmor_equal(lhs, rhs)


@given(fmors())
def test_shadow_forgets_braiding(u):
    assert underlying_permutation(permutation_shadow(u)) == underlying_permutation(u)


@st.composite
def _rows_and_fold(draw, flavor):
    """Rows of (label offset, content) moves, each row a tensor of moves and
    identity gaps across the width, with the binary fold that states them."""
    fold = fmor_id(flavor, tuple(draw(st.lists(st.sampled_from("ab"), min_size=2, max_size=6))))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        labels, row, moves = fold.target, fmor_id(flavor, ()), []
        while len(row.source) < len(labels):
            off = len(row.source)
            u = draw(fmors(flavor=flavor, source=labels[off : draw(st.integers(off + 1, len(labels)))]))
            if draw(st.sampled_from((True, True, False))):
                moves.append((off, u.content))
            else:
                u = fmor_id(flavor, u.source)
            row = fmor_tensor(row, u)
        rows.append(moves)
        fold = fmor_compose(row, fold)
    return rows, fold


@pytest.mark.parametrize("flavor", FLAVORS)
@settings(max_examples=50)
@given(data=st.data())
def test_join_is_the_fold_of_its_rows(flavor, data):
    rows, fold = data.draw(_rows_and_fold(flavor))
    joined = fmor_join(flavor, fold.source, fold.target, rows)
    # the same record, so B's letters come in the fold's order
    assert type(joined) is FreeMor and joined == fold


# -- depth two ----------------------------------------------------------------


def test_flatten_identity():
    blocks = (("a", "a"), ("b",), ())
    assert flatten_mu(fmor2_id("B", blocks)) == fmor_id("B", ("a", "a", "b"))


def test_flatten_outer_block_move():
    u = FreeMor2(
        "B",
        (("a", "a"), ("a",)),
        (("a",), ("a", "a")),
        BraidWord(2, (1,)),
        (fmor_id("B", ("a", "a")), fmor_id("B", ("a",))),
    )
    assert flatten_mu(u).content.letters == (1, 2)


def test_flatten_inner_block_sum():
    u = FreeMor2(
        "B",
        (("a", "a"), ("b",)),
        (("a", "a"), ("b",)),
        BraidWord(2, ()),
        (fmor_of("B", ("a", "a"), BraidWord(2, (1,))), fmor_id("B", ("b",))),
    )
    assert flatten_mu(u).content.letters == (1,)


def test_fmor2_validates_blocks():
    with pytest.raises(StructureError):
        FreeMor2(
            "B",
            (("a",), ("b",)),
            (("a",), ("b",)),
            BraidWord(2, (1,)),  # outer swaps blocks but the target does not
            (fmor_id("B", ("a",)), fmor_id("B", ("b",))),
        )


@given(st.data())
def test_flatten_functorial(data):
    flavor = data.draw(st.sampled_from(("M", "S", "B")))
    v = data.draw(fmor2s(flavor=flavor))
    u = data.draw(fmor2s(flavor=flavor, source=v.target))
    comp = fmor2_compose(u, v)
    assert fmor_equal(flatten_mu(comp), fmor_compose(flatten_mu(u), flatten_mu(v)))


@given(st.data())
def test_flatten_monoidal(data):
    flavor = data.draw(st.sampled_from(("M", "S", "B")))
    u = data.draw(fmor2s(flavor=flavor))
    v = data.draw(fmor2s(flavor=flavor))
    both = fmor2_tensor(u, v)
    assert fmor_equal(flatten_mu(both), fmor_tensor(flatten_mu(u), flatten_mu(v)))


@given(st.data())
def test_flatten_of_identity_blocks(data):
    flavor = data.draw(st.sampled_from(("M", "S", "B")))
    m = data.draw(st.integers(0, 3))
    blocks = tuple(data.draw(objects(max_len=3)) for _ in range(m))
    assert flatten_mu(fmor2_id(flavor, blocks)) == fmor_id(
        flavor, tuple(g for b in blocks for g in b)
    )
