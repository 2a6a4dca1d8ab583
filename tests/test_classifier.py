"""The classifier of a generator set: the universal algebra over its
identity map, in which every adjoined isomorphism dissolves to an identity.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohcheck.errors import BoundaryError, FlavorError
from cohcheck.free_cat import (
    GenSet,
    Tuple2,
    concat_blocks,
    flatten_mu,
    fmor_compose,
    fmor_equal,
    fmor_id,
    fmor_of,
)
from cohcheck.ualg import (
    FreeLetter,
    PhiLetter,
    UCompose,
    UId,
    UMor,
    UObj,
    UPhiFree,
    UPhiQ,
    UPhiQInv,
    UTensor,
    dissolve,
    identity_obj_map,
    phi_object,
    uobj_dissolve,
    validate_umor,
    zeta,
    zeta_flat,
)

from strategies import LABELS, fmor2s, fmors, objects, partitions
from ualg_checks import umor_equal

PHI = identity_obj_map(GenSet("AB", LABELS))


def blocks_of(x: UObj) -> Tuple2:
    """The words that the letters of a normalized object stand for."""
    return tuple((l.name,) if isinstance(l, FreeLetter) else l.word for l in x)


def theta_flat(blocks: Tuple2) -> UMor:
    """The canonical map from the one-letter regrouping of the underlying
    word back to the given grouping."""
    singles = tuple((g,) for g in concat_blocks(blocks))
    return UCompose(UPhiQInv(blocks), UPhiQ(singles))


@st.composite
def classifier_terms(draw) -> tuple[str, UMor]:
    """A flavor and a random composable chain of classifier generators."""
    flavor = draw(st.sampled_from(("M", "S", "B")))
    m = draw(st.integers(0, 3))
    term: UMor = UId(phi_object(tuple(draw(objects(max_len=3)) for _ in range(m)), PHI))
    for _ in range(draw(st.integers(0, 4))):
        t = blocks_of(validate_umor(term, PHI, flavor)[1])
        kind = draw(st.sampled_from(("free", "adj", "adjinv", "id")))
        if kind == "free":
            nxt: UMor = UPhiFree(draw(fmor2s(flavor=flavor, source=t)))
        elif kind == "adjinv" and len(t) == 1:
            nxt = UPhiQInv(draw(partitions(t[0])))
        elif kind == "adj":
            nxt = UPhiQ(t)
        else:
            nxt = UId(phi_object(t, PHI))
        term = UCompose(nxt, term)
    return flavor, term


# -- units and boundaries -----------------------------------------------------


def test_unit_objects():
    assert phi_object((("a", "b"),), PHI) == (PhiLetter(("a", "b")),)
    assert phi_object((("a",), ("b",)), PHI) == (FreeLetter("a"), FreeLetter("b"))
    assert phi_object((), PHI) == ()
    assert uobj_dissolve(phi_object((("a",), (), ("b", "a")), PHI), PHI) == ("a", "b", "a")
    swap = fmor_of("S", ("a", "b"), (1, 0))
    assert validate_umor(zeta(swap), PHI, "S") == ((PhiLetter(("a", "b")),), (PhiLetter(("b", "a")),))
    assert validate_umor(zeta_flat(swap), PHI, "S") == (
        (FreeLetter("a"), FreeLetter("b")),
        (FreeLetter("b"), FreeLetter("a")),
    )


def test_adjoined_boundary():
    singles = (FreeLetter("a"), FreeLetter("b"))
    merged = (PhiLetter(("a", "b")),)
    assert validate_umor(UPhiQ((("a",), ("b",))), PHI, "S") == (singles, merged)
    assert validate_umor(UPhiQInv((("a",), ("b",))), PHI, "S") == (merged, singles)


def test_compose_validates_boundary():
    with pytest.raises(BoundaryError, match="^term: middle boundary mismatch"):
        validate_umor(UCompose(UId((FreeLetter("a"),)), UId((FreeLetter("b"),))), PHI, "S")
    braided = zeta(fmor_id("B", ("a",)))
    with pytest.raises(FlavorError, match="^term.first: flavor B inside a S term"):
        validate_umor(UCompose(UId((FreeLetter("a"),)), braided), PHI, "S")


def test_equal_needs_parallel():
    with pytest.raises(BoundaryError):
        umor_equal(UId((FreeLetter("a"),)), UId((FreeLetter("b"),)), PHI, "S")
    with pytest.raises(FlavorError):
        umor_equal(zeta(fmor_id("B", ())), UId(()), PHI, "S")


# -- evaluation ---------------------------------------------------------------


def test_adjoined_evaluates_to_identity():
    blocks = (("a", "a"), ("b",))
    assert dissolve(UPhiQ(blocks), PHI, "B") == fmor_id("B", ("a", "a", "b"))
    assert dissolve(UPhiQInv(blocks), PHI, "B") == fmor_id("B", ("a", "a", "b"))


@given(fmors())
def test_triangle_one_block(u):
    assert dissolve(zeta(u), PHI, u.flavor) == u


@given(fmors())
def test_triangle_singletons(u):
    assert dissolve(zeta_flat(u), PHI, u.flavor) == u


# -- defining relations -------------------------------------------------------


@given(st.data())
def test_adjoined_natural(data):
    # gluing commutes with free morphisms of the block algebra
    u2 = data.draw(fmor2s())
    left = UCompose(UPhiQ(u2.target), UPhiFree(u2))
    right = UCompose(zeta(flatten_mu(u2)), UPhiQ(u2.source))
    assert umor_equal(left, right, PHI, u2.flavor)


@given(st.data())
def test_adjoined_associative(data):
    # gluing twice equals gluing the combined grouping once
    fl = data.draw(st.sampled_from(("M", "S", "B")))
    w1 = data.draw(objects(max_len=4))
    w2 = data.draw(objects(max_len=4))
    b1 = data.draw(partitions(w1))
    b2 = data.draw(partitions(w2))
    left = UCompose(UPhiQ((w1, w2)), UTensor(UPhiQ(b1), UPhiQ(b2)))
    right = UPhiQ(b1 + b2)
    assert umor_equal(left, right, PHI, fl)


def test_adjoined_normalized():
    # at a one-block tuple the adjoined isomorphism is an identity
    for fl in ("M", "S", "B"):
        w = ("a", "b", "a")
        assert umor_equal(UPhiQ((w,)), UId(phi_object((w,), PHI)), PHI, fl)


@given(st.data())
def test_adjoined_invertible(data):
    fl = data.draw(st.sampled_from(("M", "S", "B")))
    blocks = data.draw(partitions(data.draw(objects())))
    q = UPhiQ(blocks)
    qi = UPhiQInv(blocks)
    assert umor_equal(UCompose(q, qi), UId(phi_object((concat_blocks(blocks),), PHI)), PHI, fl)
    assert umor_equal(UCompose(qi, q), UId(phi_object(blocks, PHI)), PHI, fl)


# -- the one-letter regrouping map ----------------------------------------------


def test_regroup_at_singletons():
    th = theta_flat((("a",), ("b",)))
    assert fmor_equal(dissolve(th, PHI, "B"), fmor_id("B", ("a", "b")))


def test_regroup_at_merged_block():
    assert dissolve(theta_flat((("a", "b"),)), PHI, "S") == fmor_id("S", ("a", "b"))


def test_regroup_empty():
    assert dissolve(theta_flat(()), PHI, "M") == fmor_id("M", ())


@given(classifier_terms())
def test_regroup_natural(flavored):
    fl, u = flavored
    src, tgt = validate_umor(u, PHI, fl)
    left = UCompose(u, theta_flat(blocks_of(src)))
    right = UCompose(theta_flat(blocks_of(tgt)), zeta_flat(dissolve(u, PHI, fl)))
    assert umor_equal(left, right, PHI, fl)


@given(classifier_terms())
def test_evaluation_functorial(flavored):
    fl, v = flavored
    u = UPhiQ(blocks_of(validate_umor(v, PHI, fl)[1]))
    assert dissolve(UCompose(u, v), PHI, fl) == fmor_compose(dissolve(u, PHI, fl), dissolve(v, PHI, fl))
