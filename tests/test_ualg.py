from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohcheck.braid_core import block_braid, braid_equal, parse_braid
from cohcheck.errors import BoundaryError, FlavorError, StructureError, UnknownName, UnsupportedOp
from cohcheck.free_cat import GenSet, fmor_compose, fmor_equal, fmor_id, fmor_of, fmor_tensor, permutation_shadow
from cohcheck.functor_eval import lambda_eval, make_builtin_spec
from cohcheck.ualg import (
    FreeLetter,
    ObjMap,
    PhiLetter,
    UBraiding,
    UCompose,
    UFree,
    UId,
    UPhiFree,
    UPhiQ,
    UPhiQInv,
    UTensor,
    dissolve,
    format_uobj,
    free_uobj,
    identity_obj_map,
    normalize_uobj,
    phi_object,
    umor_shadow,
    uobj_dissolve,
    validate_umor,
    zeta,
)

from strategies import fmors
from termgen import random_step, random_umor
from ualg_checks import is_tidy, is_tidy_composite, kappa_embed, signature_of, umor_equal

A = GenSet("A", ("a",))
A2 = GenSet("A2", ("fa",))
PHI_A = ObjMap(A, A2, (("a", "fa"),))

ABCD = GenSet("ABCD", ("a", "b", "c", "d"))
FABCD = GenSet("FABCD", ("fa", "fb", "fc", "fd"))
PHI_4 = ObjMap(ABCD, FABCD, (("a", "fa"), ("b", "fb"), ("c", "fc"), ("d", "fd")))

AB = GenSet("AB", ("a", "b"))
PHI_ID = identity_obj_map(AB)
# non-injective map: both generators collapse onto one
F1 = GenSet("F1", ("f",))
PHI_FOLD = ObjMap(AB, F1, (("a", "f"), ("b", "f")))

MAPS = (PHI_A, PHI_4, PHI_ID, PHI_FOLD)


# -- object maps and object normal form ----------------------------------------


def test_obj_map_must_be_total():
    with pytest.raises(StructureError):
        ObjMap(AB, F1, (("a", "f"),))
    with pytest.raises(UnknownName):
        ObjMap(A, A2, (("a", "nope"),))
    # one image per source: a repeated source is rejected, not read by its first pair
    for images in (("fa", "fb"), ("fa", "fa")):
        with pytest.raises(StructureError, match="^map gives 'a' more than one image$"):
            ObjMap(AB, GenSet("A2", ("fa", "fb")), (("a", images[0]), ("b", "fb"), ("a", images[1])))


def test_obj_map_replace_and_make_check_and_memoize():
    # both go through __new__, so the copy has its own empty memo
    normalize_uobj((PhiLetter(("a",)),), PHI_A)
    m = PHI_A._replace(pairs=(("a", "fa"),))
    assert PHI_A.letters and m == PHI_A and m.letters == {}
    assert free_uobj(("fa",), m) == (FreeLetter("fa"),) and m.letters == {FreeLetter("fa"): ((FreeLetter("fa"),), ("fa",))}
    assert ObjMap._make(PHI_A).letters == {}
    with pytest.raises(StructureError):
        PHI_A._replace(pairs=())
    with pytest.raises(UnknownName):
        ObjMap._make((A, A2, (("a", "nope"),)))


def test_obj_map_memoizes_labels():
    # one memo: each letter's normal form and labels, read once per map; a
    # copy starts empty, and a letter that raises is not stored
    phi = ObjMap(AB, F1, (("a", "f"), ("b", "f")))
    x = (PhiLetter(("a", "b")), FreeLetter("f"), PhiLetter(("a", "b")), PhiLetter(()))
    assert uobj_dissolve(x, phi) == ("f", "f", "f", "f", "f")
    assert phi.letters == {
        PhiLetter(("a", "b")): ((PhiLetter(("a", "b")),), ("f", "f")),
        FreeLetter("f"): ((FreeLetter("f"),), ("f",)),
        PhiLetter(()): ((), ()),
    }
    assert normalize_uobj(x, phi) == (PhiLetter(("a", "b")), FreeLetter("f"), PhiLetter(("a", "b")))
    assert len(phi.letters) == 3
    assert phi._replace(pairs=phi.pairs).letters == {} and ObjMap._make(phi).letters == {}
    with pytest.raises(UnknownName):
        uobj_dissolve((PhiLetter(("a",)), PhiLetter(("a", "z"))), phi)
    assert phi.letters[PhiLetter(("a",))] == ((FreeLetter("f"),), ("f",))
    assert PhiLetter(("a", "z")) not in phi.letters


def test_normalize_length_one():
    assert normalize_uobj((PhiLetter(("a",)),), PHI_A) == (FreeLetter("fa"),)


def test_normalize_drops_empty():
    assert normalize_uobj((PhiLetter(()),), PHI_A) == ()
    assert normalize_uobj((FreeLetter("fa"), PhiLetter(()), FreeLetter("fa")), PHI_A) == (
        FreeLetter("fa"),
        FreeLetter("fa"),
    )


def test_normalize_keeps_long_letters():
    x = (PhiLetter(("a", "a")),)
    assert normalize_uobj(x, PHI_A) == x


def test_normalize_rejects_unknown():
    with pytest.raises(UnknownName):
        normalize_uobj((FreeLetter("zz"),), PHI_A)
    with pytest.raises(UnknownName):
        normalize_uobj((PhiLetter(("zz", "a")),), PHI_A)


@given(st.integers(0, 10**9))
def test_normalize_idempotent_and_monoidal(seed):
    rng = random.Random(seed)
    phi = rng.choice(MAPS)
    raw = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.4:
            raw.append(FreeLetter(rng.choice(phi.target.names)))
        else:
            raw.append(
                PhiLetter(tuple(rng.choice(phi.source.names) for _ in range(rng.randint(0, 3))))
            )
    cut = rng.randint(0, len(raw))
    once = normalize_uobj(raw, phi)
    assert normalize_uobj(once, phi) == once
    assert normalize_uobj(raw[:cut], phi) + normalize_uobj(raw[cut:], phi) == once


def test_phi_object_normalizes_blocks():
    assert phi_object((("a",), ("a",)), PHI_A) == (FreeLetter("fa"), FreeLetter("fa"))
    assert phi_object((("a", "a"), ()), PHI_A) == (PhiLetter(("a", "a")),)


def test_uobj_dissolve_reads_through_map():
    x = (PhiLetter(("a", "b", "a")), FreeLetter("f"), PhiLetter(("b", "b")))
    assert uobj_dissolve(x, PHI_FOLD) == ("f", "f", "f", "f", "f", "f")


# -- validation ---------------------------------------------------------------


def test_validate_adjoined():
    src, tgt = validate_umor(UPhiQ((("a",), ("a",))), PHI_A, "B")
    assert src == (FreeLetter("fa"), FreeLetter("fa"))
    assert tgt == (PhiLetter(("a", "a")),)


def test_validate_identity():
    x = (FreeLetter("fa"), PhiLetter(("a", "a")))
    assert validate_umor(UId(x), PHI_A, "M") == (x, x)


def test_validate_names_offending_subterm():
    x = (FreeLetter("fa"),)
    y = (PhiLetter(("a", "a")),)
    bad = UCompose(UCompose(UId(x), UId(y)), UId(y))
    with pytest.raises(BoundaryError) as exc:
        validate_umor(bad, PHI_A, "B")
    assert "term.after" in str(exc.value)


def test_validate_rejects_braiding_in_m():
    t = UBraiding((FreeLetter("fa"),), (FreeLetter("fa"),))
    with pytest.raises(UnsupportedOp):
        validate_umor(t, PHI_A, "M")


def test_validate_rejects_foreign_flavor():
    t = UFree(fmor_id("S", ("fa",)))
    with pytest.raises(FlavorError):
        validate_umor(t, PHI_A, "B")


# -- embedding and universal components -----------------------------------------


@given(fmors())
def test_dissolve_undoes_embedding(u):
    assert dissolve(kappa_embed(u), PHI_ID, u.flavor) == u


# the components of the universal map phi_tilde: phi_object on words, zeta on
# morphisms, UPhiQ on the unit and monoidal constraints


def test_phi_tilde_object():
    assert phi_object((("a", "a"),), PHI_A) == (PhiLetter(("a", "a")),)
    assert phi_object((("a",),), PHI_A) == (FreeLetter("fa"),)
    assert phi_object(((),), PHI_A) == ()


def test_phi_tilde_unit_constraint():
    t = UPhiQ(())
    assert validate_umor(t, PHI_A, "B") == ((), ())
    assert dissolve(t, PHI_A, "B") == fmor_id("B", ())


def test_phi_tilde_monoidal_constraint():
    t = UPhiQ((("a",), ("a",)))
    src, tgt = validate_umor(t, PHI_A, "B")
    assert src == (FreeLetter("fa"), FreeLetter("fa"))
    assert tgt == (PhiLetter(("a", "a")),)


def test_phi_tilde_morphism_dissolves_through_map():
    u = fmor_of("B", ("a", "b"), parse_braid("s1", 2))
    t = zeta(u)
    d = dissolve(t, PHI_FOLD, "B")
    assert d.source == ("f", "f")
    assert d.content.letters == (1,)


# -- dissolution and equality ---------------------------------------------------


def test_adjoined_dissolves_to_identity():
    t = UPhiQ((("a", "a"), ("a",)))
    assert dissolve(t, PHI_A, "B") == fmor_id("B", ("fa", "fa", "fa"))


def test_adjoined_formally_invertible():
    blocks = (("a", "a"), ("b",))
    t = UCompose(UPhiQ(blocks), UPhiQInv(blocks))
    merged = phi_object((("a", "a", "b"),), PHI_ID)
    assert umor_equal(t, UId(merged), PHI_ID, "B")
    t2 = UCompose(UPhiQInv(blocks), UPhiQ(blocks))
    assert umor_equal(t2, UId(phi_object(blocks, PHI_ID)), PHI_ID, "B")


def test_hexagon_lift_commutes():
    # two routes from three separate letters to one merged letter,
    # braiding the first pair past the third strand along the way
    e1 = UTensor(UPhiQ((("a",), ("a",))), UId((FreeLetter("fa"),)))
    e2 = UBraiding((PhiLetter(("a", "a")),), (FreeLetter("fa"),))
    e3 = UPhiQ((("a",), ("a", "a")))
    left = UCompose(e3, UCompose(e2, e1))

    e4 = UPhiQ((("a",), ("a",), ("a",)))
    e5 = zeta(fmor_of("B", ("a", "a", "a"), parse_braid("s2", 3)))
    e6 = zeta(fmor_of("B", ("a", "a", "a"), parse_braid("s1", 3)))
    right = UCompose(e6, UCompose(e5, e4))

    assert umor_equal(left, right, PHI_A, "B")
    d = dissolve(left, PHI_A, "B")
    assert d.content.letters == (1, 2)
    assert braid_equal(d.content, block_braid(2, 1))


def test_middle_four_lift_commutes():
    # both routes dissolve to the single middle transposition
    fid = lambda g: UId((FreeLetter(g),))
    e1 = UTensor(UTensor(fid("fa"), UBraiding((FreeLetter("fb"),), (FreeLetter("fc"),))), fid("fd"))
    e2 = UTensor(UPhiQ((("a",), ("c",))), UPhiQ((("b",), ("d",))))
    e3 = UPhiQ((("a", "c"), ("b", "d")))
    left = UCompose(e3, UCompose(e2, e1))

    e4 = UTensor(UPhiQ((("a",), ("b",))), UPhiQ((("c",), ("d",))))
    e5 = UPhiQ((("a", "b"), ("c", "d")))
    e6 = zeta(fmor_of("B", ("a", "b", "c", "d"), parse_braid("s2", 4)))
    right = UCompose(e6, UCompose(e5, e4))

    assert umor_equal(left, right, PHI_4, "B")
    assert dissolve(left, PHI_4, "B").content.letters == (2,)
    assert dissolve(right, PHI_4, "B").content.letters == (2,)


@given(st.integers(0, 10**9))
def test_constraint_coherence(seed):
    # merging three words in either association gives the same morphism
    rng = random.Random(seed)
    phi = rng.choice(MAPS)
    w1, w2, w3 = (
        tuple(rng.choice(phi.source.names) for _ in range(rng.randint(0, 3))) for _ in range(3)
    )
    lift = lambda w: UId(phi_object((w,), phi))
    left = UCompose(UPhiQ((w1 + w2, w3)), UTensor(UPhiQ((w1, w2)), lift(w3)))
    right = UCompose(UPhiQ((w1, w2 + w3)), UTensor(lift(w1), UPhiQ((w2, w3))))
    flat = UPhiQ((w1, w2, w3))
    assert umor_equal(left, right, phi, "B")
    assert umor_equal(left, flat, phi, "B")


def test_equality_needs_parallel_terms():
    with pytest.raises(BoundaryError):
        umor_equal(UId((FreeLetter("fa"),)), UId(()), PHI_A, "B")


@given(st.integers(0, 10**9))
def test_dissolve_functorial_and_monoidal(seed):
    rng = random.Random(seed)
    phi = rng.choice(MAPS)
    flavor = rng.choice(("M", "S", "B"))
    s = random_umor(rng, phi, flavor)
    _, mid = validate_umor(s, phi, flavor)
    t = random_step(rng, phi, flavor, mid)
    comp = dissolve(UCompose(t, s), phi, flavor)
    assert comp == fmor_compose(dissolve(t, phi, flavor), dissolve(s, phi, flavor))
    other = random_umor(rng, phi, flavor)
    both = dissolve(UTensor(s, other), phi, flavor)
    assert both == fmor_tensor(dissolve(s, phi, flavor), dissolve(other, phi, flavor))


@given(st.integers(0, 10**9))
def test_shadow_commutes_with_dissolve(seed):
    rng = random.Random(seed)
    phi = rng.choice(MAPS)
    t = random_umor(rng, phi, "B")
    left = dissolve(umor_shadow(t), phi, "S")
    right = permutation_shadow(dissolve(t, phi, "B"))
    assert left == right


# -- counting invariants --------------------------------------------------------


def test_signature_entrywise():
    x = free_uobj(("a", "b", "a"), PHI_ID)
    assert signature_of(x, {"a": 1, "b": 0}, {}) == [1, 0, 1]


def test_signature_of_formed_letters():
    x = (FreeLetter("fa"), PhiLetter(("a", "a")))
    sig = signature_of(x, {"fa": 2}, lambda w: len(w))
    assert sig == [2, 2]


def test_signature_missing_weight():
    with pytest.raises(UnknownName):
        signature_of((FreeLetter("fa"),), {}, {})


def test_tidy_objects():
    assert is_tidy(free_uobj(("a", "b"), PHI_ID), ("z",))
    assert not is_tidy((PhiLetter(("z", "z")),), ("z",))
    assert is_tidy((PhiLetter(("a", "z")),), ("z",))


def test_tidy_composites():
    abz = identity_obj_map(GenSet("ABZ", ("a", "b", "z")))
    steps = [
        UTensor(UPhiQ((("a",), ("b",))), UId((FreeLetter("a"),))),
        UId(phi_object((("a", "b"),), abz) + (FreeLetter("a"),)),
    ]
    assert is_tidy_composite(steps, abz, "B", ("z",))
    assert not is_tidy_composite([UCompose(steps[1], steps[0])], abz, "B", ("z",))
    assert not is_tidy_composite([UId((PhiLetter(("z", "z")),))], abz, "B", ("z",))


def test_format_uobj():
    assert format_uobj((FreeLetter("fa"), PhiLetter(("a", "b")))) == "[fa ; phi(a b)]"


# -- the per-map memo -----------------------------------------------------------


@st.composite
def letters(draw, phi: ObjMap):
    if draw(st.booleans()):
        return FreeLetter(draw(st.sampled_from(phi.target.names)))
    return PhiLetter(tuple(draw(st.lists(st.sampled_from(phi.source.names), max_size=3))))


def _same(x: tuple, y: tuple) -> bool:
    """Equal letter for letter, and of the same record type."""
    return x == y and [type(l) for l in x] == [type(l) for l in y]


@given(st.data())
def test_warm_map_normalizes_like_a_fresh_one(data):
    phi = data.draw(st.sampled_from(MAPS))
    warm = ObjMap(phi.source, phi.target, phi.pairs)
    for _ in range(4):
        x = tuple(data.draw(st.lists(letters(phi), max_size=6)))
        word = tuple(data.draw(st.lists(st.sampled_from(phi.target.names), max_size=6)))
        blocks = tuple(
            tuple(b) for b in data.draw(st.lists(st.lists(st.sampled_from(phi.source.names), max_size=3), max_size=4))
        )
        for _ in range(2):  # the second round reads every letter from the memo
            fresh = ObjMap(phi.source, phi.target, phi.pairs)
            assert _same(normalize_uobj(x, warm), normalize_uobj(x, fresh))
            assert _same(free_uobj(word, warm), free_uobj(word, fresh))
            assert _same(phi_object(blocks, warm), phi_object(blocks, fresh))


@pytest.mark.parametrize(
    "normalize, message",
    [
        (lambda phi: normalize_uobj((FreeLetter("f"), FreeLetter("z")), phi), "unknown generator 'z' in F1"),
        (lambda phi: normalize_uobj((PhiLetter(("a", "z")),), phi), "unknown generator 'z' in AB"),
        (lambda phi: free_uobj(("f", "zz"), phi), "unknown generator 'zz' in F1"),
        (lambda phi: phi_object((("a",), ("b", "zz")), phi), "unknown generator 'zz' in AB"),
        (lambda phi: uobj_dissolve((FreeLetter("zz"),), phi), "unknown generator 'zz' in F1"),
    ],
    ids=["free-letter", "formed-letter", "free-word", "blocks", "dissolve-free-letter"],
)
def test_memo_keeps_nothing_faulty(normalize, message):
    phi = ObjMap(AB, F1, PHI_FOLD.pairs)
    for _ in range(3):
        with pytest.raises(UnknownName) as err:
            normalize(phi)
        assert str(err.value) == message
    faulty = (FreeLetter("z"), PhiLetter(("a", "z")), FreeLetter("zz"), PhiLetter(("b", "zz")))
    assert not any(l in phi.letters for l in faulty)


def test_warm_map_still_equals_a_cold_one():
    cold = ObjMap(ABCD, FABCD, PHI_4.pairs)
    warm = ObjMap(ABCD, FABCD, PHI_4.pairs)
    normalize_uobj((FreeLetter("fa"), PhiLetter(("b",)), PhiLetter(("c", "d"))), warm)
    free_uobj(("fa", "fb"), warm)
    phi_object((("a", "b"), ("c",)), warm)
    assert warm.letters and not cold.letters
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert len({warm, cold}) == 1


# -- letter records ---------------------------------------------------------------


def test_letter_records():
    assert repr(FreeLetter("a")) == "FreeLetter(name='a')"
    assert repr(PhiLetter(("a", "b"))) == "PhiLetter(word=('a', 'b'))"
    assert (str(FreeLetter("a")), str(PhiLetter(("a", "b")))) == ("a", "phi(a b)")
    assert FreeLetter("a") != PhiLetter(("a",))
    assert FreeLetter("a") == FreeLetter("a") and PhiLetter(("a",)) == PhiLetter(("a",))
    members = {FreeLetter("a"), PhiLetter(("a",)), FreeLetter("a"), PhiLetter(("a",)), PhiLetter(())}
    assert len(members) == 3
    keyed = {FreeLetter("a"): "plain", PhiLetter(("a",)): "formed"}
    assert (keyed[FreeLetter("a")], keyed[PhiLetter(("a",))]) == ("plain", "formed")


def test_terms_compare_only_within_their_kind():
    # each pair has equal fields, and FreeLetter("a") == ("a",)
    a, b = UId((FA,)), UId((FB,))
    for s, t in (
        (UCompose(a, b), UTensor(a, b)),
        (UPhiQ((("a", "b"),)), UPhiQInv((("a", "b"),))),
        (UPhiQ((("a",),)), UId((FreeLetter("a"),))),
    ):
        assert not s == t and s != t
        assert not t == s and t != s
    same = UCompose(UId((FreeLetter("a"),)), UId((FreeLetter("b"),)))
    assert same == UCompose(a, b) and not same != UCompose(a, b)
    assert hash(same) == hash(UCompose(a, b))


IDENTITY_S = make_builtin_spec("identity", AB, "S")
INTERP_AB = {"a": ("a",), "b": ("b",)}
FA, FB = FreeLetter("a"), FreeLetter("b")


@pytest.mark.parametrize(
    "term, kind, message",
    [
        (UId((FA, FreeLetter("z"))), UnknownName, "unknown generator 'z' in AB"),
        (UTensor(UId((FA,)), UId((PhiLetter(("a", "q")),))), UnknownName, "unknown generator 'q' in AB"),
        (
            UTensor(UId((FA,)), UCompose(UId((FA, FB)), UId((PhiLetter(("b", "a")),)))),
            BoundaryError,
            "term.right: middle boundary mismatch: [phi(b a)] then [a ; b]",
        ),
    ],
    ids=["unknown-plain-letter", "unknown-formed-letter", "middle-mismatch"],
)
def test_typed_fold_errors(term, kind, message):
    # the same type and message through validation and through a functor
    for evaluate in (
        lambda: validate_umor(term, PHI_ID, "S"),
        lambda: lambda_eval(term, IDENTITY_S, INTERP_AB, PHI_ID),
    ):
        with pytest.raises(kind) as err:
            evaluate()
        assert type(err.value) is kind
        assert str(err.value) == message
