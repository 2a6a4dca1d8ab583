from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcheck import braid_core, functor_eval
from cohcheck.braid_core import BraidWord, braid_equal, parse_braid
from cohcheck.errors import BoundaryError, InterpError, StructureError, UnsupportedOp
from cohcheck.free_cat import (
    FreeMor,
    GenSet,
    fmor_braiding,
    fmor_compose,
    fmor_equal,
    fmor_id,
    fmor_inverse,
    fmor_of,
    fmor_tensor,
)
from cohcheck.functor_eval import (
    AxiomFailure,
    AxiomReport,
    FunctorSpec,
    check_axioms,
    compose_specs,
    default_probe,
    f_bullet,
    lambda_eval,
    make_builtin_spec,
)
from cohcheck.ualg import (
    FreeLetter,
    ObjMap,
    PhiLetter,
    UBraiding,
    UCompose,
    UId,
    UPhiQ,
    UTensor,
    dissolve,
    identity_obj_map,
    zeta,
)

from lib_extras import verify_lift
from strategies import fmors
from termgen import random_umor

AB = GenSet("AB", ("a", "b"))
ABC = GenSet("ABC", ("a", "b", "c"))
PHI_ID = identity_obj_map(AB)

A = GenSet("A", ("a",))
A2 = GenSet("A2", ("fa",))
PHI_A = ObjMap(A, A2, (("a", "fa"),))


def _interp_for(F, phi):
    return {phi(g): F.obj((g,)) for g in phi.source.names}


# -- builtin specs --------------------------------------------------------------


def test_doubling_objects():
    F = make_builtin_spec("doubling", AB, "B")
    assert F.obj(("a",)) == ("a", "a")
    assert F.obj(("a", "b")) == ("a", "b", "a", "b")
    assert F.obj(()) == ()


def test_doubling_constraint_word():
    F = make_builtin_spec("doubling", AB, "B")
    c = F.f2(("a",), ("b",))
    assert c.source == ("a", "a", "b", "b")
    assert c.target == ("a", "b", "a", "b")
    assert c.content.letters == (2,)


def test_doubling_needs_braiding():
    with pytest.raises(UnsupportedOp):
        make_builtin_spec("doubling", AB, "M")


def test_nfold_bounds():
    with pytest.raises(StructureError):
        make_builtin_spec("nfold(0)", AB, "B")
    with pytest.raises(StructureError):
        make_builtin_spec("tripling", AB, "B")


def test_nfold_one_is_strict():
    F = make_builtin_spec("nfold(1)", AB, "B")
    assert F.obj(("a", "b")) == ("a", "b")
    assert F.f2(("a",), ("b",)).content.letters == ()


def test_nfold_two_matches_doubling():
    F2 = make_builtin_spec("nfold(2)", AB, "B")
    D = make_builtin_spec("doubling", AB, "B")
    for x in default_probe(AB):
        assert F2.obj(x) == D.obj(x)
        for y in default_probe(AB):
            assert F2.f2(x, y).content.letters == D.f2(x, y).content.letters


def test_quadrupling_constraint_words():
    D = make_builtin_spec("doubling", AB, "B")
    DD = compose_specs(D, D)
    F4 = make_builtin_spec("nfold(4)", AB, "B")
    assert DD.obj(("a",)) == ("a",) * 4
    c_comp = DD.f2(("a",), ("b",))
    c_ind = F4.f2(("a",), ("b",))
    assert c_comp.content.letters == (2, 6, 4, 3, 5, 4)
    assert c_ind.content.letters == (2, 4, 3, 6, 5, 4)
    assert fmor_equal(c_comp, c_ind)


def _shuffle_reference(n, flavor, x, y):
    """f2 of nfold(n) built from the words themselves: at copy level k, the
    last copy of x is pulled through the earlier copies of y."""
    out = fmor_id(flavor, x + y)
    for k in range(2, n + 1):
        inner = fmor_tensor(
            fmor_id(flavor, x * (k - 1)),
            fmor_tensor(fmor_braiding(x, y * (k - 1), flavor), fmor_id(flavor, y)),
        )
        out = fmor_compose(fmor_tensor(out, fmor_id(flavor, x + y)), inner)
    return out


@pytest.mark.parametrize("flavor", ["S", "B"])
@pytest.mark.parametrize("kind, n", [(f"nfold({n})", n) for n in range(1, 6)] + [("doubling", 2)])
def test_constraint_depends_only_on_lengths(kind, n, flavor):
    # one spec answers every pair, so words of equal lengths, shared
    # labels included, reuse the content built for the first of them
    F = make_builtin_spec(kind, AB, flavor)
    probe = default_probe(AB, 3)
    for x in probe:
        for y in probe:
            assert F.f2(x, y) == _shuffle_reference(n, flavor, x, y)


@pytest.mark.parametrize("flavor", ["S", "B"])
@pytest.mark.parametrize("kind, n", [("doubling", 2)] + [(f"nfold({n})", n) for n in range(2, 6)])
def test_constraint_passes_the_validating_constructor(kind, n, flavor):
    # f2 is built without the boundary check, which its content passed once
    # per length pair on distinct labels; every labelling passes it too
    F = make_builtin_spec(kind, ABC, flavor)
    probe = default_probe(ABC)
    for x in probe:
        for y in probe:
            c = F.f2(x, y)
            assert c == FreeMor(flavor, x * n + y * n, (x + y) * n, c.content)


@pytest.mark.parametrize("flavor", ["S", "B"])
def test_composite_constraint_matches_reference(flavor):
    D = make_builtin_spec("doubling", AB, flavor)
    DD = compose_specs(D, D)
    probe = default_probe(AB, 3)
    for x in probe:
        for y in probe:
            ref = fmor_compose(D.mor(_shuffle_reference(2, flavor, x, y)),
                               _shuffle_reference(2, flavor, D.obj(x), D.obj(y)))
            assert DD.f2(x, y) == ref


def test_compose_requires_matching_gens():
    with pytest.raises(BoundaryError):
        compose_specs(make_builtin_spec("identity", AB, "B"), make_builtin_spec("identity", A, "B"))


@given(st.data())
def test_mor_is_functorial(data):
    F = make_builtin_spec("doubling", AB, data.draw(st.sampled_from(("S", "B"))))
    v = data.draw(fmors(flavor=F.flavor))
    u = data.draw(fmors(flavor=F.flavor, source=v.target))
    assert fmor_equal(F.mor(fmor_compose(u, v)), fmor_compose(F.mor(u), F.mor(v)))
    assert F.mor(fmor_id(F.flavor, v.source)) == fmor_id(F.flavor, F.obj(v.source))


@given(st.data())
def test_constraints_invertible(data):
    flavor = data.draw(st.sampled_from(("S", "B")))
    F = make_builtin_spec(data.draw(st.sampled_from(("doubling", "nfold(3)"))), AB, flavor)
    x = data.draw(st.sampled_from(default_probe(AB)))
    y = data.draw(st.sampled_from(default_probe(AB)))
    c = F.f2(x, y)
    assert fmor_equal(fmor_compose(c, fmor_inverse(c)), fmor_id(flavor, c.target))


# -- axiom checking -------------------------------------------------------------


def test_identity_satisfies_all_axioms():
    for flavor in ("M", "S", "B"):
        assert check_axioms(make_builtin_spec("identity", AB, flavor)).ok


def test_doubling_symmetric_but_not_braided():
    rep_s = check_axioms(make_builtin_spec("doubling", AB, "S"))
    assert rep_s.ok
    rep_b = check_axioms(make_builtin_spec("doubling", AB, "B"))
    assert not rep_b.ok
    assert all(f.axiom == "braid" for f in rep_b.failures)
    assert ((("a",), ("b",))) in [f.witness for f in rep_b.failures]


def test_nfold_three_symmetric_but_not_braided():
    assert check_axioms(make_builtin_spec("nfold(3)", AB, "S")).ok
    rep = check_axioms(make_builtin_spec("nfold(3)", AB, "B"))
    assert rep.failures and all(f.axiom == "braid" for f in rep.failures)


def test_nfold_four_braided_fails_exactly_on_nonempty_pairs():
    # up to 24 strands: both objects nonempty is where the copies cross
    probe = default_probe(ABC)
    rep = check_axioms(make_builtin_spec("nfold(4)", ABC, "B"), probe)
    assert rep.checked == len(probe) ** 3 + 2 * len(probe) + len(probe) ** 2
    assert all(f.axiom == "braid" for f in rep.failures)
    assert [f.witness for f in rep.failures] == [(x, y) for x in probe for y in probe if x and y]


def _every_check(F, probe):
    """The axiom checks as check_axioms states them, one by one."""
    flavor = F.flavor
    for x, y, z in itertools.product(probe, repeat=3):
        left = fmor_compose(F.f2(x, y + z), fmor_tensor(fmor_id(flavor, F.obj(x)), F.f2(y, z)))
        right = fmor_compose(F.f2(x + y, z), fmor_tensor(F.f2(x, y), fmor_id(flavor, F.obj(z))))
        yield "associativity", (x, y, z), left, right
    for x in probe:
        one = fmor_id(flavor, F.obj(x))
        yield "unit-left", (x,), fmor_compose(F.f2((), x), fmor_tensor(F.f0(), one)), one
        yield "unit-right", (x,), fmor_compose(F.f2(x, ()), fmor_tensor(one, F.f0())), one
    if flavor != "M":
        for x, y in itertools.product(probe, repeat=2):
            left = fmor_compose(F.f2(y, x), fmor_braiding(F.obj(x), F.obj(y), flavor))
            right = fmor_compose(F.mor(fmor_braiding(x, y, flavor)), F.f2(x, y))
            yield "braid", (x, y), left, right


def _report_by_every_check(F, probe):
    checks = list(_every_check(F, probe))
    return AxiomReport(F.name, tuple(AxiomFailure(*c) for c in checks if not fmor_equal(c[2], c[3])), len(checks))


COPYING_SPECS = [("identity", "M"), ("identity", "S"), ("identity", "B")] + [
    (kind, flavor) for kind in ("doubling", "nfold(3)", "nfold(4)") for flavor in ("S", "B")
]


@pytest.mark.parametrize("kind, flavor", COPYING_SPECS)
def test_report_equals_every_check(kind, flavor):
    F = make_builtin_spec(kind, ABC, flavor)
    probe = default_probe(ABC)
    assert check_axioms(F, probe) == _report_by_every_check(F, probe)


# mixed lengths, and always one word twice
_probes = st.lists(st.lists(st.sampled_from("abc"), max_size=3).map(tuple), min_size=1, max_size=4).flatmap(
    lambda ws: st.permutations(ws + ws[:1])
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(COPYING_SPECS), _probes)
def test_report_equals_every_check_on_any_probe(spec, probe):
    kind, flavor = spec
    F = make_builtin_spec(kind, ABC, flavor)
    assert check_axioms(F, probe) == _report_by_every_check(F, probe)


def _twist_on_c(F):
    """F's f2, followed on each pair of words holding a c by a pure braid:
    parallel to F's, yet not a function of the word lengths alone."""

    def f2(x, y):
        c = F.f2(x, y)
        if "c" not in x + y or len(c.source) < 2:
            return c
        return fmor_compose(c, fmor_of("B", c.source, parse_braid("s1 s1", len(c.source))))

    return f2


@pytest.mark.parametrize("field", ["obj", "f2", "f0"])
def test_replaced_piece_is_checked_witness_by_witness(field):
    F = make_builtin_spec("doubling", ABC, "B")
    piece = {"obj": lambda x: F.obj(x), "f2": _twist_on_c(F), "f0": lambda: F.f0()}[field]
    G = F._replace(**{field: piece})
    probe = default_probe(ABC, 1)
    expected = _report_by_every_check(G, probe)
    assert check_axioms(G, probe) == expected
    if field == "f2":
        # (a, a, a) passes associativity, and witnesses of its lengths fail
        failed = {f.witness for f in expected.failures if f.axiom == "associativity"}
        assert failed and (("a",), ("a",), ("a",)) not in failed


def test_mislabelling_obj_raises():
    # every axiom holds in flavor S, and the first witness of each length
    # signature holds no c
    F = make_builtin_spec("doubling", ABC, "S")

    def obj(x):
        return ("z",) * len(F.obj(x)) if x == ("c",) else F.obj(x)

    with pytest.raises(BoundaryError):
        check_axioms(F._replace(obj=obj), default_probe(ABC))


@pytest.mark.parametrize("flavor", ["S", "B"])
@pytest.mark.parametrize("outer, inner", [("doubling", "doubling"), ("nfold(3)", "doubling")])
def test_composite_spec_is_decided_by_length_signature(monkeypatch, flavor, outer, inner):
    # a composite of copying functors copies, so each axiom is decided once
    # per length signature and still reports every failing witness
    G = compose_specs(make_builtin_spec(outer, AB, flavor), make_builtin_spec(inner, AB, flavor))
    probe = default_probe(AB)
    expected = _report_by_every_check(G, probe)
    compared = []
    equal = functor_eval.fmor_equal
    monkeypatch.setattr(functor_eval, "fmor_equal", lambda u, v: compared.append(u) or equal(u, v))
    assert check_axioms(G, probe) == expected
    n = len({len(x) for x in probe})
    assert len(compared) == n**3 + 2 * n + n**2


def test_each_length_signature_is_built_once_unless_it_fails(monkeypatch):
    F = make_builtin_spec("nfold(4)", ABC, "B")
    probe = default_probe(ABC)
    # a first call builds the spec's contents for each pair of lengths
    rep = check_axioms(F, probe)
    n = len({len(x) for x in probe})
    signatures = n**3 + 2 * n + n**2
    composed, compared = [], []
    compose, equal = functor_eval.fmor_compose, functor_eval.fmor_equal

    def counted_compose(u, v):
        composed.append((u, v))
        return compose(u, v)

    def counted_equal(u, v):
        compared.append((u, v))
        return equal(u, v)

    monkeypatch.setattr(functor_eval, "fmor_compose", counted_compose)
    monkeypatch.setattr(functor_eval, "fmor_equal", counted_equal)
    assert check_axioms(F, probe) == rep
    assert 0 < len(composed) <= 2 * (signatures + len(rep.failures))
    # a failure is built at its own witness, but decided once per signature
    assert len(compared) == signatures


def test_each_distinct_braid_pair_is_normalized_once(monkeypatch):
    F = make_builtin_spec("nfold(3)", AB, "B")
    probe = default_probe(AB)
    normalized = []
    normalize = braid_core.normalize_braid

    def counted(w):
        normalized.append(w)
        return normalize(w)

    monkeypatch.setattr(braid_core, "normalize_braid", counted)
    checks = list(_every_check(F, probe))
    expected = _report_by_every_check(F, probe)
    differing = {(l.content, r.content) for _, _, l, r in checks if l.content != r.content}
    assert len(differing) < sum(l.content != r.content for _, _, l, r in checks)
    normalized.clear()
    assert check_axioms(F, probe) == expected
    assert 0 < len(normalized) <= 2 * len(differing)


def test_repeated_braid_pair_is_still_checked_for_parallel():
    # (a, a) and (a, b) give the braid axiom the same pair of braids; a mor
    # that mislabels the target of the braiding of a past b makes the second
    # pair non-parallel, and the cached verdict must not hide that
    doubling = make_builtin_spec("doubling", AB, "B")

    def mor(u):
        v = doubling.mor(u)
        return v._replace(target=("z",) * len(v.target)) if u.source == ("a", "b") else v

    probe = [(), ("a",), ("b",)]
    assert check_axioms(doubling, probe).failures
    with pytest.raises(BoundaryError):
        check_axioms(doubling._replace(mor=mor), probe)


def test_report_counts_checks():
    probe = [(), ("a",)]
    rep = check_axioms(make_builtin_spec("identity", AB, "M"), probe)
    # 8 associativity triples + 2x2 unit squares, no braid axiom in M
    assert rep.checked == 12


# -- the n-ary constraint fold ----------------------------------------------------


def test_fold_empty_is_unit_constraint():
    F = make_builtin_spec("doubling", AB, "B")
    assert f_bullet(F, ()) == fmor_id("B", ())


def test_fold_single_block_is_identity():
    F = make_builtin_spec("doubling", AB, "B")
    assert f_bullet(F, (("a", "b"),)) == fmor_id("B", ("a", "b", "a", "b"))


def test_fold_two_blocks_is_binary_constraint():
    F = make_builtin_spec("doubling", AB, "B")
    assert f_bullet(F, (("a",), ("b",))).content.letters == F.f2(("a",), ("b",)).content.letters


def test_fold_three_blocks_boundary():
    F = make_builtin_spec("doubling", AB, "B")
    c = f_bullet(F, (("a",), ("b",), ("a",)))
    assert c.source == ("a", "a", "b", "b", "a", "a")
    assert c.target == ("a", "b", "a", "a", "b", "a")


def _binary_fold(F: FunctorSpec, blocks):
    """The n-ary constraint as a fold of binary calls: f2 left to right,
    each after the constraint so far tensored with an identity."""
    if not blocks:
        return F.f0()
    acc, done = fmor_id(F.flavor, F.obj(blocks[0])), blocks[0]
    for w in blocks[1:]:
        acc = fmor_compose(F.f2(done, w), fmor_tensor(acc, fmor_id(F.flavor, F.obj(w))))
        done = done + w
    return acc


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_builtin_spec("identity", AB, "M"),
        lambda: make_builtin_spec("doubling", AB, "S"),
        lambda: make_builtin_spec("doubling", AB, "B"),
        lambda: compose_specs(make_builtin_spec("doubling", AB, "B"), make_builtin_spec("nfold(3)", AB, "B")),
    ],
    ids=["identity-M", "doubling-S", "doubling-B", "doubling.nfold(3)-B"],
)
def test_fold_matches_the_binary_fold(make):
    F = make()
    for m in range(5):
        for blocks in itertools.product([(), ("a",), ("b", "a")], repeat=m):
            joined = f_bullet(F, blocks)
            assert joined == _binary_fold(F, blocks), blocks
            assert FreeMor(*joined) == joined  # its unchecked boundary passes the check


# -- evaluation -----------------------------------------------------------------


@given(st.integers(0, 10**9))
def test_identity_evaluation_is_dissolution(seed):
    rng = random.Random(seed)
    flavor = rng.choice(("M", "S", "B"))
    F = make_builtin_spec("identity", AB, flavor)
    t = random_umor(rng, PHI_ID, flavor)
    assert lambda_eval(t, F, _interp_for(F, PHI_ID), PHI_ID) == dissolve(t, PHI_ID, flavor)


def _hexagon_lift():
    e1 = UTensor(UPhiQ((("a",), ("a",))), UId((FreeLetter("fa"),)))
    e2 = UBraiding((PhiLetter(("a", "a")),), (FreeLetter("fa"),))
    e3 = UPhiQ((("a",), ("a", "a")))
    left = UCompose(e3, UCompose(e2, e1))
    e4 = UPhiQ((("a",), ("a",), ("a",)))
    e5 = zeta(fmor_of("B", ("a", "a", "a"), parse_braid("s2", 3)))
    e6 = zeta(fmor_of("B", ("a", "a", "a"), parse_braid("s1", 3)))
    right = UCompose(e6, UCompose(e5, e4))
    return left, right


def test_hexagon_lift_under_doubling():
    F = make_builtin_spec("doubling", A, "B")
    interp = _interp_for(F, PHI_A)
    left, right = _hexagon_lift()
    lv = lambda_eval(left, F, interp, PHI_A)
    rv = lambda_eval(right, F, interp, PHI_A)
    assert lv.content.letters == (3, 2, 2, 1, 3, 2, 4, 3, 5, 4, 2)
    assert rv.content.letters == (1, 4, 2, 5, 3, 4, 2)
    assert verify_lift(left, lv, F, interp, PHI_A)
    # the two sides dissolve to the same braid, yet their images differ:
    # doubling is not a braided functor, and this lift braids formed letters
    assert not fmor_equal(lv, rv)


def test_hexagon_lift_under_identity():
    F = make_builtin_spec("identity", A, "B")
    interp = {"fa": ("a",)}
    left, right = _hexagon_lift()
    assert fmor_equal(lambda_eval(left, F, interp, PHI_A), lambda_eval(right, F, interp, PHI_A))


def test_interp_must_cover_letters():
    F = make_builtin_spec("identity", A, "B")
    left, _ = _hexagon_lift()
    with pytest.raises(InterpError):
        lambda_eval(left, F, {}, PHI_A)


def test_interp_must_match_functor():
    F = make_builtin_spec("identity", A, "B")
    with pytest.raises(InterpError):
        lambda_eval(UId(()), F, {"fa": ("a", "a")}, PHI_A)


def test_functor_must_preserve_unit():
    bad = FunctorSpec(
        "B",
        A,
        A,
        obj=lambda x: x + ("a",),
        mor=lambda u: u,
        f2=lambda x, y: fmor_id("B", x + y + ("a", "a")),
        f0=lambda: fmor_id("B", ("a",)),
        name="broken",
    )
    with pytest.raises(InterpError):
        lambda_eval(UId(()), bad, {"fa": ("a",)}, PHI_A)
