"""End-to-end checks, one test per published claim about the package.

Each test is independent and deterministic; together they pin the braid
word problem, the bundled corpus verdicts, the functor axiom checker, the
structural identities of the dissolution machinery, and the counting
invariants of the four-fold copying example.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from cohcheck.braid_core import (
    BraidWord,
    block_braid,
    braid_compose,
    braid_equal,
    braid_id,
    braid_perm,
    braid_tensor,
    cable,
    parse_braid,
    permute,
)
from cohcheck.cli import build_diagram, parse_source
from cohcheck.diagram_check import (
    EQUAL,
    EQUAL_IN_S_ONLY,
    check_goal,
    compose_path,
    diagram_shadow,
    explain_goal,
    report_json,
)
from cohcheck.free_cat import GenSet, fmor_equal, fmor_of, project_generator
from cohcheck.functor_eval import check_axioms, lambda_eval, make_builtin_spec
from cohcheck.ualg import (
    PhiLetter,
    dissolve,
    identity_obj_map,
    zeta,
    zeta_flat,
)

from termgen import random_fmor, random_obj
from ualg_checks import kappa_embed, signature_of, umor_equal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = sorted(FIXTURES.glob("*.coh"))


def load(name: str):
    return build_diagram(parse_source((FIXTURES / name).read_text(encoding="utf-8")))


def goal_words(d, goal) -> tuple[BraidWord, BraidWord]:
    left = dissolve(compose_path(d, goal.left), d.phi, d.flavor)
    right = dissolve(compose_path(d, goal.right), d.phi, d.flavor)
    return left.content, right.content


def test_01_distant_crossings_commute():
    assert braid_equal(parse_braid("s3 s4 s2", 6), parse_braid("s3 s2 s4", 6))


def test_02_unequal_braids_with_equal_permutations():
    u = parse_braid("s3 s1 s2", 4)
    v = parse_braid("s2 s2 s1 s3 s2", 4)
    assert not braid_equal(u, v)
    assert braid_perm(u) == braid_perm(v)


def test_03_block_swap_naturality_holds_only_symmetrically():
    d = load("mystery3.coh")
    rep = explain_goal(d, d.goals[0])
    assert rep.verdict == EQUAL_IN_S_ONLY
    assert rep.left.word == "s2 s1 s3 s2 s2"
    assert rep.right.word == "s2 s1 s3"
    shadow = diagram_shadow(d)
    assert check_goal(shadow, shadow.goals[0]) == EQUAL


def test_04_hexagon_commutes_and_dissolves_to_the_block_braid():
    d = load("mystery1.coh")
    assert check_goal(d, d.goals[0]) == EQUAL
    shadow = diagram_shadow(d)
    assert check_goal(shadow, shadow.goals[0]) == EQUAL
    left, right = goal_words(d, d.goals[0])
    assert braid_equal(left, block_braid(2, 1))
    assert braid_equal(right, block_braid(2, 1))


def test_05_collapse_naturality_is_one_transposition():
    d = load("mystery2.coh")
    assert check_goal(d, d.goals[0]) == EQUAL
    left, right = goal_words(d, d.goals[0])
    assert left == BraidWord(4, (2,))
    assert right == BraidWord(4, (2,))


def test_06_cyclic_braiding_links_strands_but_permutes_cyclically():
    d = load("cursed_cyclic.coh")
    rep = explain_goal(d, d.goals[0])
    assert rep.verdict == EQUAL_IN_S_ONLY
    left, right = goal_words(d, d.goals[0])
    assert left.letters == (6, 5, 4, 3, 2, 1, 7, 6, 5, 4, 3, 2, 2, 6, 4, 3, 5, 4)
    assert right.letters == (2, 6, 4, 3, 5, 4, 3, 2, 1, 7, 6, 5)
    assert not braid_equal(left, right)
    payload = report_json(rep)
    four_cycle = [4, 1, 2, 3]
    for gen in ("a", "b"):
        assert payload["projections"][gen]["left"] == four_cycle
        assert payload["projections"][gen]["right"] == four_cycle


def test_07_doubling_is_symmetric_but_not_braided():
    gens = GenSet("G", ("a", "b"))
    rep_s = check_axioms(make_builtin_spec("doubling", gens, "S"))
    assert rep_s.ok
    rep_b = check_axioms(make_builtin_spec("doubling", gens, "B"))
    assert rep_b.failures
    assert all(f.axiom == "braid" for f in rep_b.failures)
    assert (("a",), ("b",)) in [f.witness for f in rep_b.failures]


def test_08_structural_identity_suite():
    rng = random.Random(0)
    names = ("a", "b", "c")
    gens = GenSet("G", names)
    phi = identity_obj_map(gens)

    # collapsing a classifier section is the identity, for both sections
    for i in range(500):
        flavor = "BSM"[i % 3]
        u = random_fmor(rng, flavor, random_obj(rng, names))
        assert fmor_equal(dissolve(zeta(u), phi, flavor), u)
        assert fmor_equal(dissolve(zeta_flat(u), phi, flavor), u)

    # dissolving an embedded free morphism gives it back
    for i in range(500):
        flavor = "BSM"[i % 3]
        u = random_fmor(rng, flavor, random_obj(rng, names))
        assert fmor_equal(dissolve(kappa_embed(u), phi, flavor), u)

    # passing a block across a split block, one half at a time
    for m in range(5):
        for k in range(5):
            for p in range(5):
                split_far = braid_compose(
                    braid_tensor(braid_id(k), block_braid(m, p)),
                    braid_tensor(block_braid(m, k), braid_id(p)),
                )
                assert braid_equal(block_braid(m, k + p), split_far)
                split_near = braid_compose(
                    braid_tensor(block_braid(m, p), braid_id(k)),
                    braid_tensor(braid_id(m), block_braid(k, p)),
                )
                assert braid_equal(block_braid(m + k, p), split_near)

    # cabling a composite is the composite of compatible cablings
    for _ in range(200):
        n = rng.randint(1, 5)
        def word() -> BraidWord:
            return BraidWord(n, tuple(
                rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 6))
            )) if n > 1 else BraidWord(1, ())
        u, v = word(), word()
        sizes = [rng.randint(0, 3) for _ in range(n)]
        whole = cable(braid_compose(u, v), sizes)
        upper = cable(u, permute(sizes, braid_perm(v)))
        assert whole == braid_compose(upper, cable(v, sizes))

    # per-generator projections separate parallel permutations
    for n in range(1, 7):
        for labels in itertools.product("ab", repeat=n):
            seen: dict = {}
            for p in itertools.permutations(range(n)):
                u = fmor_of("S", labels, p)
                key = (u.target, tuple(project_generator(u, g) for g in "ab"))
                assert seen.setdefault(key, p) == p

    # evaluating both sides of every commuting corpus goal through a
    # functor gives equal concrete morphisms
    checked = 0
    for path in CORPUS:
        d = build_diagram(parse_source(path.read_text(encoding="utf-8")))
        runs = [(d, make_builtin_spec("identity", d.phi.source, d.flavor))]
        flat = diagram_shadow(d) if d.flavor == "B" else d
        for kind in ("doubling", "nfold(4)"):
            runs.append((flat, make_builtin_spec(kind, flat.phi.source, "S")))
        for dd, F in runs:
            interp = {dd.phi(g): F.obj((g,)) for g in dd.phi.source.names}
            for goal in dd.goals:
                lt = compose_path(dd, goal.left)
                rt = compose_path(dd, goal.right)
                if not umor_equal(lt, rt, dd.phi, dd.flavor):
                    continue
                lv = lambda_eval(lt, F, interp, dd.phi)
                rv = lambda_eval(rt, F, interp, dd.phi)
                assert fmor_equal(lv, rv), (path.name, goal.name, F.name)
                checked += 1
    assert checked == 15  # every goal-functor pair except the honest failures


def test_09_four_fold_counting_invariants():
    plain = load("cursed_cyclic.coh")
    for gen in ("a", "b"):
        weight = {g: int(g == gen) for g in ("a", "b")}
        for node in plain.nodes.values():
            assert sum(signature_of(node, weight, {})) == 4

    lift = load("cursed_lift.coh")
    quad = lift.functor
    assert quad is not None and lift.interp is not None
    for gen in ("a", "b"):
        def count(word: tuple[str, ...]) -> int:
            return sum(1 for g in word if g == gen)
        weight = {h: count(body) for h, body in lift.interp.items()}
        for node in lift.nodes.values():
            sig = signature_of(node, weight, lambda w: count(quad.obj(w)))
            assert sum(sig) == 4
            for letter, entry in zip(node, sig):
                if isinstance(letter, PhiLetter):
                    assert entry % 4 == 0
