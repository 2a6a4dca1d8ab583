"""Tests of the benchmark's own input generator, at small sizes.

The handle-reduction oracle confirms that each construction gives the
verdict it claims, and that each generated side dissolves, in cohcheck, to
the word the generator says it does. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from cohcheck.cli import build_diagram, parse_source  # noqa: E402
from cohcheck.diagram_check import explain_goal, report_json  # noqa: E402

oracle = checks.load_oracle(HERE.parent)

BRAIDED = gen.Shape("B", 4, ("a", "b"), 3, 2, 0.3, None)
SYMMETRIC = gen.Shape("S", 6, ("a", "b", "c"), 3, 2, 0.3, None)
CASES = [(BRAIDED, v) for v in (gen.EQUAL, gen.S_ONLY, gen.NOT_EQUAL)]
CASES += [(SYMMETRIC, v) for v in (gen.EQUAL, gen.NOT_EQUAL)]


@pytest.mark.parametrize("shape,verdict", CASES)
@pytest.mark.parametrize("seed", range(12))
def test_construction_gives_its_verdict(shape, verdict, seed):
    f = gen.make_file(random.Random(seed), "t", shape, verdict)
    g = f.goals[0]
    same_perm = oracle.word_perm(g.left, g.n) == oracle.word_perm(g.right, g.n)
    if shape.flavor == "B":
        same_braid = oracle.words_equal(g.left, g.right)
        decided = gen.EQUAL if same_braid else gen.S_ONLY if same_perm else gen.NOT_EQUAL
    else:
        decided = gen.EQUAL if same_perm else gen.NOT_EQUAL
    assert decided == verdict


@pytest.mark.parametrize("shape,verdict", CASES)
@pytest.mark.parametrize("functor", [None, "doubling", "nfold(3)"])
def test_sides_dissolve_to_the_constructed_words(shape, verdict, functor):
    shape = gen.Shape(shape.flavor, shape.n, shape.gens, shape.edges, shape.blocks, shape.inv_share, functor)
    f = gen.make_file(random.Random(f"{verdict}{functor}"), "t", shape, verdict)
    d = build_diagram(parse_source(f.text))
    rep = report_json(explain_goal(d, d.goals[0]))
    assert checks.check_report(rep, shape.flavor, verdict, oracle, (f.goals[0].left, f.goals[0].right)) == []


def test_every_row_kind_appears():
    texts = [gen.make_file(random.Random(s), "t", SYMMETRIC, gen.EQUAL).text for s in range(4)]
    texts += [gen.make_file(random.Random(s), "t", BRAIDED, gen.S_ONLY).text for s in range(4)]
    joined = "\n".join(texts)
    for token in ("q(", "q^-1(", "pf(outer=id", "pf(outer=s1", "braid([", "braid(phi(", "perm(", '"s', "id ; s"):
        assert token in joined, token


def test_words_and_permutations():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 7)
        p = list(range(n))
        rng.shuffle(p)
        w = gen.word_of_perm(tuple(p))
        assert gen.perm_of(w, n) == tuple(p) == oracle.word_perm(w, n)
    for m in range(1, 4):
        for k in range(1, 4):
            w = gen.block_braid(m, k)
            assert gen.perm_of(w, m + k) == tuple(i + k for i in range(m)) + tuple(range(k))


def test_deep_files_are_fixed_and_parse():
    for make, rows in ((gen.deep_path_file, 1501), (gen.deep_edge_file, 1201)):
        f = make()
        assert f.deep and f.rows == rows and f.text == make().text
        parse_source(f.text)
