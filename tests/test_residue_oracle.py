"""Elaboration dissolves every edge of a parsed file as it builds the term,
so the typed fold (ualg._dissolution) no longer runs on parsed files. The
fold is the oracle here: each stored residue, and the edge's normalized
boundaries, must be exactly what the fold makes of the edge's term."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from cohcheck.cli import build_diagram, parse_source
from cohcheck.errors import CohError

import parse_mutants

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.coh"))
LONG = sorted((ROOT / "tests" / "long").glob("*.coh"))
GEN = ROOT / "perfbench" / "gen.py"


def _gen():
    """perfbench/gen.py, loaded by path; it imports nothing from cohcheck."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("path", FIXTURES + LONG, ids=lambda p: p.name)
def test_residue_is_the_fold_on_files(path):
    parse_mutants.assert_residues_are_the_fold(build_diagram(parse_source(path.read_text(encoding="utf-8"))))


_HEAD = "gens A = { a, b }\ngens A2 = { fa, fb }\nmap phi : A -> A2 { a -> fa; b -> fb }\n"
# rows of several factors, so that each factor's labels and content land at
# an offset: no fixture, tests/long file or gen.py shape is monoidal, and
# the braided rows put inverse letters (s1^-1 in a word and in a pf outer
# or inner) after other factors
JOINED_ROWS = {
    "monoidal": "flavor monoidal\n" + _HEAD + (
        "node n = [fa fb fa fb]\n"
        "edge e : n -> n = id ; id ; q^-1(a | b) . q^-1(a | b) ; id . id ; pf(outer=id; inner=id) . q(a | b) ; q(a | b)\n"
        "edge f : n -> n = q^-1(a | b) ; q^-1(a | b) . pf(outer=id; inner=id, id) . q(a | b) ; q(a | b) . braid([fa], []) ; id\n"
        "goal g : f . e == e\n"
    ),
    "braided": "flavor braided\n" + _HEAD + (
        "node n = [fa fa fb fa fb]\n"
        'edge e : n -> n = id ; braid([fa], [fa fb]) ; id . "s1" ; "" ; s1^-1 s2 s1^-1 . id ; q^-1(a | b) ; q^-1(b | a)'
        " . id ; pf(outer=s1^-1; inner=s1^-1, id) . id ; q(a | b) ; q(a | b)\n"
        "goal g : e == e\n"
    ),
    "symmetric": "flavor symmetric\n" + _HEAD + (
        "node n = [fa fb fa fb]\n"
        "node m = [fb fa fb fa]\n"
        "node p = phi(a b) ; [fa fa fb fb fa fa fb]\n"
        "node r = phi(b a) ; [fa] ; phi(a b) ; [fa fb fb fa]\n"
        "edge e : n -> m = id ; braid([fa], [fa fb]) . q^-1(b | a) ; id ; id . pf(outer=id; inner=perm(2 1)) ; perm(2 1)"
        " . q(a | b) ; braid([fa], [fb])\n"
        "edge f : p -> r = pf(outer=id; inner=perm(2 1)) ; id ; q(a | b) ; perm(2 1) ; braid([fa], [fb])\n"
        "goal g : e == e\ngoal h : f == f\n"
    ),
}


@pytest.mark.parametrize("flavor", sorted(JOINED_ROWS))
def test_residue_is_the_fold_on_joined_rows(flavor):
    parse_mutants.assert_residues_are_the_fold(build_diagram(parse_source(JOINED_ROWS[flavor])))


@pytest.mark.parametrize("seed", [1, 2])
def test_residue_is_the_fold_on_generated_files(seed):
    # the shapes of the long_goals benchmark: braided on 4 strands and
    # symmetric on 8, with and without a functor, and the two deep files
    gen = _gen()
    rng = random.Random(f"residue-oracle:{seed}")
    made = [gen.deep_path_file(), gen.deep_edge_file()]
    for verdict, functor in (("equal", None), ("equal_in_s_only", "nfold(3)"), ("not_equal", "doubling")):
        made.append(gen.make_file(rng, "braided", gen.Shape("B", 4, ("a", "b"), 3, 23, 0.3, functor), verdict))
    for verdict, functor in (("equal", None), ("not_equal", "nfold(3)")):
        shape = gen.Shape("S", 8, ("a", "b", "c"), 3, 35, 0.3, functor)
        made.append(gen.make_file(rng, "symmetric", shape, verdict))
    for f in made:
        parse_mutants.assert_residues_are_the_fold(build_diagram(parse_source(f.text)))


def test_residue_is_the_fold_on_every_mutant_that_builds():
    built = 0
    for _, source in parse_mutants.mutants():
        try:
            d = build_diagram(parse_source(source))
        except CohError:
            continue
        parse_mutants.assert_residues_are_the_fold(d)
        built += 1
    # golden_build_outcomes.json: 80 whose goals all report, 3 whose
    # interpretation fails only when a goal is explained
    assert built == 83
