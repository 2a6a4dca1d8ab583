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
from cohcheck.diagram_check import Diagram
from cohcheck.errors import CohError
from cohcheck.ualg import _dissolution

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


def _assert_residues_are_the_fold(d: Diagram) -> None:
    assert d.residues.keys() == d.edges.keys()
    for name, e in d.edges.items():
        edge, residue = d.residues[name]
        assert edge is e
        assert _dissolution(e.term, d.phi, d.flavor) == (d.nodes[e.source], d.nodes[e.target], residue), name


@pytest.mark.parametrize("path", FIXTURES + LONG, ids=lambda p: p.name)
def test_residue_is_the_fold_on_files(path):
    _assert_residues_are_the_fold(build_diagram(parse_source(path.read_text(encoding="utf-8"))))


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
        _assert_residues_are_the_fold(build_diagram(parse_source(f.text)))


def test_residue_is_the_fold_on_every_mutant_that_builds():
    built = 0
    for _, source in parse_mutants.mutants():
        try:
            d = build_diagram(parse_source(source))
        except CohError:
            continue
        _assert_residues_are_the_fold(d)
        built += 1
    # golden_build_outcomes.json: 80 whose goals all report, 3 whose
    # interpretation fails only when a goal is explained
    assert built == 83
