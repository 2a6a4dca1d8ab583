"""The benchmark's tracer (perfbench/tracer.py) hooks library functions by
name and counts validating FreeMor constructions through
FreeMor.__post_init__. These tests load it by path and check that every
name it hooks is still bound, that only the validating path counts, and
that the normal form's work stays under its traced name."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from cohcheck import diagram_check, free_cat
from cohcheck.cli import build_diagram, parse_source  # the tracer hooks names in every cohcheck module
from cohcheck.diagram_check import dissolve_path
from cohcheck.free_cat import FreeMor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
LONG = Path(__file__).resolve().parent / "long"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_validating_constructions_only():
    post_init, compose = FreeMor.__post_init__, free_cat.fmor_compose
    tracer = _tracer()
    tracer.install()
    try:
        counts = tracer.counts
        FreeMor("S", ("a", "b"), ("b", "a"), (1, 0))
        assert counts["freemor_built"] == 1
        free_cat.fmor_compose(free_cat.fmor_id("B", ("a",)), free_cat.fmor_id("B", ("a",)))
        assert counts["freemor_built"] == 1
        assert tracer.totals()["free_cat.fmor_compose"]["calls"] == 1
    finally:
        tracer.uninstall()
    assert FreeMor.__post_init__ is post_init
    assert free_cat.fmor_compose is compose


def test_tracer_sees_the_normal_form_on_a_diagrams_tables():
    """A traced explain_goal on a long braided file still counts every
    normal form through normalize_braid, and the letters it is handed:
    the tabled pass runs on the diagram's tables, under the traced name.
    Each distinct goal side is normalized once."""
    d = build_diagram(parse_source((LONG / "braided4.coh").read_text(encoding="utf-8")))
    tracer = _tracer()
    tracer.install()
    try:
        for g in d.goals:
            diagram_check.explain_goal(d, g)
    finally:
        tracer.uninstall()
    sides = {path for g in d.goals for path in (g.left, g.right)}
    normalize = tracer.totals()["braid_core.normalize_braid"]
    assert normalize["calls"] == normalize["under_explain"] == len(sides)
    assert tracer.counts["nf_letters_in"] == sum(len(dissolve_path(d, path).content.letters) for path in sides)
    assert list(d.nf_tables) == [4]  # the sides are long enough for the tabled pass
