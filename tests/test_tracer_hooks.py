"""The benchmark's tracer (perfbench/tracer.py) hooks library functions by
name and counts validating FreeMor constructions through
FreeMor.__post_init__. These tests load it by path and check that every
name it hooks is still bound, and that only the validating path counts."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import cohcheck.cli  # noqa: F401  the tracer hooks names in every cohcheck module
from cohcheck import free_cat
from cohcheck.free_cat import FreeMor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
