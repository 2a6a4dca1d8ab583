from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohcheck

ROOT = Path(__file__).resolve().parent.parent
# stdout of `scripts/axiom_report.py` with its default arguments
GOLDEN_AXIOMS = (Path(__file__).resolve().parent / "golden_axiom_report.txt").read_text(encoding="utf-8")


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(cohcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True
    )


def test_axiom_report_frozen():
    r = run_script("axiom_report.py")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == GOLDEN_AXIOMS


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kinds", "nfold(0)"], "error: nfold needs n >= 1\n"),
        (["--kinds", "nfold(x)"], "error: unknown builtin functor 'nfold(x)'\n"),
        (["--gens", "a", "a"], "error: generator set G: duplicate names\n"),
    ],
    ids=["nfold-zero", "nfold-not-a-count", "duplicate-generator"],
)
def test_axiom_report_bad_input(args, message):
    r = run_script("axiom_report.py", *args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr == message
