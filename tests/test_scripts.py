from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cohcheck

ROOT = Path(__file__).resolve().parent.parent
# stdout of `scripts/axiom_report.py` with its default arguments
GOLDEN_AXIOMS = (Path(__file__).resolve().parent / "golden_axiom_report.txt").read_text(encoding="utf-8")
# stdout of `scripts/axiom_report.py --kinds doubling "nfold(3)" "nfold(5)" --max-len 3`
GOLDEN_AXIOMS_LEN3 = (Path(__file__).resolve().parent / "golden_axiom_report_len3.txt").read_text(encoding="utf-8")


def run_script(name: str, *args: str, folder: str = "scripts") -> subprocess.CompletedProcess:
    src = str(Path(cohcheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, str(ROOT / folder / name), *args], env=env, capture_output=True, text=True
    )


def test_axiom_report_frozen():
    r = run_script("axiom_report.py")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == GOLDEN_AXIOMS


def test_axiom_report_frozen_to_length_three():
    # words up to length 3 reach length signatures the default probe does not
    r = run_script("axiom_report.py", "--kinds", "doubling", "nfold(3)", "nfold(5)", "--max-len", "3")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == GOLDEN_AXIOMS_LEN3


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


# rows of `scripts/check_corpus.py --flatten` on the fixtures before the time
# column was added; without --flatten each row stops before "flattened"
CORPUS_ROWS = """\
cursed_cyclic   cyc      equal_in_s_only  left [s6 s5 s4 s3 s2 s1 s7 s6 s5 s4 s3 s2 s2 s6 s4 s3 s5 s4]  right [s2 s6 s4 s3 s5 s4 s3 s2 s1 s7 s6 s5]  flattened equal
cursed_lift     natq     equal            left [s1]  right [s1]
mystery1        hex      equal            left [s1 s2]  right [s1 s2]  flattened equal
mystery2        natm     equal            left [s2]  right [s2]  flattened equal
mystery3        natb     equal_in_s_only  left [s2 s1 s3 s2 s2]  right [s2 s1 s3]  flattened equal
notequal        diff     not_equal        left [s1]  right []
pair            braidax  equal_in_s_only  left [s2 s2 s1 s3 s2]  right [s1 s3 s2]  flattened equal
"""


@pytest.mark.parametrize("flatten", [False, True], ids=["plain", "flatten"])
def test_check_corpus_time_column(flatten):
    r = run_script("check_corpus.py", "--dir", str(ROOT / "fixtures"), *(["--flatten"] if flatten else []))
    assert (r.returncode, r.stderr) == (1, "")
    # the padded file name, then the milliseconds in 8 characters
    timed = re.compile(r"^(.{16})[ \d]{5}\d\.\d ms  (\S.*)$")
    rows = []
    for line in r.stdout.splitlines():
        m = timed.match(line)
        assert m is not None, line
        rows.append(m.group(1) + m.group(2))
    expected = CORPUS_ROWS.splitlines()
    if not flatten:
        expected = [row.split("  flattened")[0] for row in expected]
    assert rows == expected


def test_check_corpus_unreadable_files_are_error_rows(tmp_path):
    (tmp_path / "bad.coh").write_bytes(b"flavor braided\n\xff\n")
    (tmp_path / "dir.coh").mkdir()
    r = run_script("check_corpus.py", "--dir", str(tmp_path))
    assert (r.returncode, r.stderr) == (1, "")
    rows = [re.sub(r"^(\S+) +[\d.]+ ms  ", r"\1 ", line) for line in r.stdout.splitlines()]
    assert rows == [
        f"bad error: {tmp_path / 'bad.coh'}: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte",
        f"dir error: {tmp_path / 'dir.coh'}: Is a directory",
    ]


def test_mutation_differential():
    # the differential that elaboration changes run at N = 60,000 on both
    # trees, at a size tier-1 affords: the digest freezes the mutants drawn
    # and their outcomes, and every diagram that builds agrees with the fold
    r = run_script("parse_mutants.py", "differential", "300", "7", folder="tests")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.splitlines() == [
        "digest f043aa2579d1008b7d2e9609d889cba895353503de817623a07c6cad65d4df5d",
        "ParseError 274", "ElabError 21", "StructureError 2", "built 2", "UnknownName 1",
        "fold agreed on 2 diagrams",
    ]
