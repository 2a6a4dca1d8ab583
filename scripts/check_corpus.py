"""Check every goal in a directory of .coh files and print a verdict table.

Each row is one goal: the file, the milliseconds the file took to parse,
build and explain (the same on every row of a file), the goal, its verdict
and the braid word of each side.

Run from the repository root:

    python3 scripts/check_corpus.py
    python3 scripts/check_corpus.py --dir fixtures --flatten
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from cohcheck.cli import _load
from cohcheck.diagram_check import EQUAL, check_goal, diagram_shadow, explain_goal
from cohcheck.errors import CohError


def run(directory: Path, flatten: bool) -> int:
    """flatten: also report the symmetric flattening of braided files."""
    files = sorted(directory.glob("*.coh"))
    if not files:
        print(f"no .coh files under {directory}", file=sys.stderr)
        return 2
    width = max(len(p.stem) for p in files) + 2
    failures = 0
    for path in files:
        start = time.perf_counter()
        error: CohError | None = None
        try:
            d = _load(str(path))  # an unreadable file is a CohError too
            reports = [explain_goal(d, goal) for goal in d.goals]
        except CohError as err:
            error = err
        head = f"{path.stem:<{width}} {1000 * (time.perf_counter() - start):8.1f} ms "
        if error is not None:
            print(f"{head} error: {error}")
            failures += 1
            continue
        flat = diagram_shadow(d) if flatten and d.flavor == "B" else None
        for goal, rep in zip(d.goals, reports):
            line = (
                f"{head} {goal.name:<8} {rep.verdict:<16} "
                f"left [{rep.left.word}]  right [{rep.right.word}]"
            )
            if flat is not None:
                line += f"  flattened {check_goal(flat, goal)}"
            print(line)
            if rep.verdict != EQUAL:
                failures += 1
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", type=Path, default=Path("fixtures"))
    ap.add_argument("--flatten", action="store_true",
                    help="also check braided files at the permutation level")
    args = ap.parse_args()
    return run(args.dir, args.flatten)


if __name__ == "__main__":
    sys.exit(main())
