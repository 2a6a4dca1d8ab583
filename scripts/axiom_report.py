"""Report which monoidal functor axioms the builtin functors satisfy.

The copying functors keep products and units on the nose but reorder the
copies with a shuffle, so the braid axiom can fail even when every
associativity and unit square commutes. This prints the full matrix:

    python3 scripts/axiom_report.py
    python3 scripts/axiom_report.py --kinds doubling "nfold(3)" --max-len 3

Exit status 0 with a report; 2, with the error on stderr, for a functor
kind or generator set that cannot be built.
"""

from __future__ import annotations

import argparse
import sys

from cohcheck.errors import CohError, UnsupportedOp
from cohcheck.free_cat import GenSet, format_obj
from cohcheck.functor_eval import check_axioms, default_probe, make_builtin_spec

FLAVORS = {"M": "plain", "S": "symmetric", "B": "braided"}


def run(kinds: tuple[str, ...], gens: GenSet, max_len: int) -> int:
    probe = default_probe(gens, max_len)
    print(f"probe: {len(probe)} objects over {{{', '.join(gens.names)}}}, "
          f"length <= {max_len}\n")
    for kind in kinds:
        for flavor, word in FLAVORS.items():
            try:
                spec = make_builtin_spec(kind, gens, flavor)
            except UnsupportedOp as err:
                print(f"{kind:<10} {word:<10} not definable: {err}")
                continue
            rep = check_axioms(spec, probe)
            status = "ok" if rep.ok else f"{len(rep.failures)} failures"
            print(f"{kind:<10} {word:<10} {rep.checked:>4} checks  {status}")
            by_axiom: dict[str, list] = {}
            for f in rep.failures:
                by_axiom.setdefault(f.axiom, []).append(f)
            for axiom, fails in sorted(by_axiom.items()):
                first = fails[0].witness
                shown = " | ".join(format_obj(x) for x in first)
                print(f"{'':<21}{axiom}: {len(fails)} witnesses, first ({shown})")
        print()
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kinds", nargs="+",
                    default=["identity", "doubling", "nfold(3)", "nfold(4)"])
    ap.add_argument("--gens", nargs="+", default=["a", "b"])
    ap.add_argument("--max-len", type=int, default=2)
    args = ap.parse_args()
    try:
        return run(tuple(args.kinds), GenSet("G", tuple(args.gens)), args.max_len)
    except CohError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
