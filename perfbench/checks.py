"""Checks of cohcheck's outputs that share no code with what they check.

Braid words are decided by handle reduction (``tests/braid_oracle.py``),
which has nothing in common with the Garside normal form the program uses.
Fixture verdicts come from a table written by hand, each with its reason
taken from the fixture's own comment. Axiom reports are checked against
the properties the copying functors are known to have.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

EQUAL = "equal"
S_ONLY = "equal_in_s_only"
NOT_EQUAL = "not_equal"

# fixture -> (flavor, goal, verdict, reason)
FIXTURES = {
    "cursed_cyclic": ("B", "cyc", S_ONLY,
                      "cyclic braiding of four interleaved pairs: one permutation, "
                      "but strands 2 and 5 stay linked on one side only"),
    "cursed_lift": ("S", "natq", EQUAL,
                    "the swap of two formed letters agrees with the formed image of the swap, "
                    "carried by the four-fold copying functor"),
    "mystery1": ("B", "hex", EQUAL,
                 "coherence hexagon mixing a monoidal-constraint collapse with a braiding"),
    "mystery2": ("B", "natm", EQUAL,
                 "naturality square for the collapse of two pairs, transposition before and after"),
    "mystery3": ("B", "natb", S_ONLY,
                 "block braiding against the four strand-level crossings: "
                 "equal permutations, unequal braids"),
    "notequal": ("S", "diff", NOT_EQUAL, "a transposition against the identity"),
    "pair": ("B", "braidax", S_ONLY, "s2 squared cancels in the permutation but not in the braid"),
}


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("braid_oracle", root / "tests" / "braid_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_word(text: str) -> tuple[int, ...]:
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append(-int(tok[1:-3]))
        else:
            out.append(int(tok[1:]))
    return tuple(out)


def half_twist(n: int) -> tuple[int, ...]:
    """A positive word for Delta on n strands: (s1..s_{n-1})(s1..s_{n-2})..(s1)."""
    return tuple(j for top in range(n - 1, 0, -1) for j in range(1, top + 1))


def expand_nf(text: str, n: int) -> tuple[int, ...]:
    """The word a braided ``nf`` string stands for: D^k, then each factor."""
    head, _, rest = text.partition(" ")
    if not head.startswith("D^"):
        raise ValueError(f"normal form {text!r} does not start with D^k")
    k = int(head[2:])
    delta = half_twist(n)
    word = list(delta * k if k >= 0 else tuple(-l for l in reversed(delta)) * -k)
    for part in rest.split(")"):
        part = part.strip()
        if part:
            if not part.startswith("("):
                raise ValueError(f"bad factor {part!r} in {text!r}")
            word.extend(parse_word(part[1:]))
    return tuple(word)


def check_report(rep: dict, flavor: str, verdict: str, oracle=None, model=None) -> list[str]:
    """Problems with one goal's JSON entry. Without an oracle only the
    verdict is compared; with it, both words, both normal forms and both
    permutations are decided independently, and, given the model words of
    a generated goal, each side is decided against them."""
    errs = []
    if rep.get("verdict") != verdict:
        errs.append(f"goal {rep.get('goal')}: verdict {rep.get('verdict')}, expected {verdict}")
    if oracle is None:
        return errs
    sides = (rep["left"], rep["right"])
    n = len(sides[0]["perm"])
    words = [parse_word(s["word"]) for s in sides]
    perms = [tuple(i - 1 for i in s["perm"]) for s in sides]
    for label, s, w, p in zip(("left", "right"), sides, words, perms):
        if oracle.word_perm(w, n) != p:
            errs.append(f"{label}: perm {s['perm']} is not the permutation of its word")
        if flavor == "B":
            if not oracle.words_equal(expand_nf(s["nf"], n), w):
                errs.append(f"{label}: nf {s['nf']!r} is not its word")
        elif s["nf"] != s["word"]:
            errs.append(f"{label}: symmetric nf differs from its word")
    if model is not None:
        for label, w, m in zip(("left", "right"), words, model):
            if flavor == "B" and not oracle.words_equal(w, m):
                errs.append(f"{label}: word differs from the constructed braid")
            if oracle.word_perm(w, n) != oracle.word_perm(m, n):
                errs.append(f"{label}: permutation differs from the constructed one")
    same_perm = perms[0] == perms[1]
    if flavor == "B":
        same_braid = oracle.words_equal(words[0], words[1])
        decided = EQUAL if same_braid else S_ONLY if same_perm else NOT_EQUAL
    else:
        decided = EQUAL if same_perm else NOT_EQUAL
    if decided != verdict:
        errs.append(f"oracle decides {decided}, expected {verdict}")
    return errs


# -- the functor axiom matrix ------------------------------------------------------


def expected_checked(probe_size: int, flavor: str) -> int:
    p = probe_size
    return p**3 + 2 * p + (p * p if flavor != "M" else 0)


def expected_failures(kind: str, flavor: str, probe) -> set:
    """Copying functors shuffle the copies, so in the braided flavor the
    braid axiom fails exactly when both objects are nonempty; everything
    else holds."""
    if kind == "identity" or flavor != "B":
        return set()
    return {("braid", (x, y)) for x, y in itertools.product(probe, repeat=2) if x and y}


def check_axiom_report(rep, kind: str, flavor: str, probe) -> list[str]:
    errs = []
    want = expected_checked(len(probe), flavor)
    if rep.checked != want:
        errs.append(f"{kind} {flavor}: {rep.checked} checks, expected {want}")
    got = [(f.axiom, f.witness) for f in rep.failures]
    if len(set(got)) != len(got) or set(got) != expected_failures(kind, flavor, probe):
        errs.append(f"{kind} {flavor}: failures {sorted(set(got))[:3]}... differ from the expected set")
    return errs


def oracle_axioms(spec, kind: str, probe, oracle, fns) -> list[str]:
    """Rebuild every braided associativity, unit and braid instance and
    decide it by handle reduction."""
    fmor_compose, fmor_tensor, fmor_id, fmor_braiding = fns
    F, fl = spec, "B"
    errs = []

    def decide(axiom, witness, left, right, want):
        if oracle.words_equal(left.content.letters, right.content.letters) != want:
            errs.append(f"{kind}: oracle disagrees on {axiom} {witness}")

    for x, y, z in itertools.product(probe, repeat=3):
        left = fmor_compose(F.f2(x, y + z), fmor_tensor(fmor_id(fl, F.obj(x)), F.f2(y, z)))
        right = fmor_compose(F.f2(x + y, z), fmor_tensor(F.f2(x, y), fmor_id(fl, F.obj(z))))
        decide("associativity", (x, y, z), left, right, True)
    for x in probe:
        one = fmor_id(fl, F.obj(x))
        decide("unit-left", (x,), fmor_compose(F.f2((), x), fmor_tensor(F.f0(), one)), one, True)
        decide("unit-right", (x,), fmor_compose(F.f2(x, ()), fmor_tensor(one, F.f0())), one, True)
    for x, y in itertools.product(probe, repeat=2):
        left = fmor_compose(F.f2(y, x), fmor_braiding(F.obj(x), F.obj(y), fl))
        right = fmor_compose(F.mor(fmor_braiding(x, y, fl)), F.f2(x, y))
        decide("braid", (x, y), left, right, kind == "identity" or not (x and y))
    return errs
