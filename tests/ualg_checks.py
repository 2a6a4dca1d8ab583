"""Operations on ualg terms and objects that only the tests use: the
embedding of free morphisms, equality of parallel terms, per-letter
signatures and tidiness. The tests state the paper's facts through them."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from cohcheck.errors import BoundaryError, UnknownName
from cohcheck.free_cat import Flavor, FreeMor, Obj, fmor_equal
from cohcheck.ualg import (
    FreeLetter, ObjMap, PhiLetter, UFree, UMor, UObj, _dissolution, fold, format_uobj, validate_umor,
)


def kappa_embed(u: FreeMor) -> UMor:
    """Free morphisms over the target generators embed as they are;
    dissolution undoes the embedding exactly."""
    return UFree(u)


def umor_equal(s: UMor, t: UMor, phi: ObjMap, flavor: Flavor) -> bool:
    ss, st, su = _dissolution(s, phi, flavor)
    ts, tt, tu = _dissolution(t, phi, flavor)
    if (ss, st) != (ts, tt):
        raise BoundaryError(
            f"equality of non-parallel terms: {format_uobj(ss)} -> {format_uobj(st)}"
            f" vs {format_uobj(ts)} -> {format_uobj(tt)}"
        )
    return fmor_equal(su, tu)


# -- counting invariants ------------------------------------------------------


def signature_of(
    x: UObj,
    weight: Mapping[str, int] | Callable[[str], int],
    phi_weight: Mapping[Obj, int] | Callable[[Obj], int],
) -> list[int]:
    """Per-letter weights: plain letters through the generator weighting,
    formed letters through the word weighting."""
    wf = weight if callable(weight) else weight.__getitem__
    pf = phi_weight if callable(phi_weight) else phi_weight.__getitem__
    out: list[int] = []
    for letter in x:
        try:
            out.append(wf(letter.name) if isinstance(letter, FreeLetter) else pf(letter.word))
        except KeyError as exc:
            raise UnknownName(f"no weight for letter {letter}") from exc
    return out


def is_tidy(x: UObj, unit_gens: Iterable[str]) -> bool:
    """No formed letter built from unit-like generators alone."""
    units = frozenset(unit_gens)
    return not any(
        isinstance(letter, PhiLetter) and all(a in units for a in letter.word) for letter in x
    )


def is_tidy_composite(
    ts: Sequence[UMor], phi: ObjMap, flavor: Flavor, unit_gens: Iterable[str]
) -> bool:
    """Every step a product of generators, every boundary tidy."""
    units = frozenset(unit_gens)
    for t in ts:
        src, tgt = validate_umor(t, phi, flavor)
        if not (is_tidy(src, units) and is_tidy(tgt, units)):
            return False
        if fold(t, lambda g: False, lambda a, f: True, lambda l, r: l or r):  # a composite inside
            return False
    return True
