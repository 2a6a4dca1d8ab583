"""Strong monoidal functor specifications and the evaluation map.

A FunctorSpec packages the four pieces of a strong monoidal functor
between free algebras: the object map, the morphism map, and the
invertible constraints f2 (binary) and f0 (unit). The copying functors'
f2 depends on its arguments only through their lengths, and each spec
builds it once per length pair. check_axioms probes the coherence axioms
on finite sets of objects; in the braided flavor the braid axiom is
probed separately because a functor can be coherent for permutations yet
fail it for braids. For a copying functor, or a composite of copying
functors, every content on both sides of an axiom depends only on the
lengths of its witness words, so a pass at one witness is a pass at
every witness of the same lengths, and check_axioms decides each axiom
once per such length signature; a failure is still built at each of its
witnesses.

lambda_eval reads a universal-algebra term through a functor: plain
letters through a caller-supplied interpretation, formed letters through
the object map, adjoined isomorphisms through folds of f2 and f0. For a
term to evaluate, the functor must live in the term's flavor.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Callable, Mapping, NamedTuple

from .errors import BoundaryError, FlavorError, InterpError, StructureError, UnsupportedOp
from .free_cat import (
    Content,
    Flavor,
    FreeMor,
    FreeMor2,
    GenSet,
    Obj,
    concat_blocks,
    flatten_mu,
    fmor_braiding,
    fmor_compose,
    fmor_equal,
    fmor_id,
    fmor_inverse,
    fmor_join,
    fmor_tensor,
)
from .ualg import (
    FreeLetter,
    ObjMap,
    UBraiding,
    UFree,
    UMor,
    UObj,
    UPhiFree,
    UPhiQ,
    UPhiQInv,
    fold_typed,
    normalize_uobj,
)


class FunctorSpec(NamedTuple):
    flavor: Flavor
    source: GenSet
    target: GenSet
    obj: Callable[[Obj], Obj]
    mor: Callable[[FreeMor], FreeMor]
    f2: Callable[[Obj, Obj], FreeMor]
    f0: Callable[[], FreeMor]
    name: str = "functor"


_NFOLD_RE = re.compile(r"nfold\(([0-9]+)\)$")


def make_builtin_spec(kind: str, gens: GenSet, flavor: Flavor) -> FunctorSpec:
    """identity, doubling, or nfold(n): the n-fold copying functor whose
    binary constraint shuffles the copies into n interleaved groups. The
    identity is the one-fold copy and doubling the two-fold one."""
    if kind == "identity":
        return _nfold(1, gens, flavor, name="identity")
    if kind == "doubling":
        return _nfold(2, gens, flavor, name="doubling")
    if m := _NFOLD_RE.match(kind):
        try:
            n = int(m.group(1))
        except ValueError as err:  # more digits than int() converts
            raise StructureError(str(err)) from err
        if n < 1:
            raise StructureError("nfold needs n >= 1")
        return _nfold(n, gens, flavor)
    raise StructureError(f"unknown builtin functor {kind!r}")


def _nfold(n: int, gens: GenSet, flavor: Flavor, name: str | None = None) -> FunctorSpec:
    """f2(x, y): x^n y^n -> (xy)^n depends on x and y only through their
    lengths, so each spec builds and checks its content once per length
    pair; the labels only decorate the boundary."""
    if n >= 2 and flavor == "M":
        raise UnsupportedOp("copying functors need a braiding; flavor M has none")

    def obj(x: Obj) -> Obj:
        return x * n

    def mor(u: FreeMor) -> FreeMor:
        return fmor_join(u.flavor, u.source * n, u.target * n, [[(k * len(u.source), u.content) for k in range(n)]])

    @functools.cache
    def shuffle(lx: int, ly: int) -> Content:
        xs = [tuple((k, "x", i) for i in range(lx)) for k in range(n)]
        ys = [tuple((k, "y", i) for i in range(ly)) for k in range(n)]
        # at copy k = n .. 2, pull the last copy of x through the earlier copies of y
        rows = [[((k - 1) * lx, fmor_braiding(xs[0], ys[0] * (k - 1), flavor).content)] for k in range(n, 1, -1)]
        # labels (copy, side, index) are all distinct, so one check shows
        # the content sends x^n y^n to (xy)^n for every x and y
        return FreeMor(*fmor_join(flavor, sum(xs + ys, ()), sum(map(tuple.__add__, xs, ys), ()), rows)).content

    def f2(x: Obj, y: Obj) -> FreeMor:
        content = shuffle(len(x), len(y))
        return tuple.__new__(FreeMor, (flavor, x * n + y * n, (x + y) * n, content))

    def f0() -> FreeMor:
        return fmor_id(flavor, ())

    # check_axioms reads this to decide each axiom once per length signature;
    # a spec with any of the four pieces replaced is checked witness by witness
    f2.by_length = (obj, mor, f0)  # type: ignore[attr-defined]
    return FunctorSpec(flavor, gens, gens, obj=obj, mor=mor, f2=f2, f0=f0, name=name or f"nfold({n})")


def _copies(F: FunctorSpec) -> bool:
    """Whether every content of F's axioms depends only on word lengths."""
    return getattr(F.f2, "by_length", None) == (F.obj, F.mor, F.f0)


def compose_specs(g: FunctorSpec, f: FunctorSpec) -> FunctorSpec:
    if f.target != g.source:
        raise BoundaryError(f"cannot compose {g.name} after {f.name}: generator sets differ")
    if f.flavor != g.flavor:
        raise FlavorError(f"cannot compose {g.name} after {f.name}: flavors differ")
    spec = FunctorSpec(
        f.flavor,
        f.source,
        g.target,
        obj=lambda x: g.obj(f.obj(x)),
        mor=lambda u: g.mor(f.mor(u)),
        f2=lambda x, y: fmor_compose(g.mor(f.f2(x, y)), g.f2(f.obj(x), f.obj(y))),
        f0=lambda: fmor_compose(g.mor(f.f0()), g.f0()),
        name=f"{g.name}.{f.name}",
    )
    if _copies(g) and _copies(f):
        # a composite of copying functors copies: each of its pieces is built
        # from its parts' pieces, whose contents depend only on word lengths
        spec.f2.by_length = (spec.obj, spec.mor, spec.f0)  # type: ignore[attr-defined]
    return spec


# -- axiom checking -------------------------------------------------------------


class AxiomFailure(NamedTuple):
    axiom: str
    witness: tuple
    left: FreeMor
    right: FreeMor


class AxiomReport(NamedTuple):
    functor: str
    failures: tuple[AxiomFailure, ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.failures


def default_probe(gens: GenSet, max_len: int = 2) -> list[Obj]:
    out: list[Obj] = []
    for k in range(max_len + 1):
        out.extend(itertools.product(gens.names, repeat=k))
    return out


def check_axioms(F: FunctorSpec, probe: list[Obj] | None = None) -> AxiomReport:
    """Probe associativity, both unit squares, and (outside flavor M) the
    braid axiom on all pairs/triples from the probe set."""
    if probe is None:
        probe = default_probe(F.source)
    flavor = F.flavor
    failures: list[AxiomFailure] = []
    checked = 0
    # a copying functor's sides depend only on the witness's word lengths:
    # decide each axiom once per length signature, any other spec per witness
    by_length = _copies(F)
    verdicts: dict[tuple, bool] = {}

    def record(axiom: str, witness: tuple, sides: Callable[..., tuple[FreeMor, FreeMor]]) -> None:
        nonlocal checked
        checked += 1
        key = (axiom, *map(len, witness)) if by_length else (axiom, witness)
        if equal := verdicts.get(key):
            return
        left, right = sides(*witness)
        if equal is None:
            equal = verdicts[key] = fmor_equal(left, right)
        if not equal:
            failures.append(AxiomFailure(axiom, witness, left, right))

    def associativity(x: Obj, y: Obj, z: Obj) -> tuple[FreeMor, FreeMor]:
        left = fmor_compose(F.f2(x, y + z), fmor_tensor(fmor_id(flavor, F.obj(x)), F.f2(y, z)))
        right = fmor_compose(F.f2(x + y, z), fmor_tensor(F.f2(x, y), fmor_id(flavor, F.obj(z))))
        return left, right

    def unit_left(x: Obj) -> tuple[FreeMor, FreeMor]:
        one = fmor_id(flavor, F.obj(x))
        return fmor_compose(F.f2((), x), fmor_tensor(F.f0(), one)), one

    def unit_right(x: Obj) -> tuple[FreeMor, FreeMor]:
        one = fmor_id(flavor, F.obj(x))
        return fmor_compose(F.f2(x, ()), fmor_tensor(one, F.f0())), one

    def braid(x: Obj, y: Obj) -> tuple[FreeMor, FreeMor]:
        left = fmor_compose(F.f2(y, x), fmor_braiding(F.obj(x), F.obj(y), flavor))
        right = fmor_compose(F.mor(fmor_braiding(x, y, flavor)), F.f2(x, y))
        return left, right

    for witness in itertools.product(probe, repeat=3):
        record("associativity", witness, associativity)
    for x in probe:
        record("unit-left", (x,), unit_left)
        record("unit-right", (x,), unit_right)
    if flavor != "M":
        for witness in itertools.product(probe, repeat=2):
            record("braid", witness, braid)

    return AxiomReport(F.name, tuple(failures), checked)


# -- evaluation -----------------------------------------------------------------


def f_bullet(F: FunctorSpec, blocks: tuple[Obj, ...]) -> FreeMor:
    """The n-ary constraint: F(w1);...;F(wm) -> F(w1 ... wm), with f0 for no
    blocks. One join of f2 folded from the left: row k is f2(w1 ... wk, wk+1)."""
    if not blocks:
        return F.f0()
    rows = [[(0, F.f2(done, w).content)] for done, w in zip(itertools.accumulate(blocks), blocks[1:])]
    return fmor_join(F.flavor, concat_blocks(map(F.obj, blocks)), F.obj(concat_blocks(blocks)), rows)


def check_interp(F: FunctorSpec, interp: Mapping[str, Obj], phi: ObjMap) -> None:
    """An interpretation must cover every plain letter and agree with the
    functor on images of source generators; the functor must also send the
    empty word to the empty word, or normalized objects would shift."""
    if F.source != phi.source:
        raise InterpError(f"functor {F.name} reads {F.source.name}, diagram maps {phi.source.name}")
    if F.obj(()) != ():
        raise InterpError(f"functor {F.name} does not preserve the empty word")
    for g in phi.target.names:
        if g not in interp:
            raise InterpError(f"no interpretation for generator {g!r}")
    for a in phi.source.names:
        try:
            image = F.obj((a,))
        except MemoryError:  # nfold(10**12) copies a letter past any memory
            raise InterpError(f"functor {F.name}: the image of {a!r} is too large to build") from None
        if interp[phi(a)] != image:
            raise InterpError(
                f"interpretation of {phi(a)!r} disagrees with the functor on {a!r}"
            )


def uobj_lambda(x: UObj, F: FunctorSpec, interp: Mapping[str, Obj]) -> Obj:
    return concat_blocks(tuple(interp[l.name]) if isinstance(l, FreeLetter) else F.obj(l.word) for l in x)


def lambda_eval(
    t: UMor, F: FunctorSpec, interp: Mapping[str, Obj], phi: ObjMap
) -> FreeMor:
    """Evaluate a term in the target algebra of the functor."""
    check_interp(F, interp, phi)
    leaf = lambda g, src, tgt: _lambda_leaf(g, src, F, interp, phi)  # noqa: E731
    return fold_typed(t, phi, F.flavor, leaf, fmor_compose, fmor_tensor)[2]


def _lambda_leaf(t: UMor, src: UObj, F: FunctorSpec, interp: Mapping[str, Obj], phi: ObjMap) -> FreeMor:
    flavor = F.flavor
    if isinstance(t, UFree):
        u = t.mor
        blocks_src = tuple(tuple(interp[g]) for g in u.source)
        blocks_tgt = tuple(tuple(interp[g]) for g in u.target)
        inners = tuple(fmor_id(flavor, b) for b in blocks_src)
        return flatten_mu(FreeMor2(flavor, blocks_src, blocks_tgt, u.content, inners))
    if isinstance(t, UPhiFree):
        m2 = t.mor
        return flatten_mu(
            FreeMor2(
                flavor,
                tuple(F.obj(b) for b in m2.source),
                tuple(F.obj(b) for b in m2.target),
                m2.outer,
                tuple(F.mor(i) for i in m2.inners),
            )
        )
    if isinstance(t, UPhiQ):
        return f_bullet(F, t.blocks)
    if isinstance(t, UPhiQInv):
        return fmor_inverse(f_bullet(F, t.blocks))
    if isinstance(t, UBraiding):
        x = uobj_lambda(normalize_uobj(t.x, phi), F, interp)
        y = uobj_lambda(normalize_uobj(t.y, phi), F, interp)
        return fmor_braiding(x, y, flavor)
    return fmor_id(flavor, uobj_lambda(src, F, interp))  # UId

