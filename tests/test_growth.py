"""Growth canaries: families of generated inputs at sizes k, 2k and 4k.

A family asserts how deterministic counts grow, never times. The count is
the letters handed to the content builders (braid_compose, fmor_join and
normalize_braid) and to uobj_dissolve, which reads labels off letters,
summed over every call while a file is parsed, built and its goals
explained. Each builder is wrapped in every cohcheck module that
imported it. A linear family passes when each doubling multiplies every
count by at most LINEAR. One family counts output bytes, whose size is
itself the answer, and asserts their true, quadratic order. Mixed-sign
braid words count the pair repairs of the normal form on each of its two
passes, edges of k copies of one row count the parser's factor parses,
and an edge of k distinct perm(..) rows counts its builds and the tuples
and lists it keeps.
"""

from __future__ import annotations

import collections
import random
import sys
from itertools import islice, permutations

import pytest

import cohcheck.braid_core
import cohcheck.cli
import cohcheck.free_cat
import cohcheck.ualg
from cohcheck.braid_core import BraidWord
from cohcheck.cli import build_diagram, main, parse_source
from cohcheck.diagram_check import explain_goal

LINEAR = 2.3


def _letters(content) -> int:
    """A content's length: letters of a braid, entries of a permutation."""
    if isinstance(content, BraidWord):
        return len(content.letters)
    return 0 if content is None else len(content)


# each builder, its home module, and the letters one call is handed
BUILDERS = {
    "braid_compose": (cohcheck.braid_core, lambda u, v: len(u.letters) + len(v.letters)),
    "fmor_join": (cohcheck.free_cat, lambda flavor, source, target, rows: sum(_letters(c) for m in rows for _, c in m)),
    "normalize_braid": (cohcheck.braid_core, lambda w: len(w.letters)),
    "uobj_dissolve": (cohcheck.ualg, lambda x, phi: len(x)),
}


def _letters_handed(monkeypatch, source: str) -> collections.Counter:
    handed = collections.Counter()
    with monkeypatch.context() as patch:
        for name, (home, size) in BUILDERS.items():
            original = getattr(home, name)

            def counting(*args, name=name, original=original, size=size, **kwargs):
                handed[name] += size(*args)
                return original(*args, **kwargs)

            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cohcheck") and getattr(mod, name, None) is original:
                    patch.setattr(mod, name, counting)
        d = build_diagram(parse_source(source))
        for g in d.goals:
            explain_goal(d, g)
    return handed


# one 40-letter edge on 3 strands
WORD = " ".join(("s1", "s2", "s1^-1", "s2", "s2^-1")[i % 5] for i in range(40))


def _file(flavor: str, body: str) -> str:
    return f"flavor {flavor}\ngens A = {{ a }}\ngens A2 = {{ fa }}\nmap phi : A -> A2 {{ a -> fa }}\n" + body


def _goal_path(flavor: str, k: int) -> str:
    """A goal whose sides are k copies of one edge and k copies of another
    with the same word: two paths, so that each side is joined and
    normalized."""
    left, right = (" . ".join([name] * k) for name in "ef")
    edges = f"edge e : n -> n = {WORD}\nedge f : n -> n = {WORD}\n"
    return _file(flavor, f"node n = [fa fa fa]\n{edges}goal g : {left} == {right}\n")


@pytest.mark.parametrize("flavor", ["braided", "symmetric"])
def test_goal_paths_are_linear(monkeypatch, flavor):
    k = 50
    counts = [_letters_handed(monkeypatch, _goal_path(flavor, size)) for size in (k, 2 * k, 4 * k)]
    # the counters see the path: both sides' letters, or strands in flavor S
    assert sum(counts[0].values()) >= 2 * k * (40 if flavor == "braided" else 3)
    for small, large in zip(counts, counts[1:]):
        for name in BUILDERS:
            assert large[name] <= LINEAR * small[name], (name, small[name], large[name])


# rows in the order they are applied: a formed letter split and glued
# again, and braid words on the plain letters beside it
ROWS = ("id ; s1", "q^-1(a | a) ; id", "q(a | a) ; id", "id ; s1 s1")


def _edge_of_rows(flavor: str, k: int) -> str:
    """A goal on one edge of k rows."""
    rows = " . ".join(ROWS[i % len(ROWS)] for i in reversed(range(k)))
    return _file(flavor, f"node n = phi(a a) ; [fa fa]\nedge e : n -> n = {rows}\ngoal g : e == e\n")


def _row_of_factors(flavor: str, k: int) -> str:
    """A goal on one edge of one row of k factors, id and s1 by turns."""
    node = " ; ".join(["phi(a a) ; [fa fa]"] * (k // 2))
    row = " ; ".join(["id ; s1"] * (k // 2))
    return _file(flavor, f"node n = {node}\nedge e : n -> n = {row}\ngoal g : e == e\n")


@pytest.mark.parametrize("flavor", ["braided", "symmetric"])
@pytest.mark.parametrize("family", [_edge_of_rows, _row_of_factors], ids=["edge_of_k_rows", "row_of_k_factors"])
def test_elaboration_is_linear(monkeypatch, family, flavor):
    """Elaboration reads each factor's chunk, not the rest of its row: a
    take step that handed a build the rest would make a row of k factors
    quadratic in the letters handed to uobj_dissolve."""
    k = 40
    counts = [_letters_handed(monkeypatch, family(flavor, size)) for size in (k, 2 * k, 4 * k)]
    # the counters see the edge: its source and target are read for labels
    assert counts[0]["uobj_dissolve"] >= 2 * (3 if family is _edge_of_rows else 3 * k // 2)
    for small, large in zip(counts, counts[1:]):
        for name in BUILDERS:
            assert large[name] <= LINEAR * small[name], (name, small[name], large[name])


def _goals_on_one_edge(flavor: str, k: int) -> str:
    """k goals e . e == e . e on the one edge."""
    goals = "".join(f"goal g{i} : e . e == e . e\n" for i in range(k))
    return _file(flavor, f"node n = [fa fa fa]\nedge e : n -> n = {WORD}\n{goals}")


@pytest.mark.parametrize("flavor", ["braided", "symmetric"])
def test_goals_on_one_edge_dissolve_it_once(monkeypatch, flavor):
    """The edge is dissolved once per diagram, and the one side e . e is
    joined and normalized once per diagram, so no count grows with the
    number of goals: not the letters handed to uobj_dissolve, nor to
    fmor_join, nor to normalize_braid."""
    k = 40
    counts = [_letters_handed(monkeypatch, _goals_on_one_edge(flavor, size)) for size in (k, 2 * k, 4 * k)]
    # the counters see the side: its letters, or strands in flavor S
    assert counts[0]["fmor_join"] >= 2 * (40 if flavor == "braided" else 3)
    assert counts[0]["uobj_dissolve"] > 0
    assert counts[0]["normalize_braid"] == (2 * 40 if flavor == "braided" else 0)
    for name in BUILDERS:
        assert counts[0][name] == counts[1][name] == counts[2][name], (name, [c[name] for c in counts])


def _pf_on_blocks(flavor: str, k: int, outer: bool) -> str:
    """One pf(..) with k inners s1 on k blocks phi(a a); its outer is id, or
    a word of k - 1 letters, which cable spreads over the blocks."""
    node = " ; ".join(["phi(a a)"] * k)
    word = " ".join(f"s{i}" for i in range(1, k)) if outer else "id"
    inners = ", ".join(["s1"] * k)
    return _file(flavor, f"node n = {node}\nedge e : n -> n = pf(outer={word}; inner={inners})\ngoal g : e == e\n")


@pytest.mark.parametrize("flavor", ["braided", "symmetric"])
@pytest.mark.parametrize("outer", [False, True], ids=["outer_id", "outer_word"])
def test_pf_on_k_blocks_is_linear(monkeypatch, flavor, outer):
    k = 40
    counts = [_letters_handed(monkeypatch, _pf_on_blocks(flavor, size, outer)) for size in (k, 2 * k, 4 * k)]
    # the counters see every block: the edge's letters are read for labels
    assert counts[0]["uobj_dissolve"] >= 2 * k
    for small, large in zip(counts, counts[1:]):
        for name in BUILDERS:
            assert large[name] <= LINEAR * small[name], (name, small[name], large[name])


def _braid_of_width(flavor: str, k: int) -> str:
    """One edge braid([fa], Y) with Y of k letters, formed phi(a a) and
    plain fa by turns, so that the braid passes one strand over 3k/2."""
    y = " ; ".join(["phi(a a) ; [fa]"] * (k // 2))
    body = f"node n = [fa] ; {y}\nnode m = {y} ; [fa]\nedge e : n -> m = braid([fa], {y})\ngoal g : e == e\n"
    return _file(flavor, body)


@pytest.mark.parametrize("flavor", ["braided", "symmetric"])
def test_braid_of_width_k_is_linear(monkeypatch, flavor):
    k = 20
    counts = [_letters_handed(monkeypatch, _braid_of_width(flavor, size)) for size in (k, 2 * k, 4 * k)]
    # the counters see the width: both sides carry the block braid's 3k/2 letters or strands
    assert counts[0]["fmor_join"] >= 2 * 3 * k // 2
    for small, large in zip(counts, counts[1:]):
        for name in BUILDERS:
            assert large[name] <= LINEAR * small[name], (name, small[name], large[name])


def _rows_of_copies(flavor: str, k: int, factor: str, item: str) -> str:
    """A goal on one edge of k copies of one row, which holds one factor."""
    rows = " . ".join([factor] * k)
    return _file(flavor, f"node n = {item}\nedge e : n -> n = {rows}\ngoal g : e == e\n")


@pytest.mark.parametrize("flavor", ["braided", "symmetric"])
@pytest.mark.parametrize(
    "factor, item", [("braid([fa], [fa])", "[fa fa]"), ("pf(outer=id; inner=s1)", "phi(a a)")], ids=["braid", "pf"]
)
def test_k_copies_of_a_row_parse_it_once(monkeypatch, flavor, factor, item):
    """The parser looks a row up by its tokens before it parses it, so an
    edge of k copies of one row parses its factor, and for pf(..) the
    factors inside, once at k, 2k and 4k."""
    k = 40
    counts = []
    for size in (k, 2 * k, 4 * k):
        source = _rows_of_copies(flavor, size, factor, item)
        parses = collections.Counter()
        with monkeypatch.context() as patch:
            original = cohcheck.cli._parse_factor

            def counting(cur, original=original):
                parses[cur.texts[cur.i]] += 1
                return original(cur)

            patch.setattr(cohcheck.cli, "_parse_factor", counting)
            sf = parse_source(source)
        d = build_diagram(sf)
        assert explain_goal(d, d.goals[0]).verdict == "equal"
        counts.append(parses)
    assert counts[0] == counts[1] == counts[2] == ({"braid": 1} if factor.startswith("braid") else {"pf": 1, "id": 1, "s1": 1})


def _distinct_perm_rows(k: int) -> str:
    """A goal on one edge of k rows, each a distinct perm(..) of 6 letters
    fa, so that no row repeats and the edge ends where it starts."""
    rows = " . ".join(f"perm({' '.join(map(str, p))})" for p in islice(permutations(range(1, 7)), k))
    return _file("symmetric", f"node n = [fa fa fa fa fa fa]\nedge e : n -> n = {rows}\ngoal g : e == e\n")


def _held(root) -> set[int]:
    """The ids of the tuples and lists reachable from root through tuples
    and lists."""
    seen, todo = set(), [root]
    while todo:
        x = todo.pop()
        if isinstance(x, (tuple, list)) and id(x) not in seen:
            seen.add(id(x))
            todo.extend(x)
    return seen


def test_distinct_perm_rows_are_applied_and_kept_linearly(monkeypatch):
    """An edge of k distinct perm(..) rows builds none of them, at k, 2k
    and 4k, and the objects it keeps beyond its parse grow by at most two a
    row: the row's pair and its source letters."""
    k = 40
    kept = []
    for size in (k, 2 * k, 4 * k):
        builds = collections.Counter()
        with monkeypatch.context() as patch:
            original = cohcheck.cli._elab_factor

            def counting(key, *args, original=original):
                builds[key[0][0]] += 1
                return original(key, *args)

            patch.setattr(cohcheck.cli, "_elab_factor", counting)
            sf = parse_source(_distinct_perm_rows(size))
            d = build_diagram(sf)
        assert builds["perm"] == 0
        assert explain_goal(d, d.goals[0]).verdict == "equal"
        (e,) = d.edges.values()
        kept.append(len(_held(e[3]) - _held(sf.edges)))
    assert kept[0] >= k  # the count sees every row
    for small, large in zip(kept, kept[1:]):
        assert large <= LINEAR * small, kept
    assert kept[1] - kept[0] <= 2 * k and kept[2] - kept[1] <= 2 * 2 * k, kept


def _mixed_sign_word(n: int, k: int) -> BraidWord:
    """The first k letters of one seeded word, 30 % of them inverse."""
    rng = random.Random(f"mixed-sign:{n}")
    letters = [rng.randrange(1, n) * (-1 if rng.random() < 0.3 else 1) for _ in range(1200)]
    return BraidWord(n, tuple(letters[:k]))


@pytest.mark.parametrize("n, path", [(4, "_normalize_tabled"), (8, "_normalize_incremental")])
def test_mixed_sign_words_are_linear(monkeypatch, n, path):
    """The pair repairs that _left_weight_pair computes while a word is
    normalized: every one on the incremental pass, and on the tabled pass
    only each pair's first, so the count there levels off."""
    k = 300
    counts = []
    for size in (k, 2 * k, 4 * k):
        calls = collections.Counter()
        with monkeypatch.context() as patch:
            for name in ("_left_weight_pair", "_normalize_tabled", "_normalize_incremental"):
                original = getattr(cohcheck.braid_core, name)

                def counting(*args, name=name, original=original):
                    calls[name] += 1
                    return original(*args)

                patch.setattr(cohcheck.braid_core, name, counting)
            cohcheck.braid_core.normalize_braid(_mixed_sign_word(n, size))
        assert calls[path] == 1
        counts.append(calls["_left_weight_pair"])
    assert counts[0] >= k // 10, counts
    for small, large in zip(counts, counts[1:]):
        assert large <= LINEAR * small, counts


def _perm_reversal(k: int) -> str:
    """One edge perm(k … 1) on k letters fa, and the goal e == e . e . e."""
    images = " ".join(str(i) for i in range(k, 0, -1))
    node = " ".join(["fa"] * k)
    return _file("symmetric", f"node n = [{node}]\nedge e : n -> n = perm({images})\ngoal g : e == e . e . e\n")


def test_perm_reversal_output_is_quadratic(tmp_path, capsys):
    """The reversal's word has k(k - 1)/2 letters, and check and dissolve
    print it in full, so their stdout grows with the square of k while the
    file grows linearly. ROADMAP item 6 bounds the output."""
    k = 20
    sizes = collections.defaultdict(list)
    for size in (k, 2 * k, 4 * k):
        path = tmp_path / f"reversal{size}.coh"
        path.write_text(_perm_reversal(size), encoding="utf-8")
        sizes["file"].append(path.stat().st_size)
        for command in ("check", "dissolve"):
            with pytest.raises(SystemExit) as stop:
                main([command, str(path)])
            assert stop.value.code == 0  # the reversal is an involution
            sizes[command].append(len(capsys.readouterr().out.encode()))
    for name, counts in sizes.items():
        for small, large in zip(counts, counts[1:]):
            low, high = (1, LINEAR) if name == "file" else (3, LINEAR**2)
            assert low * small <= large <= high * small, (name, counts)
