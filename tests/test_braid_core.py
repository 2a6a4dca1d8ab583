from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohcheck.braid_core as bc
from cohcheck.braid_core import (
    BraidNormalForm,
    BraidWord,
    block_braid,
    block_perm,
    braid_compose,
    braid_equal,
    braid_id,
    braid_inverse,
    braid_perm,
    braid_str,
    braid_tensor,
    cable,
    cable_perm,
    compose_perm,
    identity_perm,
    inverse_perm,
    normalize_braid,
    parse_braid,
    perm_braid,
    perm_one_line,
    permute,
    _TABLED_LETTERS_PER_SIMPLE,
    _normalize_incremental,
    _normalize_tabled,
    _w0,
)
from cohcheck.errors import ParseError, StructureError

import braid_oracle
from lib_extras import nf_word


# -- strategies ---------------------------------------------------------------


@st.composite
def braid_words(draw, max_n: int = 5, max_len: int = 8) -> BraidWord:
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(0, max_len))
    letters = tuple(
        draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
        for _ in range(k)
    )
    return BraidWord(n, letters)


@st.composite
def word_pairs(draw) -> tuple[BraidWord, BraidWord]:
    u = draw(braid_words())
    k = draw(st.integers(0, 6))
    letters = tuple(
        draw(st.integers(1, u.n - 1)) * draw(st.sampled_from((1, -1)))
        for _ in range(k)
    )
    return u, BraidWord(u.n, letters)


@st.composite
def equal_pairs(draw) -> tuple[BraidWord, BraidWord]:
    """A word and a deformation of it by free cancellation, far
    commutation, and the braid relation."""
    u = draw(braid_words())
    n = u.n
    letters = list(u.letters)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("insert", "commute", "yang_baxter")))
        if op == "insert":
            pos = draw(st.integers(0, len(letters)))
            l = draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
            letters[pos:pos] = [l, -l]
        elif op == "commute":
            spots = [
                i
                for i in range(len(letters) - 1)
                if abs(abs(letters[i]) - abs(letters[i + 1])) >= 2
            ]
            if spots:
                i = draw(st.sampled_from(spots))
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
        else:
            spots = [
                i
                for i in range(len(letters) - 2)
                if letters[i] == letters[i + 2]
                and letters[i] > 0
                and letters[i + 1] > 0
                and abs(letters[i + 1] - letters[i]) == 1
            ]
            if spots:
                i = draw(st.sampled_from(spots))
                a, b = letters[i], letters[i + 1]
                letters[i : i + 3] = [b, a, b]
    return u, BraidWord(n, tuple(letters))


@st.composite
def delta_words(draw) -> BraidWord:
    """Mixed-sign words built to form a half twist inside the word:
    cancelling pairs s_i s_i^-1 and positive half twists on k strands,
    shifted to random offsets, inserted at random places."""
    w = draw(braid_words(max_n=6, max_len=10))
    n = w.n
    letters = list(w.letters)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(letters)))
        if draw(st.booleans()):
            l = draw(st.integers(1, n - 1)) * draw(st.sampled_from((1, -1)))
            letters[pos:pos] = [l, -l]
        else:
            k = draw(st.integers(2, n))
            off = draw(st.integers(0, n - k))
            letters[pos:pos] = [l + off for l in perm_braid(_w0(k)).letters]
    return BraidWord(n, tuple(letters))


def seeded_word(n: int, length: int, inverse_share: float, seed: int) -> BraidWord:
    rng = random.Random(seed)
    return BraidWord(
        n, tuple(rng.randrange(1, n) * (-1 if rng.random() < inverse_share else 1) for _ in range(length))
    )


def mirror(w: BraidWord) -> BraidWord:
    """Conjugation by the half twist: sigma_i -> sigma_{n-i}, signs kept."""
    return BraidWord(w.n, tuple(w.n - l if l > 0 else -w.n - l for l in w.letters))


sizes_lists = st.lists(st.integers(0, 3), min_size=1, max_size=5)


# -- parsing and formatting ---------------------------------------------------


def test_parse_round_trip() -> None:
    w = parse_braid("s2 s1^-1 s3", 4)
    assert w.letters == (2, -1, 3)
    assert braid_str(w) == "s2 s1^-1 s3"
    assert parse_braid("", 4) == braid_id(4)


@pytest.mark.parametrize("text", ["s0", "s3", "x1", "s1^2", "s-1"])
def test_parse_rejects(text: str) -> None:
    with pytest.raises(ParseError):
        parse_braid(text, 3)


def test_letter_out_of_range_raises_structure_error() -> None:
    # a CohError, not an assert, so that the check survives python -O
    with pytest.raises(StructureError):
        BraidWord(3, (3,))


@pytest.mark.parametrize("n, letters", [(2, (2,)), (3, (3,)), (3, (0,)), (-1, ())])
def test_braid_word_call_validates(n: int, letters: tuple[int, ...]) -> None:
    with pytest.raises(StructureError):
        BraidWord(n, letters)
    with pytest.raises(StructureError):
        BraidWord(n=n, letters=letters + (1,))


def test_braid_records() -> None:
    w = BraidWord(3, (1, -2))
    nf = normalize_braid(w)
    assert repr(w) == "BraidWord(n=3, letters=(1, -2))" and str(w) == "s1 s2^-1"
    assert repr(nf) == "BraidNormalForm(n=3, delta_power=-1, factors=((0, 2, 1), (2, 0, 1)))"
    for record, field in ((w, "letters"), (nf, "factors")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
        with pytest.raises(AttributeError):
            record.extra = 1
    again = BraidWord(3, (1, -2))
    assert hash(w) == hash(again) and {w: 1}[again] == 1 and {w, again} == {w}
    assert {nf, normalize_braid(again)} == {nf}
    # the trusted builders give records, not plain tuples, equal to what
    # the validating constructor builds from the same parts
    for u in (braid_compose(w, w), braid_tensor(w, w), braid_inverse(w)):
        assert type(u) is BraidWord and u == BraidWord(*u)


@given(braid_words())
def test_format_parse_inverse(w: BraidWord) -> None:
    assert parse_braid(braid_str(w), w.n) == w


# -- permutations -------------------------------------------------------------


@given(braid_words())
def test_perm_matches_oracle(w: BraidWord) -> None:
    assert braid_perm(w) == braid_oracle.word_perm(w.letters, w.n)


@given(word_pairs())
def test_perm_is_homomorphism(pair: tuple[BraidWord, BraidWord]) -> None:
    u, v = pair
    w = braid_compose(u, v)
    assert braid_perm(w) == compose_perm(braid_perm(u), braid_perm(v))


@given(braid_words())
def test_inverse_perm(w: BraidWord) -> None:
    assert braid_perm(braid_inverse(w)) == inverse_perm(braid_perm(w))


@pytest.mark.parametrize("n", range(7))
def test_perm_braid_takes_the_leftmost_left_descent(n: int) -> None:
    # the rule that fixes the word the golden files freeze: strip from the
    # left, each time at the smallest j with q^-1[j] > q^-1[j+1]
    for p in itertools.permutations(range(n)):
        q = list(p)
        for letter in perm_braid(p).letters:
            inv = inverse_perm(tuple(q))
            descents = [j for j in range(n - 1) if inv[j] > inv[j + 1]]
            assert descents and letter == descents[0] + 1, (p, perm_braid(p))
            q = [letter if i == letter - 1 else letter - 1 if i == letter else i for i in q]  # q := t_j o q
        assert q == list(range(n)), p


@given(braid_words())
def test_perm_braid_section(w: BraidWord) -> None:
    p = braid_perm(w)
    u = perm_braid(p)
    assert braid_perm(u) == p
    assert all(l > 0 for l in u.letters)
    inversions = sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )
    assert len(u.letters) == inversions


# -- word problem -------------------------------------------------------------


def test_braid_relation() -> None:
    assert braid_equal(parse_braid("s1 s2 s1", 3), parse_braid("s2 s1 s2", 3))
    assert braid_equal(parse_braid("s1 s3", 4), parse_braid("s3 s1", 4))
    assert not braid_equal(parse_braid("s1 s2", 3), parse_braid("s2 s1", 3))


def test_free_cancellation() -> None:
    assert braid_equal(parse_braid("s1 s1^-1", 2), braid_id(2))
    assert not braid_equal(parse_braid("s1 s1", 2), braid_id(2))


def test_half_twist_normal_form() -> None:
    nf = normalize_braid(parse_braid("s1 s2 s1", 3))
    assert nf.delta_power == 1 and nf.factors == ()
    nf = normalize_braid(braid_id(3))
    assert nf.delta_power == 0 and nf.factors == ()
    nf = normalize_braid(parse_braid("s1^-1", 2))
    assert nf.delta_power == -1 and nf.factors == ()


# The handle reduction oracle, not the normal form, spends up to ~0.4 s on
# the expansion of a 16-strand, 60-letter word; hence the 2 s budget.
@settings(deadline=2000)
@given(braid_words(), braid_words(max_n=16, max_len=60))
def test_normal_form_sound(w: BraidWord, big: BraidWord) -> None:
    # expanding the normal form gives back the same braid, checked by the
    # independent handle reduction oracle; the big word is the size of the
    # cabled words flatten_mu builds, whose normal forms run to many factors
    for word in (w, big):
        back = nf_word(normalize_braid(word))
        assert braid_oracle.words_equal(word.letters, back.letters)


# All-positive words as wide as nfold(4)'s constraints: each letter whose
# crossing is not already at the right of the last factor is absorbed into
# it, and repair starts from the strands that crossing moved.
positive_wide_words = st.integers(12, 24).flatmap(
    lambda n: st.lists(st.integers(1, n - 1), max_size=40).map(lambda ls: BraidWord(n, tuple(ls)))
)


@given(positive_wide_words)
def test_normal_form_sound_positive_wide(w: BraidWord) -> None:
    nf = normalize_braid(w)
    assert nf.delta_power >= 0
    assert braid_oracle.words_equal(w.letters, nf_word(nf).letters)


# On 2 strands the one positive letter is the half twist itself.
@pytest.mark.parametrize(
    "text, power",
    [("", 0), ("s1", 1), ("s1 s1 s1", 3), ("s1^-1 s1^-1", -2), ("s1 s1^-1 s1", 1),
     ("s1^-1 s1 s1", 1), ("s1 s1^-1 s1^-1 s1", 0)],
)
def test_two_strand_letters_are_half_twists(text: str, power: int) -> None:
    w = parse_braid(text, 2)
    nf = normalize_braid(w)
    assert nf == BraidNormalForm(2, power, ())
    assert braid_oracle.words_equal(w.letters, nf_word(nf).letters)


@given(delta_words())
def test_normal_form_sound_delta_mid_word(w: BraidWord) -> None:
    back = nf_word(normalize_braid(w))
    assert braid_oracle.words_equal(w.letters, back.letters)


@given(st.integers(8, 12), st.integers(0, 200), st.floats(0, 1), st.integers(0, 2**32))
def test_normal_form_commutes_with_mirror(n: int, length: int, inverse_share: float, seed: int) -> None:
    # Delta w Delta^-1 is the mirrored word, so its normal form is the
    # mirror of w's, factor by factor; no oracle is needed
    w = seeded_word(n, length, inverse_share, seed)
    nf, twin = normalize_braid(w), normalize_braid(mirror(w))
    assert twin.delta_power == nf.delta_power
    assert len(twin.factors) == len(nf.factors)
    for f, g in zip(nf.factors, twin.factors):
        assert braid_perm(mirror(perm_braid(f))) == g


# normalize_braid cancels s_i s_i^-1 and s_i^-1 s_i before the Garside pass,
# so a cancelling pair anywhere must leave the normal form as it was
@settings(max_examples=60)
@given(braid_words(max_n=6, max_len=12), st.data())
def test_cancelling_pair_leaves_normal_form(w: BraidWord, data: st.DataObject) -> None:
    pos = data.draw(st.integers(0, len(w.letters)))
    l = data.draw(st.integers(1, w.n - 1)) * data.draw(st.sampled_from((1, -1)))
    padded = BraidWord(w.n, w.letters[:pos] + (l, -l) + w.letters[pos:])
    nf = normalize_braid(padded)
    assert nf == normalize_braid(w)
    assert braid_oracle.words_equal(padded.letters, nf_word(nf).letters)


@given(braid_words())
def test_normal_form_fixed_point(w: BraidWord) -> None:
    nf = normalize_braid(w)
    assert normalize_braid(nf_word(nf)) == nf


@given(equal_pairs())
def test_equal_words_same_normal_form(pair: tuple[BraidWord, BraidWord]) -> None:
    u, v = pair
    assert braid_oracle.words_equal(u.letters, v.letters)
    assert normalize_braid(u) == normalize_braid(v)


@settings(deadline=None)
@given(word_pairs())
def test_equality_matches_oracle(pair: tuple[BraidWord, BraidWord]) -> None:
    u, v = pair
    assert braid_equal(u, v) == braid_oracle.words_equal(u.letters, v.letters)


@given(braid_words())
def test_inverse_cancels(w: BraidWord) -> None:
    assert braid_equal(braid_compose(w, braid_inverse(w)), braid_id(w.n))


@given(word_pairs())
def test_equal_implies_same_perm(pair: tuple[BraidWord, BraidWord]) -> None:
    u, v = pair
    if braid_equal(u, v):
        assert braid_perm(u) == braid_perm(v)


# -- frozen regression words --------------------------------------------------


def test_mult2_assoc_words() -> None:
    assert braid_equal(parse_braid("s3 s4 s2", 6), parse_braid("s3 s2 s4", 6))


def test_mult2_symm_words() -> None:
    u = parse_braid("s3 s1 s2", 4)
    v = parse_braid("s2 s2 s1 s3 s2", 4)
    assert not braid_equal(u, v)
    assert braid_perm(u) == braid_perm(v)


def test_cyclic_double_words() -> None:
    left = parse_braid("s6 s5 s4 s3 s2 s1 s7 s6 s5 s4 s3 s2 s2 s6 s4 s3 s5 s4", 8)
    right = parse_braid("s2 s6 s4 s3 s5 s4 s3 s2 s1 s7 s6 s5", 8)
    assert perm_one_line(braid_perm(left)) == [7, 1, 3, 5, 8, 2, 4, 6]
    assert braid_perm(left) == braid_perm(right)
    assert not braid_equal(left, right)


def test_lax_square_words() -> None:
    u = parse_braid("s2 s1 s3 s2 s2", 4)
    v = parse_braid("s2 s1 s3", 4)
    assert braid_perm(u) == braid_perm(v)
    assert perm_one_line(braid_perm(u)) == [3, 1, 4, 2]
    assert not braid_equal(u, v)


# -- golden normal forms at scale ---------------------------------------------

# Seeded words too long for the oracle: strands, letters, share of inverse
# letters, seed. golden_nf.json holds the delta power, the factor count and
# the sha256 of str(normal form) of each, as computed by the normal form that
# carried every half twist to the front one factor at a time.
GOLDEN_NF_WORDS = {
    "8x2400_inv50": (8, 2400, 0.5, 1),
    "8x2400_inv30": (8, 2400, 0.3, 2),
    "4x600_inv30": (4, 600, 0.3, 3),
    "12x160_inv50": (12, 160, 0.5, 4),
    "16x400_inv50": (16, 400, 0.5, 5),
    "24x1200_positive": (24, 1200, 0.0, 6),
    # long and narrow: the shapes of perfbench's deep_path and deep_edge
    "2x1500_positive": (2, 1500, 0.0, 7),
    "3x1200_inv30": (3, 1200, 0.3, 8),
}
GOLDEN_NF = json.loads((Path(__file__).resolve().parent / "golden_nf.json").read_text(encoding="utf-8"))


def nf_digest(nf: BraidNormalForm) -> dict:
    text = str(nf)
    return {
        "delta_power": nf.delta_power,
        "factors": len(nf.factors),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_NF_WORDS))
def test_normal_form_frozen(name: str) -> None:
    assert nf_digest(normalize_braid(seeded_word(*GOLDEN_NF_WORDS[name]))) == GOLDEN_NF[name]


# -- the two passes of the normal form ----------------------------------------

# normalize_braid sends a word to the tabled pass from this many letters on,
# after free cancellation; both passes take any word, reduced or not
def tabled_bound(n: int) -> int:
    return _TABLED_LETTERS_PER_SIMPLE * math.factorial(n)


def braid_relation_word(n: int, i: int) -> list[int]:
    """s_i s_i+1 s_i (s_i+1 s_i s_i+1)^-1, the identity but not freely."""
    return [i, i + 1, i, -(i + 1), -i, -(i + 1)] if n >= 3 else [i, -i]


PASSES = [(n, inverse_share) for n in (2, 3, 4, 5, 6) for inverse_share in (0.0, 0.3, 0.5)]


def passes_words(n: int, inverse_share: float):
    """The words test_passes_agree normalizes, four for each length, on
    both sides of the bound: a seeded word; the word, a braid relation and
    the word's inverse, which is the identity, though the passes cancel
    nothing freely; the word with half twists on k strands put in at
    random places; and that with one on all n strands at the end."""
    rng = random.Random(f"passes:{n}:{inverse_share}")
    bound = tabled_bound(n)
    # past the bound on 6 strands, the words below take ~0.7 s at one share
    for length in (min(bound // 3, 400), bound + 7 if n < 6 or inverse_share == 0.3 else 1200):
        w = list(seeded_word(n, length, inverse_share, rng.randrange(2**32)).letters)
        mid = braid_relation_word(n, rng.randrange(1, n - 1) if n > 2 else 1)
        back = w + mid + [-l for l in reversed(w)]
        twisted = list(w)
        for _ in range(4):
            k = rng.randrange(2, n + 1)
            off = rng.randrange(0, n - k + 1)
            at = rng.randrange(len(twisted) + 1)
            twisted[at:at] = [l + off for l in perm_braid(_w0(k)).letters]
        yield w, back, twisted, twisted + list(perm_braid(_w0(n)).letters)


@pytest.mark.parametrize("n, inverse_share", PASSES)
def test_passes_agree(n: int, inverse_share: float) -> None:
    for w, back, twisted, delta_last in passes_words(n, inverse_share):
        length = len(w)
        nf = _normalize_tabled(n, w)
        assert nf == _normalize_incremental(n, w), (n, length)
        assert _normalize_tabled(n, back) == _normalize_incremental(n, back) == BraidNormalForm(n, 0, ())
        # each half twist that forms one on all n strands is taken out of the factors
        tabled = _normalize_tabled(n, twisted)
        assert tabled == _normalize_incremental(n, twisted), (n, length, "twisted")
        # and the one on all n strands at the end moves to the front
        assert _normalize_tabled(n, delta_last) == _normalize_incremental(n, delta_last)
        assert _normalize_tabled(n, delta_last).delta_power == tabled.delta_power + 1


def test_shared_tables_normalize_like_fresh_ones() -> None:
    """The tabled pass's tables belong to the strand count, not to the
    word: one tables dict kept across every word of test_passes_agree, in
    sequence over every n and inverse share, gives the normal forms that
    tables made afresh for each word give. normalize_braid hands its
    tables through to the tabled pass."""
    tables: dict = {}
    for n, inverse_share in PASSES:
        for words in passes_words(n, inverse_share):
            for w in words:
                assert _normalize_tabled(n, w, tables) == _normalize_tabled(n, w), (n, inverse_share, len(w))
    assert sorted(tables) == [2, 3, 4, 5, 6]
    kept: dict = {}
    w = seeded_word(4, tabled_bound(4), 0.0, 4)
    assert normalize_braid(w, tables=kept) == normalize_braid(w)
    assert list(kept) == [4]


@pytest.mark.parametrize(
    "n, length, tabled",
    [(2, 15, False), (2, 16, True), (3, 47, False), (3, 48, True), (4, 191, False), (4, 192, True),
     (4, 31, False), (24, 88, False)],
)
def test_pass_is_chosen_by_letters_against_n_factorial(monkeypatch, n: int, length: int, tabled: bool) -> None:
    """Positive words stay freely reduced. (4, 31) is as long as the
    axiom_matrix files' goal sides get, and (24, 88) an axiom word."""
    assert (length >= tabled_bound(n)) == tabled
    taken = []
    for name in ("_normalize_tabled", "_normalize_incremental"):

        def recording(n, letters, *tables, name=name, original=getattr(bc, name)):
            taken.append(name)
            return original(n, letters, *tables)

        monkeypatch.setattr(bc, name, recording)
    w = seeded_word(n, length, 0.0, length)
    assert normalize_braid(w) == _normalize_incremental(n, list(w.letters))
    assert taken == ["_normalize_tabled" if tabled else "_normalize_incremental"]


def deformed(letters: list[int], rng: random.Random) -> list[int]:
    """The same braid by far commutations and braid relations, each tried
    at every position once, left to right, where it leaves no letter next
    to its inverse."""
    out = list(letters)
    for i in range(len(out) - 2):
        a, b, c = out[i : i + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            moved = [b, a, b]
        elif abs(abs(a) - abs(b)) >= 2:
            moved = [b, a, c]
        else:
            continue
        near = out[max(i - 1, 0) : i] + moved + out[i + 3 : i + 4]
        if rng.random() < 0.5 and all(x != -y for x, y in zip(near, near[1:])):
            out[i : i + 3] = moved
    return out


# The oracle takes 20 to 40 ms to compare two 200-letter words. 200 letters
# is past the tabled bound on 3 and 4 strands, since the words are freely
# reduced.
@pytest.mark.parametrize("n", [3, 4])
def test_long_words_match_oracle(monkeypatch, n: int) -> None:
    monkeypatch.setattr(bc, "_normalize_incremental", None)  # every word here takes the tabled pass
    rng = random.Random(f"long-oracle:{n}")
    for trial in range(4):
        letters: list[int] = []
        while len(letters) < 200:
            # positive braid relations need runs of one sign: 30 % inverse letters in runs
            sign = -1 if rng.random() < 0.3 else 1
            for _ in range(rng.randrange(1, 6)):
                l = sign * rng.randrange(1, n)
                if not letters or letters[-1] != -l:
                    letters.append(l)
        letters = letters[:200]
        u = BraidWord(n, tuple(letters))
        v = BraidWord(n, tuple(deformed(letters, rng)))
        assert v.letters != u.letters
        assert braid_equal(u, v) and braid_oracle.words_equal(u.letters, v.letters)
        # one sign flipped, where it cancels with neither neighbour
        at = next(i for i in range(rng.randrange(1, 199), 199) if -letters[i] not in (letters[i - 1], letters[i + 1]))
        flipped = letters[:at] + [-letters[at]] + letters[at + 1 :]
        x = BraidWord(n, tuple(flipped))
        assert not braid_equal(u, x) and not braid_oracle.words_equal(u.letters, x.letters)


# -- block braidings ----------------------------------------------------------


@pytest.mark.parametrize(
    "m,k,text",
    [
        (1, 1, "s1"),
        (2, 1, "s1 s2"),
        (1, 2, "s2 s1"),
        (2, 2, "s2 s1 s3 s2"),
        (3, 2, "s2 s1 s3 s2 s4 s3"),
        (2, 6, "s6 s5 s4 s3 s2 s1 s7 s6 s5 s4 s3 s2"),
        (0, 3, ""),
        (3, 0, ""),
    ],
)
def test_block_braid_words(m: int, k: int, text: str) -> None:
    assert braid_str(block_braid(m, k)) == text


@pytest.mark.parametrize(
    "w",
    [braid_id(0), braid_id(4), block_braid(0, 2), block_braid(3, 2), perm_braid((2, 0, 3, 1)),
     perm_braid(_w0(5)), cable(BraidWord(3, (1, -2)), [2, 0, 3]), cable(BraidWord(2, (-1,)), [1, 1])],
)
def test_trusted_constructors_build_valid_words(w: BraidWord) -> None:
    # these skip BraidWord's checks, so what they build must pass them
    assert type(w) is BraidWord and BraidWord(*w) == w


def test_block_perm_value() -> None:
    assert perm_one_line(block_perm(2, 1)) == [2, 3, 1]


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("k", range(4))
def test_block_braid_perm(m: int, k: int) -> None:
    assert braid_perm(block_braid(m, k)) == block_perm(m, k)


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("k", range(1, 4))
@pytest.mark.parametrize("p", range(1, 4))
def test_block_hexagons(m: int, k: int, p: int) -> None:
    # passing m strands across a split block, one side at a time
    right = braid_compose(
        braid_tensor(braid_id(k), block_braid(m, p)),
        braid_tensor(block_braid(m, k), braid_id(p)),
    )
    assert braid_equal(block_braid(m, k + p), right)
    left = braid_compose(
        braid_tensor(block_braid(m, p), braid_id(k)),
        braid_tensor(braid_id(m), block_braid(k, p)),
    )
    assert braid_equal(block_braid(m + k, p), left)


# -- cabling ------------------------------------------------------------------


@given(braid_words())
def test_cable_trivial_sizes(w: BraidWord) -> None:
    assert cable(w, [1] * w.n) == w


def test_cable_single_crossing() -> None:
    w = BraidWord(2, (1,))
    assert cable(w, [2, 1]) == block_braid(2, 1)
    assert cable(w, [2, 2]) == block_braid(2, 2)
    assert cable(BraidWord(2, (-1,)), [2, 1]) == braid_inverse(block_braid(1, 2))


@given(braid_words(), st.data())
def test_cable_perm_agrees(w: BraidWord, data: st.DataObject) -> None:
    sizes = data.draw(
        st.lists(st.integers(0, 3), min_size=w.n, max_size=w.n)
    )
    assert braid_perm(cable(w, sizes)) == cable_perm(braid_perm(w), sizes)


@given(word_pairs(), st.data())
def test_cable_functorial(
    pair: tuple[BraidWord, BraidWord], data: st.DataObject
) -> None:
    u, v = pair
    sizes = data.draw(
        st.lists(st.integers(0, 3), min_size=u.n, max_size=u.n)
    )
    whole = cable(braid_compose(u, v), sizes)
    upper = cable(u, permute(sizes, braid_perm(v)))
    lower = cable(v, sizes)
    assert whole == braid_compose(upper, lower)


@given(st.permutations(list(range(5))), sizes_lists)
def test_permute_sizes_shape(p: list[int], sizes: list[int]) -> None:
    p5 = tuple(p)
    padded = (sizes + [1] * 5)[:5]
    out = permute(padded, p5)
    assert sorted(out) == sorted(padded)
    assert all(out[p5[i]] == padded[i] for i in range(5))


def test_tensor_shift() -> None:
    u = parse_braid("s1", 2)
    v = parse_braid("s1 s2^-1", 3)
    assert braid_str(braid_tensor(u, v)) == "s1 s3 s4^-1"
    assert braid_tensor(u, v).n == 5
