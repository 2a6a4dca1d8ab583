from __future__ import annotations

import collections
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import cohcheck
from cohcheck.braid_core import BraidWord, braid_equal, parse_braid
from cohcheck.cli import (
    SourceFile,
    build_diagram,
    main,
    parse_source,
    render_braid_ascii,
)
from cohcheck import cli, ualg
from cohcheck.diagram_check import (
    EQUAL, EQUAL_IN_S_ONLY, NOT_EQUAL, Diagram, Edge, check_goal, explain_goal, validate_diagram,
)
from cohcheck.errors import ElabError, ParseError, SourceSpan, StructureError
from cohcheck.ualg import dissolve

import parse_mutants
from source_printer import format_source

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = sorted(p.name for p in FIXTURES.glob("*.coh"))
# stdout and exit status of `coh check FILE` and `coh dissolve FILE` on the corpus
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_cli.json").read_text(encoding="utf-8"))
# the same for two long generated files in tests/long: one symmetric on 8
# strands (not_equal), one braided on 4 (equal_in_s_only). perfbench/gen.py
# made them with make_file(random.Random("golden-long:1"), ...) and the
# shapes of the long_goals workload; the stdout predates the per-map memo.
LONG = Path(__file__).resolve().parent / "long"
GOLDEN_LONG = json.loads((Path(__file__).resolve().parent / "golden_long.json").read_text(encoding="utf-8"))
# stdout and exit status of `coh render FILE --edge E` for every edge of the
# corpus and of tests/long, keyed "FILE EDGE"
GOLDEN_RENDER = json.loads((Path(__file__).resolve().parent / "golden_render.json").read_text(encoding="utf-8"))
SAMPLES = [FIXTURES / name for name in CORPUS] + sorted(LONG.glob("*.coh"))


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def run(*args: str, env: dict[str, str] | None = None) -> SimpleNamespace:
    """Run `coh` in-process with `env` laid over the environment. The
    exit status is read from the SystemExit that main raises."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as stop:
            exit_code, exception = stop.code, stop if stop.code else None
    return SimpleNamespace(
        exit_code=exit_code, stdout=out.getvalue(), stderr=err.getvalue(),
        output=out.getvalue() + err.getvalue(), exception=exception,
    )


# -- parsing ---------------------------------------------------------------------


def test_corpus_is_complete():
    assert CORPUS == [
        "cursed_cyclic.coh", "cursed_lift.coh", "mystery1.coh", "mystery2.coh",
        "mystery3.coh", "notequal.coh", "pair.coh",
    ]


def test_mystery1_counts():
    sf = parse_source(fixture_text("mystery1.coh"))
    assert len(sf.nodes) == 6
    assert len(sf.edges) == 6
    assert len(sf.goals) == 1


def test_empty_file():
    sf = parse_source("")
    assert sf == SourceFile()
    assert sf.flavor is None


def test_comments_and_blank_lines_are_skipped():
    sf = parse_source("# nothing\n\n   # more nothing\n")
    assert sf.structure() == SourceFile().structure()


def test_syntax_error_carries_span():
    with pytest.raises(ParseError) as exc:
        parse_source("flavor braided\nnode x = braid(X,")
    assert exc.value.span is not None
    assert exc.value.span.line == 2


def test_unexpected_character_span():
    with pytest.raises(ParseError) as exc:
        parse_source("node x = $")
    assert exc.value.span.line == 1
    assert exc.value.span.col == 10


# message, line and column of each error as the tokenizer gave them before it
# became one regex match per token
MALFORMED_LINES = [
    ("$ node x = [a]", "unexpected character '$'", 1, 1),
    ("node x = $ [a]", "unexpected character '$'", 1, 10),
    ("node x = [a] $", "unexpected character '$'", 1, 14),
    ("node x =\t@[a]", "unexpected character '@'", 1, 10),
    ("\t!", "unexpected character '!'", 1, 2),
    ('edge e : n -> n = "s1 s2"%', "unexpected character '%'", 1, 26),
    ('edge e : n -> n = "s1 s2" &', "unexpected character '&'", 1, 27),
    ('edge e : n -> n = "s1 s2', "unexpected character '\"'", 1, 19),
    ("node x = [\u00e9]", "unexpected character '\u00e9'", 1, 11),
    ("gens A = { a, \u03b2 }", "unexpected character '\u03b2'", 1, 15),
    ("flavor braided\n  node x = [a] ?", "unexpected character '?'", 2, 16),
    # numbers are ASCII digits only
    ("edge e : n -> n = perm(\u0662 \u0661)", "unexpected character '\u0662'", 1, 24),
    ("functor F = nfold(\u0663) on A", "unexpected character '\u0663'", 1, 19),
    # the end of a line is where its code ends, before any comment
    ("node x = # note", "unexpected end of line", 1, 10),
]


@pytest.mark.parametrize(
    "text, message, line, col",
    MALFORMED_LINES,
    ids=[
        "dollar-start", "dollar-middle", "dollar-end", "after-tab", "after-tab-only",
        "after-quoted-word", "after-quoted-word-and-space", "unterminated-quote",
        "non-ascii-letter", "non-ascii-name", "second-line",
        "non-ascii-strand", "non-ascii-count", "end-before-comment",
    ],
)
def test_tokenizer_error_spans(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert (exc.value.message, exc.value.span.line, exc.value.span.col) == (message, line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize(
    "expr, message, col",
    [
        ("s0 s1", "braid letters are numbered from 1", 19),
        ("s1 s0", "braid letters are numbered from 1", 22),
        ("s1 s2^-1 s0 s3", "braid letters are numbered from 1", 28),
        ("s2 s" + "1" * 5000, "a number of 5000 digits is too long", 22),
        ('"s\u0661"', "'s\u0661' is not a braid letter", 19),
    ],
    ids=["first-letter", "second-letter", "third-letter", "long-number-second", "quoted-non-ascii-digit"],
)
def test_bare_word_errors_point_at_their_letter(expr, message, col):
    with pytest.raises(ParseError) as exc:
        parse_source(f"edge e : n -> n = {expr}")
    assert (exc.value.message, exc.value.span.line, exc.value.span.col) == (message, 1, col)


# each separated list (object items, rows, factors, pf(..) inners, goal
# sides) ended by its separator, with the separator doubled, or empty
SEPARATED_LIST_ERRORS = [
    ("node x = [a] ;", "unexpected end of line", 15),
    ("edge e : n -> n = id ;", "unexpected end of line", 23),
    ("edge e : n -> n = id .", "unexpected end of line", 23),
    ("edge e : n -> n = id ; # note", "unexpected end of line", 24),
    ("edge e : n -> n = pf(outer=id; inner=id,", "unexpected end of line", 41),
    ("goal g : e .", "unexpected end of line", 13),
    ("goal g : e == e .", "unexpected end of line", 18),
    ("node x = [a] ;; [b]", "expected an object item, found ';'", 15),
    ("edge e : n -> n = braid([a] ;, [b])", "expected an object item, found ','", 30),
    ("edge e : n -> n = id ;; id", "expected a morphism factor, found ';'", 23),
    ("edge e : n -> n = id .. id", "expected a morphism factor, found '.'", 23),
    ("edge e : n -> n = pf(outer=id; inner=id,, id)", "expected a morphism factor, found ','", 41),
    ("goal g : e .. e == e", "expected an edge, found '.'", 13),
    ("goal g : e == e .. e", "expected an edge, found '.'", 18),
    ("goal g : == e", "expected an edge, found '=='", 10),
    ("goal g : e ==", "unexpected end of line", 14),
    ("edge e : n -> n = pf(outer=id; inner=)", "expected a morphism factor, found ')'", 38),
]


@pytest.mark.parametrize("text, message, col", SEPARATED_LIST_ERRORS, ids=[t for t, *_ in SEPARATED_LIST_ERRORS])
def test_separated_list_error_spans(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert (exc.value.message, exc.value.span.line, exc.value.span.col) == (message, 1, col)


def test_bad_characters_in_comments_are_ignored():
    sf = parse_source('flavor braided # $ @ \u00e9 "\ngens A = { a } # bad $ here\n')
    assert (sf.flavor, sf.gens) == ("B", (("A", ("a",)),))
    assert sf.spans["gens", "A"] == SourceSpan(2, 1)


def test_duplicate_name_rejected():
    text = "flavor braided\ngens A = { a }\ngens A = { b }\n"
    with pytest.raises(ParseError, match="already declared"):
        parse_source(text)


def test_duplicate_flavor_rejected():
    with pytest.raises(ParseError, match="flavor"):
        parse_source("flavor braided\nflavor symmetric\n")


def test_second_map_rejected():
    text = (
        "gens A = { a }\n"
        "map f : A -> A { a -> a }\n"
        "map g : A -> A { a -> a }\n"
    )
    with pytest.raises(ParseError, match="single map"):
        parse_source(text)


def test_unresolved_edge_reference():
    text = (
        "flavor braided\ngens A = { a }\nmap f : A -> A { a -> a }\n"
        "node n = [a]\n"
        "goal g : missing == missing\n"
    )
    with pytest.raises(ParseError, match="no edge 'missing'"):
        parse_source(text)


def test_unresolved_node_reference():
    text = (
        "flavor braided\ngens A = { a }\nmap f : A -> A { a -> a }\n"
        "edge e : n1 -> n2 = id\n"
    )
    with pytest.raises(ParseError, match="no node"):
        parse_source(text)


def test_bad_perm_literal():
    with pytest.raises(ParseError, match="not a permutation"):
        parse_source("flavor symmetric\ngens A = { a }\nmap f : A -> A { a -> a }\n"
                     "node n = [a a]\nedge e : n -> n = perm(1 3)\n")


# each outcome of reading perm(..): the message and column of an error, with
# the images listed 1-based as written, or the 0-based images parsed
PERM_OUTCOMES = [
    ("perm(1 1)", "[1, 1] is not a permutation of 1..2", 19),
    ("perm(0 1)", "[0, 1] is not a permutation of 1..2", 19),
    ("perm(3 1)", "[3, 1] is not a permutation of 1..2", 19),
    ("perm(2 x 1)", "expected a strand number, found 'x'", 26),
    ("perm(2 -1)", "expected a strand number, found '-1'", 26),
    ("perm(2 1", "unexpected end of line", 27),
    ("perm(2 " + "1" * 5000 + ")", "a number of 5000 digits is too long", 26),
    ("perm(2, 1)", (1, 0), None),
    ("perm()", (), None),
]


@pytest.mark.parametrize("expr, outcome, col", PERM_OUTCOMES, ids=[e[:12] for e, *_ in PERM_OUTCOMES])
def test_perm_parse_outcomes(expr, outcome, col):
    text = f"edge e : n -> n = {expr}"
    if col is None:
        (edge,) = parse_source("node n = [a]\n" + text).edges
        assert edge[3] == ("compose", (("tensor", (("perm", outcome),)),))
        return
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert (exc.value.message, exc.value.span.line, exc.value.span.col) == (outcome, 1, col)


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_source("flavor braided extra")


def test_parse_errors_match_golden():
    # every token of the corpus deleted, doubled or replaced: the parser's
    # messages, spans and structures as tests/parse_mutants.py recorded them
    golden = json.loads(parse_mutants.GOLDEN.read_text(encoding="utf-8"))
    got = {key: parse_mutants.outcome(source) for key, source in parse_mutants.mutants()}
    assert len(got) == len(golden) == 2546
    assert [key for key in golden if got[key] != golden[key]] == []


def test_build_outcomes_match_golden():
    # the same mutants through build_diagram and every goal's report: error
    # classes, messages and spans, or a digest of the reports' JSON
    golden = json.loads(parse_mutants.BUILD_GOLDEN.read_text(encoding="utf-8"))
    got = {key: parse_mutants.build_outcome(source) for key, source in parse_mutants.mutants()}
    assert len(got) == len(golden) == 2546
    assert [key for key in golden if got[key] != golden[key]] == []
    assert sum("built" in v for v in golden.values()) == 80


@pytest.mark.parametrize("name", CORPUS)
def test_round_trip(name):
    sf = parse_source(fixture_text(name))
    assert parse_source(format_source(sf)).structure() == sf.structure()


# -- elaboration -----------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_builds(name):
    d = build_diagram(parse_source(fixture_text(name)))
    assert d.goals


def _tiny(body: str, flavor: str = "braided") -> str:
    return (
        f"flavor {flavor}\n"
        "gens A = { a, b }\n"
        "gens A2 = { fa, fb }\n"
        "map phi : A -> A2 { a -> fa; b -> fb }\n" + body
    )


# an edge of one row against its nodes; each message predates the helper that
# elaboration now shares for braid words and perm(..)
FACTOR_ERRORS = [
    ("monoidal", "[fa fb]", "[fb fa]", "s1", "braid words need a symmetric or braided flavor"),
    ("braided", "[fa fb]", "[fb fa]", "perm(2 1)", "perm(..) is only available in the symmetric flavor"),
    ("braided", "[fa]", "[fa]", "perm(2 1 3)", "perm(..) is only available in the symmetric flavor"),
    ("monoidal", "[fa]", "[fa]", "s5", "braid words need a symmetric or braided flavor"),
    ("braided", "[fa fb]", "[fa fb]", "s3", "word needs 4 strands, 2 left"),
    ("braided", "[fa fb]", "[fa fb]", "s3 ; id", "braid word needs 4 letters, 2 left"),
    ("symmetric", "[fa fb]", "[fa fb]", "perm(2 1 3)", "perm needs 3 letters, 2 left"),
    ("symmetric", "phi(a b) ; [fa]", "[fa fb]", "perm(2 1)", "[phi(a b)] is not a single plain letter"),
    ("symmetric", "phi() ; [fa]", "[fa]", "perm(2 1)", "[phi()] is not a single plain letter"),
    ("symmetric", "[fa] ; phi(a b)", "[fa fb]", "s1", "[phi(a b)] is not a single plain letter"),
    ("monoidal", "phi(a b)", "phi(a b)", 'pf(outer=id; inner="s1")', "braid words need a symmetric or braided flavor"),
    ("braided", "phi(a b)", "phi(a b)", 'pf(outer=id; inner="s3")', "inner word uses strand 4, only 2 available"),
    ("braided", "phi(a b)", "phi(a b)", "pf(outer=id; inner=perm(2 1))", "perm(..) is only available in the symmetric flavor"),
    ("symmetric", "phi(a b)", "phi(a b)", "pf(outer=id; inner=perm(3 1 2))", "perm of length 3 on a block of 2"),
    ("symmetric", "phi(a b)", "phi(a b)", "pf(outer=perm(2 1 3); inner=id)", "outer perm of length 3 on 1 blocks"),
    ("braided", "phi(a b) ; phi(b a)", "phi(b a) ; phi(a b)", 'pf(outer="s2"; inner=id, id)', "outer word uses strand 3, only 2 available"),
    ("braided", "phi(a b) ; phi(b a)", "phi(b a) ; phi(a b)", "pf(outer=perm(2 1); inner=id, id)", "perm(..) is only available in the symmetric flavor"),
    ("monoidal", "phi(a b) ; phi(b a)", "phi(b a) ; phi(a b)", 'pf(outer="s1"; inner=id, id)', "braid words need a symmetric or braided flavor"),
    ("braided", "phi(a b)", "phi(a b)", "pf(outer=id; inner=q(a | b))", "q cannot appear inside pf(..)"),
    ("braided", "phi(a b)", "phi(a b)", "pf(outer=q(a | b); inner=id)", "q cannot be the outer part of pf(..)"),
    ("braided", "[fa fb fa]", "[fb fa fa]", '"s1" ; id . s2 s1', "edge e ends at [fa ; fb ; fa], node m is [fb ; fa ; fa]"),
    ("symmetric", "[fa fb fa]", "[fb fa fa]", "perm(2 1) ; id . s2 s1 ; id", "edge e ends at [fa ; fb ; fa], node m is [fb ; fa ; fa]"),
    ("braided", "[fa fb]", "[fa fb]", 's1 ; ""', "edge e ends at [fb ; fa], node m is [fa ; fb]"),
    ("braided", "[fa fb]", "phi(a b)", "q(a | z)", "'z' is not a generator of A"),
    ("braided", "phi(a b)", "[fb fa]", "q^-1(b | a)", "[phi(a b)] does not match the merged block (b a)"),
    ("braided", "[fa fb]", "[fa fb]", "pf(outer=id; inner=id)", "pf expects formed letters, found [fa]"),
    ("braided", "[fa fb]", "[fb fa]", "braid([fb], [fa])", "braid arguments [fb] ; [fa] do not match the source letters [fa] ; [fb]"),
]


@pytest.mark.parametrize("flavor, src, tgt, expr, message", FACTOR_ERRORS)
def test_factor_errors(flavor, src, tgt, expr, message):
    text = _tiny(f"node n = {src}\nnode m = {tgt}\nedge e : n -> m = {expr}\n", flavor)
    with pytest.raises(ElabError) as err:
        build_diagram(parse_source(text))
    assert str(err.value) == f"line 7, col 1: {message}"


def test_q_singleton_accepts_plain_letter():
    d = build_diagram(parse_source(_tiny(
        "node n1 = [fa fb]\nnode n2 = phi(a b)\n"
        "edge e : n1 -> n2 = q(a | b)\n"
        "goal g : e == e\n"
    )))
    assert check_goal(d, d.goals[0]) == EQUAL


def test_pf_and_braid_build_in_plain_flavor():
    # the plain flavor's pf has no outer content, and its braid(..) needs a
    # unit argument
    d = build_diagram(parse_source(_tiny(
        "node n1 = phi(a b)\nnode n2 = [fa]\n"
        "edge e : n1 -> n1 = pf(outer=id; inner=id)\n"
        "edge f : n2 -> n2 = braid([], [fa])\n"
        "goal g : e == e\ngoal h : f == f\n",
        flavor="monoidal",
    )))
    assert [check_goal(d, g) for g in d.goals] == [EQUAL, EQUAL]


def test_mid_tensor_id_consumes_one_letter():
    d = build_diagram(parse_source(_tiny(
        "node n1 = [fa fb fa]\nnode n2 = [fa fa fb]\n"
        "edge e : n1 -> n2 = id ; braid(phi(b), phi(a))\n"
        "edge f : n1 -> n2 = id ; \"s1\"\n"
        "goal g : e == f\n"
    )))
    assert check_goal(d, d.goals[0]) == EQUAL


def test_final_word_absorbs_remainder():
    d = build_diagram(parse_source(_tiny(
        "node n1 = [fa fb fa fb]\nnode n2 = [fa fa fb fb]\n"
        "edge e : n1 -> n2 = \"s1 s2\"\n"
        "goal g : e == e\n"
    )))
    u = dissolve(d.edges["e"].term, d.phi, d.flavor)
    assert u.content == BraidWord(4, (1, 2))


def test_unconsumed_letters_rejected():
    with pytest.raises(ElabError, match="not consumed"):
        build_diagram(parse_source(_tiny(
            "node n1 = [fa fb]\nnode n2 = phi(a b)\n"
            "edge e : n1 -> n2 = q(a)\n"
            "goal g : e == e\n"
        )))


def test_edge_target_mismatch_rejected():
    with pytest.raises(ElabError, match="ends at"):
        build_diagram(parse_source(_tiny(
            "node n1 = [fa fb]\nnode n2 = [fa fa]\n"
            "edge e : n1 -> n2 = id\n"
            "goal g : e == e\n"
        )))


def test_q_block_mismatch_rejected():
    with pytest.raises(ElabError, match="does not match"):
        build_diagram(parse_source(_tiny(
            "node n1 = [fa fb]\nnode n2 = phi(b a)\n"
            "edge e : n1 -> n2 = q(b | a)\n"
            "goal g : e == e\n"
        )))


def test_braid_word_rejected_in_plain_flavor():
    with pytest.raises(ElabError, match="braided"):
        build_diagram(parse_source(_tiny(
            "node n1 = [fa fa]\n"
            "edge e : n1 -> n1 = \"s1\"\n"
            "goal g : e == e\n",
            flavor="monoidal",
        )))


def test_perm_rejected_in_braided_flavor():
    with pytest.raises(ElabError, match="symmetric"):
        build_diagram(parse_source(_tiny(
            "node n1 = [fa fa]\n"
            "edge e : n1 -> n1 = perm(2 1)\n"
            "goal g : e == e\n"
        )))


def test_braid_of_two_nonunits_rejected_in_plain_flavor():
    with pytest.raises(ElabError, match="no braiding"):
        build_diagram(parse_source(_tiny(
            "node n1 = [fa fb]\nnode n2 = [fb fa]\n"
            "edge e : n1 -> n2 = braid(phi(a), phi(b))\n"
            "goal g : e == e\n",
            flavor="monoidal",
        )))


def test_unknown_generator_in_node():
    with pytest.raises(ElabError, match="not a generator"):
        build_diagram(parse_source(_tiny("node n = [zz]\n")))
    for node, message in (
        ("psi(a)", "'psi' is not the declared map 'phi'"),
        ("phi(z)", "'z' is not a generator of A"),
    ):
        with pytest.raises(ElabError) as err:
            build_diagram(parse_source(_tiny(f"node n = {node}\n")))
        assert str(err.value) == f"line 5, col 1: {message}"


def test_missing_flavor_rejected():
    with pytest.raises(ElabError, match="flavor"):
        build_diagram(parse_source("gens A = { a }\nmap f : A -> A { a -> a }\n"))


def test_functor_and_interp_survive_build():
    d = build_diagram(parse_source(fixture_text("cursed_lift.coh")))
    assert d.functor is not None
    assert d.functor.obj(("a",)) == ("a",) * 4
    assert d.interp == {"ha": ("a",) * 4, "hb": ("b",) * 4}


def test_composed_functor_declaration():
    d = build_diagram(parse_source(_tiny(
        "node n = [fa]\n"
        "functor D = doubling on A\n"
        "functor Q = compose(D, D)\n"
        "interp fa = [a]\ninterp fb = [b]\n"
    )))
    assert d.functor.obj(("a",)) == ("a",) * 4


# -- commands --------------------------------------------------------------------

EXPECTED_VERDICTS = {
    "mystery1.coh": ("hex", EQUAL),
    "mystery2.coh": ("natm", EQUAL),
    "mystery3.coh": ("natb", EQUAL_IN_S_ONLY),
    "cursed_cyclic.coh": ("cyc", EQUAL_IN_S_ONLY),
    "cursed_lift.coh": ("natq", EQUAL),
    "pair.coh": ("braidax", EQUAL_IN_S_ONLY),
    "notequal.coh": ("diff", NOT_EQUAL),
}


@pytest.mark.parametrize("name", CORPUS)
def test_check_json_schema(name):
    r = run("check", str(FIXTURES / name))
    payload = json.loads(r.stdout)
    goal, verdict = EXPECTED_VERDICTS[name]
    assert [g["goal"] for g in payload] == [goal]
    assert payload[0]["verdict"] == verdict
    for g in payload:
        assert set(g) == {"goal", "verdict", "left", "right", "projections"}
        for side in (g["left"], g["right"]):
            assert set(side) == {"word", "nf", "perm"}
            assert isinstance(side["word"], str)
            assert isinstance(side["nf"], str)
            assert side["perm"] and min(side["perm"]) == 1
        for proj in g["projections"].values():
            assert set(proj) == {"left", "right"}
            for p in proj.values():
                assert all(isinstance(i, int) for i in p)


@pytest.mark.parametrize("name", CORPUS)
def test_check_exit_codes(name):
    _, verdict = EXPECTED_VERDICTS[name]
    assert run("check", str(FIXTURES / name)).exit_code == (0 if verdict == EQUAL else 1)
    with_flag = run("check", str(FIXTURES / name), "--symmetric-ok")
    assert with_flag.exit_code == (1 if verdict == NOT_EQUAL else 0)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_output_frozen(key):
    command, name = key.split()
    r = run(command, str(FIXTURES / name))
    assert {"stdout": r.stdout, "exit": r.exit_code} == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_LONG))
def test_long_output_frozen(key):
    command, name = key.split()
    r = run(command, str(LONG / name))
    assert {"stdout": r.stdout, "exit": r.exit_code} == GOLDEN_LONG[key]


def test_render_golden_covers_every_edge():
    edges = [f"{path.name} {name}" for path in SAMPLES for name, *_ in parse_source(path.read_text()).edges]
    assert sorted(GOLDEN_RENDER) == sorted(edges)


@pytest.mark.parametrize("key", sorted(GOLDEN_RENDER))
def test_render_output_frozen(key):
    name, edge = key.split()
    (path,) = [p for p in SAMPLES if p.name == name]
    r = run("render", str(path), "--edge", edge)
    assert {"stdout": r.stdout, "exit": r.exit_code} == GOLDEN_RENDER[key]


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.name)
def test_dissolve_and_check_agree_per_side(path):
    """dissolve prints each goal side's nf as check reports it, an empty
    one as (empty), or id in flavor M, and its composite as the side's
    word in flavor B and its permutation in flavor S."""
    flavor = parse_source(path.read_text()).flavor
    sides = [(g["goal"], label, g[label]) for g in json.loads(run("check", str(path)).stdout) for label in ("left", "right")]
    expected = []
    for goal, label, side in sides:
        composite = {"B": side["word"] or "(empty)", "S": "perm " + " ".join(map(str, side["perm"])), "M": "id"}[flavor]
        nf = "id" if flavor == "M" else side["nf"] or "(empty)"
        expected.append(f"goal {goal} {label}: {composite}  nf {nf}")
    printed = [line for line in run("dissolve", str(path)).stdout.splitlines() if line.startswith("goal ")]
    assert printed == expected and len(sides) >= 2


def test_check_json_file(tmp_path):
    out = tmp_path / "verdicts.json"
    r = run("check", str(FIXTURES / "mystery2.coh"), "--json", str(out))
    assert r.exit_code == 0
    assert json.loads(out.read_text()) == json.loads(r.stdout)


def test_check_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.coh"
    bad.write_text("flavor braided\nnode x = braid(X,\n")
    r = run("check", str(bad))
    assert r.exit_code == 2
    assert "error" in r.stderr


def test_check_interp_disagreeing_with_functor_exits_2(tmp_path):
    bad = tmp_path / "interp.coh"
    bad.write_text(fixture_text("cursed_lift.coh").replace("interp hb = [b b b b]", "interp hb = [b b]"))
    r = run("check", str(bad))
    assert r.exit_code == 2
    assert "disagrees with the functor" in json.loads(r.stdout)["error"]
    assert "error" in r.stderr


def test_check_interp_of_an_image_too_large_to_build_exits_2(tmp_path):
    # nfold(10**12) images a letter as 10**12 letters, whose allocation fails
    # at once; the child's address space is capped so that it fails whatever
    # the machine's overcommit policy
    big = tmp_path / "big.coh"
    big.write_text(fixture_text("cursed_lift.coh").replace("nfold(4)", "nfold(1000000000000)"))
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))  # noqa: E731
    r = subprocess.run(
        [sys.executable, "-m", "cohcheck.cli", "check", str(big)],
        env=_child_env(), capture_output=True, text=True, preexec_fn=cap,
    )
    message = "functor nfold(1000000000000): the image of 'a' is too large to build"
    assert (r.returncode, json.loads(r.stdout), r.stderr) == (2, {"error": message}, f"error: {message}\n")


@pytest.mark.parametrize(
    "command, text, status, stdout, stderr",
    [
        (
            "dissolve", _tiny("node n = [fa fb]\nedge e : n -> n = id\ngoal g : e == e\n", flavor="monoidal"), 0,
            "edge e: fa fb -> fa fb  id\ngoal g left: id  nf id\ngoal g right: id  nf id\n", "",
        ),
        ("check", "flavor braided\ngens A = { a }\n", 2, "", "error: file declares no map\n"),
        (
            "check", _tiny("node n = [fa]\nfunctor D = doubling on A\n", flavor="monoidal"), 2, "",
            "error: line 6, col 1: functor D: copying functors need a braiding; flavor M has none\n",
        ),
        ("check", _tiny("node n = [fa]\ninterp zz = [a a]\n"), 2, "", "error: line 6, col 1: 'zz' is not a generator of A2\n"),
        ("check", _tiny("node n = [fa]\ninterp fa = [a zz]\n"), 2, "", "error: line 6, col 1: 'zz' is not a generator of A\n"),
        (
            "check", _tiny("node n = [fa]\n").replace("a -> fa;", "a -> fa; a -> fb;"), 2, "",
            "error: map gives 'a' more than one image\n",
        ),
    ],
    ids=[
        "dissolve-monoidal", "no-map", "copying-functor-in-monoidal", "interp-of-no-generator",
        "interp-by-no-generator", "map-repeats-a-source",
    ],
)
def test_command_output(tmp_path, command, text, status, stdout, stderr):
    path = tmp_path / "file.coh"
    path.write_text(text, encoding="utf-8")
    r = run(command, str(path))
    assert (r.exit_code, r.stdout, r.stderr) == (status, stdout, stderr)


def _check_says_equal(path: Path) -> None:
    r = run("check", str(path))
    assert r.exception is None
    assert r.exit_code == 0
    assert [g["verdict"] for g in json.loads(r.stdout)] == [EQUAL]
    assert "Traceback" not in r.output


def test_check_deep_goal_path(tmp_path):
    # 1,500 edges in one goal side: deeper than the recursion limit
    copies = 1500
    deep = tmp_path / "deep_path.coh"
    deep.write_text(_tiny(
        "node n = [fa fa]\n"
        "edge e : n -> n = s1\n"
        "edge f : n -> n = " + " ".join(["s1"] * copies) + "\n"
        "goal deep : " + " . ".join(["e"] * copies) + " == f\n"
    ))
    _check_says_equal(deep)


def _count_typing(monkeypatch) -> collections.Counter:
    """Count typed folds per term; validate_umor fails the test."""
    typed: collections.Counter = collections.Counter()
    fold_typed = ualg.fold_typed

    def counting(t, *args):
        typed[id(t)] += 1
        return fold_typed(t, *args)

    def forbidden(*args):
        raise AssertionError("validate_umor called")

    monkeypatch.setattr(ualg, "fold_typed", counting)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("cohcheck") and hasattr(mod, "validate_umor"):
            monkeypatch.setattr(mod, "validate_umor", forbidden)
    return typed


@pytest.mark.parametrize("shape", ["pair", "deep_path"])
def test_each_edge_is_typed_once(monkeypatch, shape):
    if shape == "pair":
        text = fixture_text("pair.coh")
    else:
        text = _tiny(
            "node n = [fa fa]\nedge e : n -> n = s1\nedge f : n -> n = " + " ".join(["s1"] * 1500) + "\n"
            "goal deep : " + " . ".join(["e"] * 1500) + " == f\n"
        )
    typed = _count_typing(monkeypatch)
    d = build_diagram(parse_source(text))
    for g in d.goals:
        explain_goal(d, g)
    # elaboration typed every edge and kept its residue: the fold never runs
    assert typed == collections.Counter()
    # a diagram that did not come from elaboration is typed by the fold, once an edge
    for fresh in (d._replace(goals=d.goals), Diagram(d.flavor, d.phi, d.nodes, d.edges, d.goals)):
        typed.clear()
        validate_diagram(fresh)
        for g in fresh.goals:
            explain_goal(fresh, g)
        assert typed == collections.Counter({id(e.term): 1 for e in d.edges.values()})


@pytest.mark.parametrize("path", [FIXTURES / "mystery1.coh", LONG / "braided4.coh"], ids=lambda p: p.name)
def test_build_and_explain_make_no_term_tree(monkeypatch, path):
    """A parsed edge keeps its rows: building the file and explaining its
    goals make no UTensor, UCompose or UFree. The term is derived from the
    rows when it is first read, and the same term is read after that."""
    made = _count_calls(monkeypatch, ("UTensor", "UCompose", "UFree"))
    d = build_diagram(parse_source(path.read_text(encoding="utf-8")))
    for g in d.goals:
        explain_goal(d, g)
    assert made == collections.Counter()
    terms = [e.term for e in d.edges.values()]
    assert made["UTensor"] + made["UCompose"] + made["UFree"] > 0  # the counters see the derivation
    assert all(e.term is t for e, t in zip(d.edges.values(), terms))
    # a replaced parsed edge is a hand-built one, carrying the derived term
    e = next(iter(d.edges.values()))
    assert e._replace(name="x") == Edge("x", e.source, e.target, terms[0])


@pytest.mark.parametrize("path", [FIXTURES / "cursed_lift.coh", LONG / "symmetric8.coh", LONG / "braided4.coh"],
                         ids=lambda p: p.name)
def test_edge_keeps_each_row_as_its_factors_and_source_letters(path):
    """A parsed edge keeps one (factors, source letters) pair per row, in
    application order: the factors are the tuple the parse returned, and
    the letters are those the row reads, the edge's source letters for the
    first row and the letters the row before it left for each later one."""
    sf = parse_source(path.read_text(encoding="utf-8"))
    d = build_diagram(sf)
    nodes = dict(sf.nodes)
    for (_, esrc, etgt, ast), e in zip(sf.edges, d.edges.values()):
        assert len(e[3]) == len(ast[1])
        letters = cli._elab_obj(nodes[esrc], e.env)
        for (factors, kept), row in zip(e[3], reversed(ast[1])):
            assert factors is row[1] and kept == letters
            _, _, letters = cli._elab_mor(("compose", (row,)), letters, e.env, {})
        assert ualg.normalize_uobj(letters, e.env.phi) == d.nodes[etgt]


def test_perm_rows_are_applied_not_built(monkeypatch):
    """No perm(..) factor of a row is built: elaboration neither hands one
    to _elab_factor nor makes a free morphism of it. A perm(..) part of a
    pf(..) is still built with the pf(..)."""
    built = collections.Counter()
    elab_factor, free_mor = cli._elab_factor, cli._free_mor

    def counting_factor(key, chunk, env, builds):
        built["_elab_factor", key[0][0]] += 1
        return elab_factor(key, chunk, env, builds)

    def counting_free_mor(f, x, env, part):
        built["_free_mor", f[0], part] += 1
        return free_mor(f, x, env, part)

    monkeypatch.setattr(cli, "_elab_factor", counting_factor)
    monkeypatch.setattr(cli, "_free_mor", counting_free_mor)
    sf = parse_source((LONG / "symmetric8.coh").read_text(encoding="utf-8"))
    assert sum(f[0] == "perm" for *_, ast in sf.edges for row in ast[1] for f in row[1]) > 100
    build_diagram(sf)
    assert built["_elab_factor", "perm"] == built["_free_mor", "perm", ""] == 0
    assert built["_elab_factor", "word"] > 0 and built["_free_mor", "perm", "inner"] > 0  # the counters see builds


@pytest.mark.parametrize("flavor, swap", [("braided", "s1"), ("symmetric", "perm(2 1)")])
def test_formed_letter_stays_formed_through_a_braid_factor(tmp_path, flavor, swap):
    # the swap's target letters are its source letters moved, so phi(a)
    # stays a formed letter that the pf(..) after it can take
    path = tmp_path / "formed.coh"
    path.write_text(_tiny(
        "node n = [fb] ; phi(a)\nnode m = phi(a) ; [fb]\n"
        f"edge e : n -> m = pf(outer=id; inner=id) ; id . {swap}\n"
        f"edge f : n -> m = {swap}\ngoal g : e == f\n", flavor
    ))
    _check_says_equal(path)


_ROWS = "node n = [fa fb fa]\nnode m = [fb fa fa]\nedge e : n -> m = s1 ; id . s2 s1 . id ; s1\ngoal g : e == e\n"


# one word factor on the same letters in both rows of e and in the row of f applied first
_REPEATS = "node n = [fa fa]\nedge e : n -> n = s1 . s1\nedge f : n -> n = s1 s1 . s1\ngoal g : e == f\n"


def _count_braid_perm(monkeypatch) -> list:
    """The words braid_perm is called on, wrapped in every cohcheck module
    that imported it."""
    calls = []
    braid_perm = cohcheck.braid_core.braid_perm

    def counting(w):
        calls.append(w)
        return braid_perm(w)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("cohcheck") and getattr(mod, "braid_perm", None) is braid_perm:
            monkeypatch.setattr(mod, "braid_perm", counting)
    return calls


def _deep_edge(k: int, node: str) -> str:
    """One edge of k one-letter rows over s1, s2, s1^-1 and s2^-1 on the 3
    letters of node; for k a multiple of 12 it ends where it starts."""
    rows = " . ".join(("s1", "s2", "s1^-1", "s2^-1")[i % 4] for i in range(k))
    return _tiny(f"node n = {node}\nedge e : n -> n = {rows}\ngoal g : e == e\n")


@pytest.mark.parametrize("source, distinct", [
    (fixture_text("pair.coh"), 3), (fixture_text("cursed_cyclic.coh"), 4), (_tiny(_ROWS), 2),
    (_tiny(_ROWS, "symmetric"), 2), (_tiny(_REPEATS), 2), (_tiny(_REPEATS, "symmetric"), 2),
    (_deep_edge(48, "[fa fa fa]"), 4), (_deep_edge(48, "[fa fb fa]"), 4),
    (_deep_edge(48, "phi(a) ; [fb] ; phi(b)"), 4),
], ids=[
    "pair", "cursed_cyclic", "braided_rows", "symmetric_rows", "braided_repeats", "symmetric_repeats",
    "deep_edge_one_label", "deep_edge_two_labels", "deep_edge_formed_letters",
])
def test_each_braid_word_factor_is_permuted_once(monkeypatch, source, distinct):
    """Elaboration computes a braid-word factor's permutation once per
    distinct word and width in a file, whatever letters it moves: the
    labels are only permuted. The sources have braid words only as factors
    of rows, not as parts of pf(..). pair uses "s2" at width 4 in two
    edges, on different letters; cursed_cyclic repeats two words on the
    same letters in other edges; _ROWS uses s1 at width 2 in both of its
    outer rows; _REPEATS repeats one word in another row of the same edge
    and in another edge; and each row of a deep edge moves the letters
    that the row before it left, four words at width 3."""
    sf = parse_source(source)
    words = [f for *_, ast in sf.edges for row in ast[1] for f in row[1] if f[0] == "word" and f[1]]
    calls = _count_braid_perm(monkeypatch)
    build_diagram(sf)
    assert len(words) >= len(calls) == len(set(calls)) == distinct


def test_each_braid_factor_elaborates_its_objects_once(monkeypatch):
    """braid(X, Y) elaborates X and Y once per file, to count its chunk
    and to build it: here 2 nodes, then 2 distinct braid factors, one used
    four times over two edges and the other twice in one row."""
    text = _tiny(
        "node n = [fa fb fa fb]\nnode m = [fb fa fb fa]\n"
        "edge e : n -> m = braid([fa], [fb]) ; braid([fa], [fb])\n"
        "edge h : n -> m = braid([fa], [fb]) ; braid([fa], [fb])\n"
        "edge f : m -> n = braid([fb], [fa]) ; braid([fb], [fa])\ngoal g : f . e == f . h\n"
    )
    calls = []
    elab_obj = cli._elab_obj

    def counting(ast, env):
        calls.append(ast)
        return elab_obj(ast, env)

    monkeypatch.setattr(cli, "_elab_obj", counting)
    build_diagram(parse_source(text))
    assert len(calls) == 2 + 2 * 2


def test_each_build_elaborates_afresh(monkeypatch):
    # the memo lives for one build_diagram call: a second build of the
    # same parsed file permutes as many words as the first
    sf = parse_source(_tiny(_REPEATS))
    calls = _count_braid_perm(monkeypatch)
    d = build_diagram(sf)
    first = len(calls)
    assert build_diagram(sf) == d and len(calls) == 2 * first > 0


def test_width_check_runs_before_the_memo():
    # e's final id takes the empty rest and stores (id, ()); f's middle id
    # needs one letter and none is left, whatever the memo holds
    text = _tiny("node n = [fa fa]\nedge e : n -> n = s1 ; id\nedge f : n -> n = s1 ; id ; id\n")
    with pytest.raises(ElabError) as err:
        build_diagram(parse_source(text))
    assert str(err.value) == "line 7, col 1: id needs 1 letters, 0 left"


_PF = (
    "node n = phi(a b) ; phi(b a) ; [fa]\nnode m = [fa] ; phi(b a) ; phi(b a)\n"
    "edge e : n -> m = braid(phi(b a) ; phi(b a), [fa]) . pf(outer={0}; inner={0}, id) ; id\ngoal g : e == e\n"
)


@pytest.mark.parametrize("source", [
    _tiny(_ROWS), _tiny(_ROWS, "symmetric"),
    _tiny("node n = [fa fb fa]\nedge e : n -> n = q^-1(a | b) ; id . id ; id . q(a | b) ; id . braid([fa], []) ; id ; id\n"
          "goal g : e == e\n", "monoidal"),
    _tiny(_PF.format("s1")), _tiny(_PF.format("perm(2 1)"), "symmetric"),
], ids=["braided_rows", "symmetric_rows", "monoidal_rows", "braided_pf", "symmetric_pf"])
def test_each_edge_residue_is_joined_without_binary_calls(monkeypatch, source):
    """Elaboration joins each edge's rows once, and the flattening of a
    pf(..) joins its inners and its cabled outer once: the binary
    fmor_tensor and fmor_compose never run while a file is built."""
    sf = parse_source(source)
    assert max(len(row[1]) for *_, ast in sf.edges for row in ast[1]) > 1
    calls = _count_calls(monkeypatch, ("fmor_tensor", "fmor_compose"))
    build_diagram(sf)
    assert calls == collections.Counter()


def _count_calls(monkeypatch, names) -> collections.Counter:
    """Count calls of the named free_cat, ualg or braid_core functions or
    classes, wrapped in every cohcheck module that imported them."""
    calls = collections.Counter()
    for name in names:
        original = getattr(cohcheck.free_cat, name, None) or getattr(cohcheck.ualg, name, None)
        original = original or getattr(cohcheck.braid_core, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cohcheck") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    return calls


_PATHS = (
    "node n = phi(a b) ; [fa]\nnode m = [fa fb fa]\n"
    "edge d : n -> m = q^-1(a | b) ; id\nedge u : m -> n = q(a | b) ; id\nedge w : m -> m = {}\n"
    "goal g : w . d . u . d == d . u . w . w . d\n"
)


@pytest.mark.parametrize("flavor, w", [("braided", "s1 s2 s1^-1"), ("symmetric", "perm(3 2 1)"), ("monoidal", "id")])
def test_each_goal_side_is_one_join(monkeypatch, flavor, w):
    """Each goal side's residue is one fmor_join of its edges' residues:
    the binary fmor_compose and fmor_tensor never run while a goal of
    paths of 4 and 5 edges is explained."""
    d = build_diagram(parse_source(_tiny(_PATHS.format(w), flavor)))
    (goal,) = d.goals
    calls = _count_calls(monkeypatch, ("fmor_tensor", "fmor_compose", "fmor_join"))
    report = explain_goal(d, goal)
    assert calls == collections.Counter(fmor_join=2)
    assert report.verdict == (EQUAL if flavor == "monoidal" else NOT_EQUAL)  # one w against two


@pytest.mark.parametrize("flavor, w", [("braided", "s1 s2 s1^-1"), ("symmetric", "perm(3 2 1)"), ("monoidal", "id")])
def test_check_reads_each_goal_side_once(monkeypatch, tmp_path, flavor, w):
    """Beyond building the file, coh check makes one report per goal side:
    one fmor_join, and in flavor B one normal form and one permutation."""
    path = tmp_path / "paths.coh"
    path.write_text(_tiny(_PATHS.format(w), flavor))
    calls = _count_calls(monkeypatch, ("fmor_join", "normalize_braid", "braid_perm"))
    build_diagram(parse_source(path.read_text()))
    built = calls.copy()
    calls.clear()
    assert run("check", str(path)).exit_code == (0 if flavor == "monoidal" else 1)
    per_side = ("fmor_join", "normalize_braid", "braid_perm") if flavor == "braided" else ("fmor_join",)
    assert calls - built == collections.Counter(dict.fromkeys(per_side, 2))
    assert built - calls == collections.Counter()


# rows that repeat within one file: the third row of e is its first, f
# repeats e, and the last two rows of g are alike; pf(..) and braid(..)
# nest factors and brackets
_REPEATED_ROWS = (
    "node n = phi(a b) ; [fa fb]\n"
    'edge e : n -> n = perm(2 1) ; perm(2 1) . "s1" ; perm(2 1) . perm(2 1) ; perm(2 1)\n'
    'edge f : n -> n = perm(2 1) ; perm(2 1) . "s1" ; perm(2 1) . perm(2 1) ; perm(2 1)\n'
    'edge g : n -> n = pf(outer=id; inner=perm(2 1)) ; "s1" . braid(phi(a b), [fa fb]) . id ; s1 . id ; s1\n'
    "goal h : e . f == g\n"
)


def test_parser_reads_each_distinct_row_once(monkeypatch):
    """Within one parse_source call a row is looked up by its tokens: each
    distinct row's factors are parsed once, and equal rows are the same
    tuple."""
    spans = []

    def recording(cur, original=cli._parse_factor):
        at = cur.i
        f = original(cur)
        spans.append(" ".join(cur.texts[at : cur.i]))
        return f

    monkeypatch.setattr(cli, "_parse_factor", recording)
    sf = parse_source(_tiny(_REPEATED_ROWS, "symmetric"))
    # a factor inside pf(..) is parsed before pf(..) itself is done
    assert spans == [
        "perm ( 2 1 )", "perm ( 2 1 )", '"s1"', "perm ( 2 1 )",
        "id", "perm ( 2 1 )", "pf ( outer = id ; inner = perm ( 2 1 ) )", '"s1"',
        "braid ( phi ( a b ) , [ fa fb ] )", "id", "s1",
    ]
    e, f, g = (ast[1] for *_, ast in sf.edges)
    assert e == f and all(x is y for x, y in zip(e, f)) and e[0] is e[2]
    assert g[2] is g[3]


def test_memos_live_for_one_call():
    """Nothing carries over between parse_source calls or between diagrams:
    two parses of one text give equal rows and factors that are not the
    same tuples, and two diagrams built from one parse share no side
    report and no table of the normal form."""
    text = (LONG / "braided4.coh").read_text(encoding="utf-8")
    one, two = parse_source(text), parse_source(text)
    assert one == two
    rows_one, rows_two = one.edges[0][3][1], two.edges[0][3][1]
    assert all(a == b and a is not b for a, b in zip(rows_one, rows_two))
    factors = [(a, b) for x, y in zip(rows_one, rows_two) for a, b in zip(x[1], y[1]) if a[0] == "braid"]
    assert factors and all(a == b and a is not b for a, b in factors)
    first, second = build_diagram(one), build_diagram(one)
    for d in (first, second):
        for goal in d.goals:
            explain_goal(d, goal)
    assert first.sides.keys() == second.sides.keys() and first.sides
    for path, (_, report) in first.sides.items():
        assert report == second.sides[path][1] and report is not second.sides[path][1]
    assert first.nf_tables.keys() == second.nf_tables.keys() == {4}
    held = [id(t) for d in (first, second) for t in (d.nf_tables, *d.nf_tables[4])]
    assert len(set(held)) == len(held)


def test_goals_that_share_a_side_share_its_report():
    d = build_diagram(parse_source(_tiny(
        "node n = [fa fa]\nedge e : n -> n = s1\nedge f : n -> n = s1^-1\n"
        "goal g1 : e . e == f . e\ngoal g2 : e . e == e\ngoal g3 : f . e == e . e\n"
    )))
    g1, g2, g3 = (explain_goal(d, g) for g in d.goals)
    assert g1.left is g2.left is g3.right and g1.right is g3.left
    assert len(d.sides) == 3


def test_check_deep_edge(tmp_path):
    # one edge of 1,200 composed one-letter rows on 3 strands
    word = [("s1", "s2", "s1^-1", "s2", "s2^-1")[i % 5] for i in range(1200)]
    deep = tmp_path / "deep_edge.coh"
    deep.write_text(_tiny(
        "node n = [fa fa fa]\n"
        "edge e : n -> n = " + " . ".join(word) + "\n"
        "edge f : n -> n = " + " ".join(word) + "\n"
        "goal deep : e == f\n"
    ))
    _check_says_equal(deep)


def test_check_verdict_lines_go_to_stderr():
    r = run("check", str(FIXTURES / "mystery3.coh"))
    assert "goal natb: equal_in_s_only" in r.stderr
    assert "natb" in r.stdout  # the JSON side


def test_color_forced_and_stripped():
    for name, line in (
        ("cursed_lift.coh", "goal natq: \x1b[32mequal\x1b[0m\n"),
        ("mystery3.coh", "goal natb: \x1b[33mequal_in_s_only\x1b[0m\n"),
        ("notequal.coh", "goal diff: \x1b[31mnot_equal\x1b[0m\n"),
    ):
        colored = run("check", str(FIXTURES / name), env={"COH_COLOR": "1"})
        plain = run("check", str(FIXTURES / name), env={"COH_COLOR": "0"})
        assert colored.stderr == line
        assert "\x1b[" not in plain.stderr


def test_dissolve_lists_edges_and_goal_words():
    r = run("dissolve", str(FIXTURES / "mystery1.coh"))
    assert r.exit_code == 0
    lines = r.stdout.splitlines()
    assert sum(1 for l in lines if l.startswith("edge ")) == 6
    assert "edge e2: fa fa fa -> fa fa fa  s1 s2" in lines
    assert any(l.startswith("goal hex left: s1 s2") for l in lines)


def test_braid_eq_equal():
    r = run("braid-eq", "s3 s4 s2", "s3 s2 s4", "--strands", "6")
    assert (r.exit_code, r.stdout.strip()) == (0, "equal")
    # compared on the strands the words use, not on all 10^12
    r = run("braid-eq", "s1 s2 s1", "s2 s1 s2", "--strands", str(10**12))
    assert (r.exit_code, r.stdout, r.stderr) == (0, "equal\n", "")


def test_braid_eq_unequal():
    r = run("braid-eq", "s3 s1 s2", "s2 s2 s1 s3 s2", "--strands", "4")
    assert (r.exit_code, r.stdout.strip()) == (1, "not equal")
    r = run("braid-eq", "s1 s2", "s2 s1", "--strands", str(10**12))
    assert (r.exit_code, r.stdout, r.stderr) == (1, "not equal\n", "")


def test_braid_eq_bad_letter():
    r = run("braid-eq", "s9", "s1", "--strands", "4")
    assert r.exit_code == 2
    assert r.stderr == "error: letter 's9' out of range for 4 strands\n"


@pytest.mark.parametrize(
    "args, status",
    [
        (["braid-eq", "", "", "--strands", "-1"], 2),
        (["braid-eq", "s" + "1" * 5000, "", "--strands", "3"], 2),
        (["check", "nfold5000.coh"], 0),
        (["check", "nfold_digits.coh"], 2),
        (["check", "not_utf8.coh"], 2),
        (["check", str(FIXTURES / "pair.coh"), "--json", "missing/x.json"], 2),
        (["check", "letter_digits.coh"], 2),
        (["check", "strand_digits.coh"], 2),
        (["braid-eq", "s\u0661", "", "--strands", "3"], 2),
        ([], 2),
        (["frob"], 2),
        (["render", str(FIXTURES / "pair.coh")], 2),
        (["braid-eq", "s1", "s1", "--strands", "abc"], 2),
    ],
    ids=[
        "braid-eq-negative-strands", "braid-eq-letter-past-int-limit",
        "check-nfold-5000", "check-nfold-count-past-int-limit",
        "check-source-not-utf8", "check-json-unwritable",
        "check-letter-past-int-limit", "check-strand-past-int-limit",
        "braid-eq-non-ascii-digit", "no-command", "unknown-command",
        "render-without-edge", "braid-eq-strands-not-a-number",
    ],
)
def test_exit_contract(tmp_path, args, status):
    # copying functors on a file without interpretations: one of 5,000
    # copies, and one whose count has more digits than int() converts
    text = fixture_text("cursed_lift.coh").split("interp")[0]
    for name, count in (("nfold5000.coh", "5000"), ("nfold_digits.coh", "1" * 5000)):
        (tmp_path / name).write_text(text.replace("nfold(4)", f"nfold({count})"), encoding="utf-8")
    (tmp_path / "not_utf8.coh").write_bytes(b"\xff\xfe")
    # a braid letter and a perm strand with more digits than int() converts
    (tmp_path / "letter_digits.coh").write_text(
        fixture_text("pair.coh").replace('"s2 s1 s3 s2"', '"s2 s' + "1" * 5000 + '"'), encoding="utf-8"
    )
    (tmp_path / "strand_digits.coh").write_text(
        fixture_text("notequal.coh").replace("perm(2 1)", "perm(2 " + "1" * 5000 + ")"), encoding="utf-8"
    )
    r = subprocess.run(
        [sys.executable, "-m", "cohcheck.cli", *args], cwd=tmp_path, env=_child_env(), capture_output=True, text=True
    )
    assert r.returncode == status
    assert "Traceback" not in r.stderr
    assert "internal error" not in r.stderr


def _child_env(**extra: str) -> dict[str, str]:
    """The environment of a `coh` subprocess that imports this checkout."""
    src = str(Path(cohcheck.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_an_input_error(tmp_path, unbuffered):
    # the reader of stdout is gone before coh starts; a buffered stdout
    # fails only when it is flushed
    env = _child_env(PYTHONUNBUFFERED=unbuffered, COH_COLOR="0")
    pair = str(FIXTURES / "pair.coh")
    disagreeing = tmp_path / "interp.coh"
    disagreeing.write_text(fixture_text("cursed_lift.coh").replace("interp hb = [b b b b]", "interp hb = [b b]"))
    for args, verdicts in (
        (["check", pair], "goal braidax: equal_in_s_only\n"),
        (["check", str(disagreeing)], ""),
        (["dissolve", pair], ""),
        (["render", pair, "--edge", "swap"], ""),
    ):
        read, write = os.pipe()
        os.close(read)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "cohcheck.cli", *args], stdout=write, stderr=subprocess.PIPE, env=env, text=True
            )
        finally:
            os.close(write)
        assert (r.returncode, r.stderr) == (2, verdicts + "error: <stdout>: Broken pipe\n"), args
    # with no stdout at all, print writes nothing and the verdict stands
    r = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "cohcheck.cli", "check", pair],
        stderr=subprocess.PIPE, env=env, text=True,
    )
    assert (r.returncode, r.stderr) == (1, "goal braidax: equal_in_s_only\n")


def test_unreadable_files_are_input_errors(tmp_path):
    bad = tmp_path / "bad.coh"
    bad.write_bytes(b"flavor braided\n\xff\xfe\n")
    r = run("check", str(bad))
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte\n"
    # a --json file that cannot be written: no verdicts on stdout, and no file
    out = tmp_path / "missing" / "x.json"
    r = run("check", str(FIXTURES / "pair.coh"), "--json", str(out))
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == f"error: {out}: No such file or directory\n"
    r = run("check", str(FIXTURES / "pair.coh"), "--json", str(tmp_path))
    assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error: {tmp_path}: Is a directory\n")
    # a FILE that is missing or a directory
    missing = tmp_path / "missing.coh"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        for args in (["check", str(path)], ["dissolve", str(path)], ["render", str(path), "--edge", "e"]):
            r = run(*args)
            assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error: {path}: {reason}\n")


def test_numbers_past_int_limit_are_parse_errors():
    text = fixture_text("notequal.coh").replace("perm(2 1)", "perm(2 " + "1" * 5000 + ")")
    with pytest.raises(ParseError, match="line 10, col 31: a number of 5000 digits is too long"):
        parse_source(text)
    text = fixture_text("pair.coh").replace('"s2"', "s" + "1" * 4400, 1)
    with pytest.raises(ParseError, match="line 14, col 23: a number of 4400 digits is too long"):
        parse_source(text)


def test_nfold_count_past_int_limit_is_a_parse_error(tmp_path):
    # read like every other number: at the count's own column, not as an
    # elaboration error at the start of the line
    text = _tiny("functor F = nfold(" + "1" * 5000 + ") on A\n")
    with pytest.raises(ParseError) as exc:
        parse_source(text)
    assert str(exc.value) == "line 5, col 19: a number of 5000 digits is too long"
    path = tmp_path / "nfold.coh"
    path.write_text(text, encoding="utf-8")
    r = run("check", str(path))
    assert (r.exit_code, r.stdout, r.stderr) == (2, "", "error: line 5, col 19: a number of 5000 digits is too long\n")


def test_internal_error_exits_3(monkeypatch):
    # a bug is not a verdict: one line on stderr, no traceback, status 3
    def crash(d, g):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "explain_goal", crash)
    r = run("check", str(FIXTURES / "pair.coh"))
    assert r.exit_code == 3
    assert r.stderr == "internal error: RuntimeError: boom\n"
    assert r.stdout == ""
    assert "Traceback" not in r.output


def test_render_unknown_edge():
    r = run("render", str(FIXTURES / "mystery1.coh"), "--edge", "nope")
    assert r.exit_code == 2
    assert (r.stdout, r.stderr) == ("", "error: no edge named 'nope'\n")


def test_render_is_deterministic():
    a = run("render", str(FIXTURES / "cursed_cyclic.coh"), "--edge", "bottom")
    b = run("render", str(FIXTURES / "cursed_cyclic.coh"), "--edge", "bottom")
    assert a.stdout == b.stdout
    assert a.stdout.count("\n") == 13  # header + 12 letters


# -- rendering -------------------------------------------------------------------


def test_render_single_crossing():
    out = render_braid_ascii(BraidWord(2, (1,)), ["a", "b"])
    assert out == "a   b\n\\ + /"


def test_render_empty_word():
    out = render_braid_ascii(BraidWord(3, ()), ["x", "y", "z"])
    assert out.splitlines()[1] == "|   |   |"


def test_render_rows_follow_application_order():
    out = render_braid_ascii(parse_braid("s1 s2", 3), ["a", "a", "a"])
    rows = out.splitlines()[1:]
    assert rows[0] == "|   \\ + /"  # s2 applied first
    assert rows[1] == "\\ + /   |"


def test_render_marks_inverse_crossings():
    out = render_braid_ascii(BraidWord(2, (-1,)), ["a", "b"])
    assert "-" in out and "+" not in out


def test_render_label_arity_checked():
    with pytest.raises(StructureError):
        render_braid_ascii(BraidWord(3, (1,)), ["a", "b"])


def test_render_same_word_same_picture():
    w = parse_braid("s2 s1 s2", 3)
    v = parse_braid("s2 s1 s2", 3)
    assert braid_equal(w, parse_braid("s1 s2 s1", 3))
    assert render_braid_ascii(w, ["x", "y", "z"]) == render_braid_ascii(v, ["x", "y", "z"])


@pytest.mark.parametrize("labels, header", [
    (["abc", "abcd", "abcdef"], "abc abc abc"),
    (["a", "abcdef", "ab"], "a   abc ab"),
    (["abcdef", "a", "b"], "abc a   b"),
])
def test_render_truncates_and_pads_labels(labels, header):
    assert render_braid_ascii(parse_braid("s2 s1", 3), labels).splitlines() == [header, "\\ + /   |", "|   \\ + /"]


def test_render_empty_word_on_zero_and_one_strands():
    assert render_braid_ascii(BraidWord(0, ()), []) == "\n"
    assert render_braid_ascii(BraidWord(1, ()), ["long"]) == "lon\n|"


def test_render_crossing_on_the_last_strand_pair():
    out = render_braid_ascii(BraidWord(4, (3, -3, 1)), ["a", "b", "c", "d"])
    assert out == "a   b   c   d\n\\ + /   |   |\n|   |   \\ - /\n|   |   \\ + /"
