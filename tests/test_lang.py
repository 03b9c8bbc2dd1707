"""Assertion syntax: lexing, precedence, sorts, and render/parse identity."""

from __future__ import annotations

import random
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifter.lang import (
    MAX_NESTING,
    AllNumbers,
    AllOccs,
    AllRules,
    AllTerms,
    And,
    Atomic,
    AtomicName,
    BoolLit,
    Imp,
    Modifier,
    Not,
    OccsOf,
    Or,
    ParseError,
    Pattern,
    Quant,
    QuantKind,
    SortError,
    TermsIn,
    _lex,
    parse_assertion,
    render_assertion,
    sort_check,
)
from lifter.interp import compile_assertion
from lifter.stdlib import STDLIB_NAMES, default_heuristics_dir

import oracle_lang
from helpers import random_assertion


def EX(var, dom, body):
    return Quant(QuantKind.EXISTS, var, dom, body)


def ALL(var, dom, body):
    return Quant(QuantKind.FORALL, var, dom, body)


class TestParsing:
    def test_h1_sugar_shape(self):
        text = (
            "ALL t1 : term IN induction_term . "
            "EX to1 : term_occurrence IN t1 : term . Not ( is_constant to1 )"
        )
        expected = ALL(
            "t1",
            TermsIn(Modifier.INDUCTION),
            EX(
                "to1",
                OccsOf("t1"),
                Not(Atomic(AtomicName.IS_CONSTANT, ("to1",))),
            ),
        )
        assert parse_assertion(text) == expected

    def test_short_domain_sugar_equals_long_form(self):
        short = parse_assertion("ALL t : induction_term . True")
        long = parse_assertion("ALL t : term IN induction_term . True")
        assert short == long
        assert parse_assertion("EX t : arbitrary_term . True") == parse_assertion(
            "EX t : term IN arbitrary_term . True"
        )

    def test_plain_domains(self):
        assert parse_assertion("EX n : number . True") == EX("n", AllNumbers(), BoolLit(True))
        assert parse_assertion("EX r : rule . True") == EX("r", AllRules(), BoolLit(True))
        assert parse_assertion("EX t : term . True") == EX("t", AllTerms(), BoolLit(True))
        assert parse_assertion("EX o : term_occurrence . True") == EX(
            "o", AllOccs(), BoolLit(True)
        )

    def test_implication_is_right_associative(self):
        assert parse_assertion("True -> False -> True") == Imp(
            BoolLit(True), Imp(BoolLit(False), BoolLit(True))
        )

    def test_precedence_not_and_or_imp(self):
        assert parse_assertion("Not True /\\ False \\/ True -> False") == Imp(
            Or(And(Not(BoolLit(True)), BoolLit(False)), BoolLit(True)),
            BoolLit(False),
        )

    def test_conjunction_left_associative(self):
        a = parse_assertion("True /\\ False /\\ True")
        assert a == And(And(BoolLit(True), BoolLit(False)), BoolLit(True))

    def test_quantifier_body_extends_right(self):
        a = parse_assertion("EX n : number . True /\\ False")
        assert a == EX("n", AllNumbers(), And(BoolLit(True), BoolLit(False)))

    def test_parentheses_cut_quantifier_body(self):
        a = parse_assertion("( EX n : number . True ) /\\ False")
        assert a == And(EX("n", AllNumbers(), BoolLit(True)), BoolLit(False))

    def test_guard_and_guarded_forms_differ(self):
        swallowed = parse_assertion("EX r : rule . True -> False")
        guarded = parse_assertion("( EX r : rule . True ) -> False")
        assert swallowed == EX("r", AllRules(), Imp(BoolLit(True), BoolLit(False)))
        assert guarded == Imp(EX("r", AllRules(), BoolLit(True)), BoolLit(False))

    def test_infix_prefix_and_call_atomics(self):
        a = parse_assertion("EX r : rule . EX o : term_occurrence . r is_rule_of o")
        assert isinstance(a.body.body, Atomic)
        assert a.body.body == Atomic(AtomicName.IS_RULE_OF, ("r", "o"))
        b = parse_assertion(
            "EX o : term_occurrence . EX n : number . EX p : term_occurrence ."
            " is_nth_argument_of ( o , n , p )"
        )
        assert b.body.body.body == Atomic(AtomicName.IS_NTH_ARGUMENT_OF, ("o", "n", "p"))
        c = parse_assertion(
            "EX n : number . EX o : term_occurrence . pattern_is ( n , o , all_constructor )"
        )
        assert c.body.body == Atomic(
            AtomicName.PATTERN_IS, ("n", "o", Pattern.ALL_CONSTRUCTOR)
        )

    def test_nested_comments(self):
        a = parse_assertion("(* outer (* inner *) still out *) True")
        assert a == BoolLit(True)

    def test_unterminated_comment(self):
        with pytest.raises(ParseError, match="comment"):
            parse_assertion("(* never closed True")

    def test_call_arity_checked(self):
        with pytest.raises(ParseError, match="takes 2 arguments"):
            parse_assertion("EX t : term . are_same_term ( t , t , t )")

    def test_reserved_word_not_a_variable(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_assertion("EX term : number . True")
        with pytest.raises(ParseError, match="reserved"):
            parse_assertion("EX x : number . is_atomic rule")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_assertion("True True")

    def test_errors_carry_positions(self):
        with pytest.raises(ParseError) as info:
            parse_assertion("EX x :\n  bogus . True")
        assert info.value.line == 2
        assert info.value.col == 3

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_assertion("True & False")

    def test_lone_ident_is_an_error(self):
        with pytest.raises(ParseError, match="infix atomic"):
            parse_assertion("EX t : term . t")


class TestSortCheck:
    def test_accepts_well_sorted(self):
        text = (
            "EX t1 : term . EX to1 : term_occurrence IN t1 : term . "
            "ALL t2 : term IN induction_term . EX to2 : term_occurrence IN t2 : term . "
            "is_recursive_constant to1 /\\ to2 is_an_argument_of to1"
        )
        sort_check(parse_assertion(text))

    def test_sort_mismatch_names_both_sorts(self):
        with pytest.raises(SortError, match="bound at number, used at term_occurrence"):
            sort_check(parse_assertion("EX n : number . is_constant n"))

    def test_unbound_variable(self):
        with pytest.raises(SortError, match="unbound variable 'zz'"):
            sort_check(parse_assertion("EX n : number . is_constant zz"))

    def test_occurrence_domain_needs_term_variable(self):
        with pytest.raises(SortError, match="bound at term_occurrence, used at term"):
            sort_check(
                parse_assertion(
                    "EX o : term_occurrence . EX p : term_occurrence IN o : term . True"
                )
            )
        with pytest.raises(SortError, match="unbound"):
            sort_check(parse_assertion("EX p : term_occurrence IN t : term . True"))

    def test_inner_binding_shadows_outer(self):
        text = "EX x : term . EX x : number . EX o : term_occurrence . pattern_is ( x , o , mixed )"
        sort_check(parse_assertion(text))
        with pytest.raises(SortError):
            sort_check(
                parse_assertion("EX x : number . EX x : term . is_at_deepest x")
            )

    def test_pattern_literal_positions(self):
        with pytest.raises(SortError, match="pattern literal"):
            sort_check(
                parse_assertion(
                    "EX n : number . EX o : term_occurrence . "
                    "is_nth_argument_of ( o , n , all_constructor )"
                )
            )

    def test_scopes_do_not_leak_between_branches(self):
        with pytest.raises(SortError, match="unbound"):
            sort_check(
                parse_assertion("( EX o : term_occurrence . True ) /\\ is_atomic o")
            )


class TestRendering:
    def test_literals(self):
        assert render_assertion(BoolLit(True)) == "True"
        assert render_assertion(BoolLit(False)) == "False"

    def test_quantifier_in_lhs_gets_parentheses(self):
        a = parse_assertion("( EX n : number . True ) -> False")
        assert parse_assertion(render_assertion(a)) == a
        assert render_assertion(a).startswith("( EX")

    def test_rendered_domains(self):
        a = parse_assertion("EX t : induction_term . True")
        assert "term IN induction_term" in render_assertion(a)

    def test_1000_random_asts_round_trip(self):
        rng = random.Random(20260815)
        for _ in range(1000):
            ast = random_assertion(rng)
            assert parse_assertion(render_assertion(ast)) == ast

    @given(st.integers(0, 2**48))
    @settings(max_examples=300)
    def test_random_round_trip_property(self, seed):
        ast = random_assertion(random.Random(seed))
        rendered = render_assertion(ast)
        assert parse_assertion(rendered) == ast
        # Rendering is deterministic: a second pass yields the same text.
        assert render_assertion(parse_assertion(rendered)) == rendered

    @given(st.integers(0, 2**48))
    @settings(max_examples=200)
    def test_generated_assertions_sort_check(self, seed):
        sort_check(random_assertion(random.Random(seed)))


class TestDeepInput:
    """Chains of one connective cost no Python stack per link, and nesting
    past MAX_NESTING is a positioned ParseError, never a RecursionError."""

    def test_long_implication_chain_folds_to_the_right(self):
        node = sort_check(parse_assertion("True -> " * 2000 + "False"))
        for _ in range(2000):
            assert isinstance(node, Imp) and node.lhs == BoolLit(True)
            node = node.rhs
        assert node == BoolLit(False)

    @pytest.mark.parametrize("op", ["/\\", "\\/"])
    def test_long_and_or_chains_sort_check(self, op):
        assert sort_check(parse_assertion(f" {op} ".join(["True"] * 2000)))

    def test_300_nested_parentheses_are_refused_where_they_pass_the_limit(self):
        with pytest.raises(ParseError) as info:
            parse_assertion("(" * 300 + "True" + ")" * 300)
        message = "parentheses and quantifiers nest deeper than 100 levels"
        assert str(info.value) == f"1:101: {message}"

    def test_nesting_up_to_the_limit_parses(self):
        text = "(" * MAX_NESTING + "True" + ")" * MAX_NESTING
        assert parse_assertion(text) == BoolLit(True)
        quants = "".join(f"EX x{i} : term .\n" for i in range(MAX_NESTING))
        assert sort_check(parse_assertion(quants + "True"))

    def test_quantifiers_count_toward_the_limit(self):
        text = "EX t : term . (" * 50 + "\n  EX u : term . True" + ")" * 50
        with pytest.raises(ParseError) as info:
            parse_assertion(text)
        assert (info.value.line, info.value.col) == (2, 3)

    # Three trees far past Python's default recursion limit, and their
    # canonical text; each ends in a quantifier, whose `pos` is not compared.
    LEAF = "EX x : term . True"
    DEEP_TREES = {
        "and": ("True /\\ " * 2000 + LEAF, "True /\\ " * 2000 + LEAF),
        "imp": ("True -> " * 2000 + LEAF, "True -> " * 2000 + LEAF),
        "not": ("Not " * 5000 + LEAF, "Not ( " * 5000 + LEAF + " )" * 5000),
    }

    @pytest.mark.parametrize("shape", ["and", "imp", "not"])
    def test_deep_trees_render_compare_and_hash(self, shape):
        # render_assertion, == and hash() used to recurse once per level and
        # raise RecursionError on each of these.
        text, rendered = self.DEEP_TREES[shape]
        a = parse_assertion(text)
        b = parse_assertion("\n  " + text)  # the same tree; the leaf's pos differs
        compile_assertion(a)  # caches a program on a, which == and hash() ignore
        assert render_assertion(a) == rendered
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != parse_assertion(text.replace(self.LEAF, "EX x : rule . True"))


SHIPPED_TEXTS = [
    (default_heuristics_dir() / f"{name}.lifter").read_text(encoding="utf-8")
    for name in STDLIB_NAMES
]
# Tokens, comment marks, variables of the shipped texts and odd characters.
LIFTER_INSERTS = ["(", ")", ".", ":", ",", "/\\", "\\/", "->", "Not ", "EX ", "ALL ", "IN ",
                  "(*", "*)", "t1 ", "to1 ", "n ", "r1 ", "number", "term", "0", "\u3000", "\x00"]
LIFTER_VARIABLES = ["t1", "t2", "to1", "to2", "n", "r1", "x"]


@st.composite
def mutated_lifter_texts(draw) -> str:
    """A shipped heuristic's text, cut short, or with a few spans deleted,
    tokens inserted or variables renamed; a rename mostly gives a sort
    error."""
    text = draw(st.sampled_from(SHIPPED_TEXTS))
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "rename"]))
        if edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        elif edit == "insert":
            text = text[:at] + draw(st.sampled_from(LIFTER_INSERTS)) + text[at:]
        else:
            old, new = draw(st.lists(st.sampled_from(LIFTER_VARIABLES), min_size=2, max_size=2))
            text = text[:at] + text[at:].replace(f"{old} ", f"{new} ", 1)
    return text


@given(st.one_of(st.text(), mutated_lifter_texts()))
@settings(max_examples=400, deadline=None)
def test_assertion_checking_raises_only_parse_or_sort_error(text):
    try:
        sort_check(parse_assertion(text))
    except (ParseError, SortError):
        pass


class TestLexer:
    """The lexer against the character-at-a-time lexer it replaced
    (`oracle_lang`): for any text, both give the same tokens, with the same
    line and column, or both raise the same `ParseError`."""

    @staticmethod
    def lexed(lexer, text: str):
        try:
            return [(tok.kind, tok.text, tok.line, tok.col) for tok in lexer(text)]
        except ParseError as exc:
            return ("error", str(exc), exc.line, exc.col)

    # Texts and the full message parsing them gives (None: they parse).
    FIXED = [
        ("(* a\n (* b *)\n True", "1:1: unterminated comment"),
        ("(*)", "1:1: unterminated comment"),
        ("True\n  & False", "2:3: unexpected character '&'"),
        ("(* x *)\n\n  )", "3:3: expected an assertion, found ')'"),
        ("True *) False", "1:6: unexpected character '*'"),
        ("\u00b2x", "1:1: unexpected character '\u00b2'"),
        ("(* only *)", "1:11: expected an assertion, found end of input"),
        ("EX \u00e9 : term . True", None),
        ("True\r\n-> False", None),
        ("EX x :\tterm . \u3000True", None),
    ]

    @pytest.mark.parametrize("text, error", FIXED)
    def test_fixed_cases_match_oracle(self, text, error):
        assert self.lexed(_lex, text) == self.lexed(oracle_lang._lex, text)
        try:
            parse_assertion(text)
        except ParseError as exc:
            assert str(exc) == error
        else:
            assert error is None

    # Short runs of the characters the lexer treats specially, digits and
    # letters that may or may not start a word, and odd blanks.
    SOUP = st.text(
        st.sampled_from(list("(*)->/\\:.,_1\u00b2\u00e9\n\r\t\u3000\x1c")), max_size=30
    )

    @given(st.one_of(st.text(), mutated_lifter_texts(), SOUP))
    @settings(max_examples=600, deadline=None)
    def test_texts_match_oracle(self, text):
        assert self.lexed(_lex, text) == self.lexed(oracle_lang._lex, text)

    def test_time_is_linear_in_the_text(self):
        # Counting each token's line from offset 0 would make the 8x longer
        # text cost about 64x; linear code costs about 8x.
        def best(links: int) -> float:
            text = "True /\\\n " * links
            return min(timeit.repeat(lambda: _lex(text), number=1, repeat=3))

        assert best(32000) <= 20 * best(4000)
