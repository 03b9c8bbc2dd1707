"""The s-expression reader against the character-at-a-time reader it
replaced (`oracle_sexp`): for any text, both give the same tree, with the
same line and column on every node, or both raise the same `SexpError`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_sexp
from lifter.ingest import CaseError, parse_case_file
from lifter.sexp import SexpError, parse_sexp

from helpers import case_texts, mutated_case_texts


def shape(node) -> tuple:
    """A node as nested tuples: its kind, position, and text or items."""
    if hasattr(node, "items"):
        return ("list", node.line, node.col, tuple(shape(item) for item in node.items))
    return (type(node).__name__, node.line, node.col, node.text)


def outcome(reader, text: str) -> tuple:
    try:
        return shape(reader(text))
    except SexpError as exc:
        return ("error", str(exc), exc.line, exc.col)


FIXED = [
    ("", "1:1: unexpected end of input"),
    ("; only a comment", "1:17: unexpected end of input"),
    ("; only a comment\n", "2:1: unexpected end of input"),
    ("(a b) ; a comment at the end", None),
    ("(a\n b)\n", None),
    (")", "1:1: unexpected ')'"),
    ("(a) b", "1:5: trailing content after form"),
    ("(a)\n  )", "2:3: trailing content after form"),
    ("(a\n  (b (c d)\n   (e", "3:4: unbalanced parenthesis"),
    ('(a "bc', "1:4: unterminated string"),
    ('(a\n "bc\\', "2:2: unterminated string"),
    ('"a\\qb"', "1:3: unknown escape '\\q'"),
    ('(a "b\\"c\\\\d")', None),
]


@pytest.mark.parametrize("text, error", FIXED)
def test_fixed_cases_match_oracle(text, error):
    result = outcome(parse_sexp, text)
    assert result == outcome(oracle_sexp.parse_sexp, text)
    assert (result[1] if result[0] == "error" else None) == error


def test_escaped_newline_names_the_backslash():
    # The reader before this one gave "2:-1": it counted the column after
    # moving past the newline.
    with pytest.raises(SexpError) as info:
        parse_sexp('(a "x\\\ny")')
    assert (info.value.line, info.value.col) == (1, 6)
    assert str(info.value) == "1:6: unknown escape '\\\n'"


@given(case_texts())
@settings(max_examples=150, deadline=None)
def test_rendered_cases_match_oracle(text):
    assert outcome(parse_sexp, text) == outcome(oracle_sexp.parse_sexp, text)


# Short runs of the characters the reader treats specially.
DELIMITER_SOUP = st.text(
    st.sampled_from(["(", ")", '"', "\\", ";", "\n", "\r", " ", "a", "\x1c", "\u3000"]),
    max_size=30,
)


@given(st.one_of(mutated_case_texts(), DELIMITER_SOUP))
@settings(max_examples=600, deadline=None)
def test_mutated_cases_match_oracle(text):
    assert outcome(parse_sexp, text) == outcome(oracle_sexp.parse_sexp, text)


def test_deep_nesting_reads_without_recursion():
    depth = 5000
    node = parse_sexp("(" * depth + "a" + ")" * depth)
    for _ in range(depth):
        (node,) = node.items
    assert (node.text, node.line, node.col) == ("a", 1, depth + 1)


@given(st.one_of(st.text(), mutated_case_texts()))
@settings(max_examples=400, deadline=None)
def test_case_parsing_raises_only_case_error(text):
    try:
        parse_case_file(text)
    except CaseError:
        pass
