"""Case reading against the reader it replaced (`oracle_ingest`): for any
text, `parse_case_file` gives an equal CorpusCase, or a CaseError with the
same message, and `parse_term_sexp` the same term or the same message.

The inputs are rendered random cases with their layout varied (line
breaks, comments and extra blanks inside term forms, "(app("), cases
holding term forms that break the term grammar, and the mutated texts of
`test_sexp.py`.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_ingest
from lifter import sexp
from lifter.ingest import CaseError, parse_case_file, parse_term_sexp, render_term_sexp

from helpers import case_texts, mutated_case_texts, terms_strategy

# What a blank between two tokens may become: another blank, a line
# break, a comment, or nothing at all (which may glue two atoms together).
BLANKS = [" ", "\n", "  ", "\t", " ; note (app\n", ";\n", "\r\n ", ""]


@st.composite
def relaid(draw, texts) -> str:
    """A text from `texts` with some of its blanks replaced, and with blanks
    put after some of its '(' and before some of its ')'."""
    parts = re.split(r"( +|\n)", draw(texts))
    for i in range(1, len(parts), 2):
        if draw(st.integers(0, 3)) == 0:
            parts[i] = draw(st.sampled_from(BLANKS))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.replace("(", draw(st.sampled_from(["( ", "(\n", "(;c\n"])))
    if draw(st.booleans()):
        text = text.replace(")", draw(st.sampled_from([" )", "\n)", ";c\n)"])))
    return text


NAMES = ['"x"', '"y"', '"f"', '"x"', '""', '"a\\"b"', '"\\\\"', "x", "(free \"x\")"]
INDICES = ["0", "1", "0", "1", "2", "00", "x", "-1", "²", "٣", '"0"', "(bound 0)"]


@st.composite
def term_forms(draw, depth: int = 0) -> str:
    """The text of a term form that may break the grammar: an unknown or
    missing keyword, too few or too many items, an empty or escaped name,
    an index that is no natural number or escapes its binders.  Half of
    the forms below the top are well-formed closed terms."""
    if depth and draw(st.booleans()):
        return render_term_sexp(draw(terms_strategy(depth=2)))
    keyword = draw(st.sampled_from(
        ["const", "free", "schematic", "bound", "app", "app", "app", "abs", "abs", "abs", "sym", ""]
    ))
    leaf = depth >= 3 or keyword in ("const", "free", "schematic", "bound", "sym", "")
    if keyword == "bound":
        items = [draw(st.sampled_from(INDICES))]
    elif leaf:
        items = [draw(st.sampled_from(NAMES))]
    elif keyword == "abs":
        items = [draw(st.sampled_from(NAMES)), draw(term_forms(depth + 1))]
    else:
        items = [draw(term_forms(depth + 1)), draw(term_forms(depth + 1))]
    if draw(st.integers(0, 5)) == 0:  # one item too few or too many
        if items and draw(st.booleans()):
            items.pop()
        else:
            items.append(draw(term_forms(depth + 1)) if depth < 3 else '"z"')
    return "(" + " ".join([keyword, *items] if keyword else items) + ")"


@st.composite
def cases_with_term_forms(draw) -> str:
    """A case whose subgoals and argument terms come from `term_forms`."""
    terms = st.lists(term_forms(), max_size=2)
    goal = st.lists(term_forms(), min_size=1, max_size=2)
    subgoals = "".join(f" (subgoal {t})" for t in draw(goal))
    on = "".join(" " + t for t in draw(terms))
    arbitrary = "".join(" " + t for t in draw(terms))
    return (
        f'(case "t"\n  (goal{subgoals})\n'
        '  (context (defn "f" (recursive true)) (rule "f.induct" (derived-from "f")))\n'
        f'  (args "a" (on{on}) (arbitrary{arbitrary}) (rule "f.induct")))\n'
    )


def outcome(reader, text: str):
    try:
        return reader(text)
    except CaseError as exc:
        return ("error", str(exc))


@given(st.one_of(relaid(case_texts()), relaid(cases_with_term_forms()), mutated_case_texts()))
@settings(max_examples=500, deadline=None)
def test_case_reading_matches_oracle(text):
    assert outcome(parse_case_file, text) == outcome(oracle_ingest.parse_case_file, text)


@given(relaid(term_forms()))
@settings(max_examples=300, deadline=None)
def test_term_reading_matches_oracle(text):
    assert outcome(parse_term_sexp, text) == outcome(oracle_ingest.parse_term_sexp, text)


@pytest.mark.parametrize("text", [
    '(app(const "f")(free "x"))',
    '(app (const "f") ; the head\n (free "x"))',
    '(abs\n"y"\n(app (const "f") (bound 0)))',
    '( const "a\\"b" )',
    '(abs "y" (bound 1))',
    '(abs "y" (bound ; the binder\n 0))',
    '(abs "y" (bound ; one too many\n 1))',
    '(abs\n"y" (abs "z" (bound 1)))',
    '(abs "y" (app (abs "z" (bound 1)) (bound 1)))',
    '(abs "y" (app (abs "z" (bound;c\n1)) (bound;c\n1)))',
    '(abs "y" (abs "" (bound 0)))',
    '(abs "y" (goal (bound 0)))',
    '(app (const "f") (bound ²))',
    '(bound ' + "9" * 5000 + ")",
    '(abs (bound 0) (free "x"))',
    '(const (free "x"))',
    '(const "x" "y")',
    '(const "x" (free "y"))',
    '(bound 0 (free "y"))',
    '(app (const "f") (free "x") (free "y"))',
    '(abs "y" (free "x") (free "z"))',
    '(abs "y" (bound 0 1))',
    '(abs y (free "x"))',
    "(app)",
    "()",
], ids=lambda text: text[:40])
def test_fixed_terms_match_oracle(text):
    case = (
        f'(case "t" (goal (subgoal {text})) (context)\n'
        f'  (args "a" (on {text}) (arbitrary) (rule)))'
    )
    assert outcome(parse_term_sexp, text) == outcome(oracle_ingest.parse_term_sexp, text)
    assert outcome(parse_case_file, case) == outcome(oracle_ingest.parse_case_file, case)


GOOD = (
    '(case "t" (goal (subgoal (free "x")))'
    ' (context (defn "f" (recursive true) (clauses (clause var)))'
    ' (rule "r" (derived-from "f")))'
    ' (args "a" (on (free "x")) (arbitrary) (rule "r")))'
)


@pytest.mark.parametrize("old, new", [
    ('(case "t"', '(case (const "t")'),
    ('(goal (subgoal (free "x")))', '(goal (free "x"))'),
    ('(goal (subgoal (free "x")))', '(goal (subgoal (free "x") (free "y")))'),
    ('(context (defn', '(context (const "f") (defn'),
    ('(context (defn', '(context (app (const "f") (free "x")) (defn'),
    ('(context (defn', '(context (abs "" (free "x")) (defn'),
    ('(defn "f"', '(defn (free "f")'),
    ('(recursive true)', '(recursive (bound 0))'),
    ("(clause var)", '(clause (free "v"))'),
    ('(derived-from "f")', '(derived-from (const "f"))'),
    ('(rule "r")))', '(rule (const "r"))))'),
    ('(on (free "x"))', '(on (free "x") (bound 0) (app))'),
    ('(arbitrary)', '(arbitrary (abs "y" (bound 0)) (abs "y" (bound 1)))'),
    (GOOD, '(const "t")'),
    (GOOD, '(bound 0)'),
], ids=lambda text: text[:30])
def test_term_forms_in_other_places_match_oracle(old, new):
    text = GOOD.replace(old, new)
    assert text != GOOD
    assert outcome(parse_case_file, text) == outcome(oracle_ingest.parse_case_file, text)


def test_failed_forms_are_read_again_once(monkeypatch):
    # Each (app ...) here fails, inside a list inside the (app ...) around
    # it.  Only the outermost is diagnosed, so only it is read again: reading
    # each would cost time quadratic in the nesting.
    reads = []
    read = sexp._read

    def counted(text, table, pos, endpos):
        reads.append(table is None)
        return read(text, table, pos, endpos)

    monkeypatch.setattr(sexp, "_read", counted)
    term = '(x (app ' * 200 + '(free "y")' + ")" * 400
    text = (
        f'(case "t" (goal (subgoal (app {term} (free "z"))))'
        ' (context) (args "a" (on) (arbitrary) (rule)))'
    )
    assert outcome(parse_case_file, text) == outcome(oracle_ingest.parse_case_file, text)
    assert reads.count(True) == 1
