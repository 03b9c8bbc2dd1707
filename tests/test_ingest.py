"""Case-file reading, validation, and the render/parse round trip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from lifter.ingest import (
    CaseError,
    bundled_corpus_dir,
    load_case_file,
    load_corpus_dir,
    parse_case_file,
    parse_term_sexp,
    render_term_sexp,
)
from lifter.interp import classify_clause_params, evaluate
from lifter.lang import Pattern
from lifter.terms import App, Bound, Const, Free, Lambda, ParamPattern, Schematic

from helpers import deep_case_text, render_case_file, terms_strategy

MINI_CASE = """
(case "mini"
  (goal (subgoal (app (const "f") (free "x"))))
  (context
    (defn "f" (recursive true) (clauses (clause constructor)))
    (rule "f.induct" (derived-from "f")))
  (args "a" (on (free "x")) (arbitrary) (rule "f.induct")))
"""


class TestTermSexp:
    def test_atoms(self):
        assert parse_term_sexp('(const "c")') == Const("c")
        assert parse_term_sexp('(free "x")') == Free("x")
        assert parse_term_sexp('(schematic "P")') == Schematic("P")
        assert parse_term_sexp("(bound 2)") == Bound(2)

    def test_compound(self):
        text = '(abs "x" (app (const "f") (bound 0)))'
        assert parse_term_sexp(text) == Lambda("x", App(Const("f"), Bound(0)))

    def test_unbalanced_parenthesis_reports_position(self):
        with pytest.raises(CaseError, match=r"1:1"):
            parse_term_sexp('(app (const "f")')

    def test_unknown_keyword(self):
        with pytest.raises(CaseError, match="unknown term keyword"):
            parse_term_sexp('(sym "f")')

    def test_bound_requires_natural(self):
        with pytest.raises(CaseError):
            parse_term_sexp("(bound -1)")
        with pytest.raises(CaseError):
            parse_term_sexp('(bound "x")')

    def test_empty_name_rejected(self):
        with pytest.raises(CaseError):
            parse_term_sexp('(const "")')

    def test_trailing_content_rejected(self):
        with pytest.raises(CaseError, match="trailing"):
            parse_term_sexp('(free "x") (free "y")')

    @pytest.mark.parametrize("text, message", [
        ('(app (sym "f")\n (const ""))', "1:6: unknown term keyword 'sym'"),
        ('(app (const "f")\n (abs "" (bound 7 8)))', "2:10: (bound ...) takes one natural number"),
        ('(app (abs "" (free "x"))\n (bound 1 2))', "1:6: names must be non-empty strings"),
        ('(app (const "f") (app (free "") (bound x)))', "1:23: names must be non-empty strings"),
    ])
    def test_first_fault_in_reading_order_is_reported(self, text, message):
        # A form is checked before its children and built after them.
        with pytest.raises(CaseError) as info:
            parse_term_sexp(text)
        assert str(info.value) == message

    def test_string_escapes(self):
        assert parse_term_sexp('(const "a\\"b")') == Const('a"b')
        assert parse_term_sexp('(const "a\\\\b")') == Const("a\\b")

    @given(terms_strategy())
    @settings(max_examples=200)
    def test_render_parse_round_trip(self, term):
        assert parse_term_sexp(render_term_sexp(term)) == term


class TestCaseParsing:
    def test_mini_case(self):
        case = parse_case_file(MINI_CASE)
        assert case.case_id == "mini"
        assert case.goal.subgoals == (App(Const("f"), Free("x")),)
        assert case.context.definitions["f"].is_recursive
        assert case.context.rules["f.induct"].derived_from == "f"
        assert case.arg_sets["a"].induction_terms == (Free("x"),)
        assert case.arg_sets["a"].rules == ("f.induct",)

    def test_shipped_itrev_structure(self, itrev_case):
        assert itrev_case.case_id == "itrev"
        assert set(itrev_case.arg_sets) == {"model", "alt", "on_itrev"}
        itrev = itrev_case.context.definitions["itrev"]
        assert itrev.is_recursive
        assert [list(c.params) for c in itrev.clauses] == [
            [ParamPattern.CONSTRUCTOR, ParamPattern.VAR],
            [ParamPattern.CONSTRUCTOR, ParamPattern.VAR],
        ]
        rev = itrev_case.context.definitions["rev"]
        assert [list(c.params) for c in rev.clauses] == [
            [ParamPattern.CONSTRUCTOR],
            [ParamPattern.CONSTRUCTOR],
        ]
        model = itrev_case.arg_sets["model"]
        assert model.induction_terms == (Free("xs"),)
        assert model.arbitrary_terms == (Free("ys"),)
        assert model.rules == ()
        alt = itrev_case.arg_sets["alt"]
        assert alt.induction_terms == (Free("xs"), Free("ys"))
        assert alt.rules == ("itrev.induct",)

    def test_shipped_exec_clause_patterns(self, exec_case):
        exec_defn = exec_case.context.definitions["exec"]
        assert classify_clause_params(exec_defn, 0) is Pattern.ALL_CONSTRUCTOR
        assert classify_clause_params(exec_defn, 1) is Pattern.ALL_ONLY_VAR
        exec1 = exec_case.context.definitions["exec1"]
        assert [c.params[2] for c in exec1.clauses] == [
            ParamPattern.VAR,
            ParamPattern.VAR,
            ParamPattern.CONSTRUCTOR,
        ]
        assert classify_clause_params(exec1, 2) is Pattern.MIXED

    def test_shipped_small_steps_arg_sets(self, small_steps_case):
        model = small_steps_case.arg_sets["model"]
        assert len(model.induction_terms) == 3
        assert model.arbitrary_terms == (Free("c"), Free("s"), Free("c'"), Free("s'"))
        drop = small_steps_case.arg_sets["drop_sprime"]
        assert drop.induction_terms == model.induction_terms
        assert drop.arbitrary_terms == model.arbitrary_terms[:3]

    def test_unknown_rule_in_args(self):
        with pytest.raises(CaseError, match="nosuch.induct"):
            parse_case_file(MINI_CASE.replace('(rule "f.induct"))', '(rule "nosuch.induct"))'))

    def test_dangling_derived_from(self):
        broken = MINI_CASE.replace('(derived-from "f")', '(derived-from "g")')
        with pytest.raises(CaseError, match="'g'"):
            parse_case_file(broken)

    @pytest.mark.parametrize("old, new", [
        ('(derived-from "f")', '(derived-from "")'),
        ('(rule "f.induct" (derived-from', '(rule "" (derived-from'),
    ])
    def test_empty_rule_names_rejected(self, old, new):
        with pytest.raises(CaseError, match=r"^6:5: names must be non-empty strings$"):
            parse_case_file(MINI_CASE.replace(old, new))

    def test_duplicate_args_id(self):
        broken = MINI_CASE.rstrip()[:-1] + '\n  (args "a" (on) (arbitrary) (rule)))'
        with pytest.raises(CaseError, match="duplicate argument set"):
            parse_case_file(broken)

    def test_clause_arity_mismatch(self):
        broken = MINI_CASE.replace(
            "(clauses (clause constructor))",
            "(clauses (clause constructor) (clause constructor var))",
        )
        with pytest.raises(CaseError, match="arity"):
            parse_case_file(broken)

    def test_escaping_bound_index_in_goal(self):
        broken = MINI_CASE.replace('(app (const "f") (free "x"))', "(bound 0)")
        with pytest.raises(CaseError, match="bound index"):
            parse_case_file(broken)

    def test_goal_needs_subgoal(self):
        broken = MINI_CASE.replace('(goal (subgoal (app (const "f") (free "x"))))', "(goal)")
        with pytest.raises(CaseError, match="subgoal"):
            parse_case_file(broken)

    def test_comments_are_ignored(self):
        case = parse_case_file("; leading note\n" + MINI_CASE)
        assert case.case_id == "mini"

    def test_errors_carry_positions(self):
        with pytest.raises(CaseError, match=r"\d+:\d+"):
            parse_case_file('(case "x")')


class TestRoundTrip:
    def test_shipped_cases_round_trip(self, itrev_case, exec_case, small_steps_case):
        for case in (itrev_case, exec_case, small_steps_case):
            assert parse_case_file(render_case_file(case)) == case

    def test_mini_case_round_trips(self):
        case = parse_case_file(MINI_CASE)
        assert parse_case_file(render_case_file(case)) == case


class TestCorpusDir:
    def test_bundled_corpus_loads_sorted(self):
        cases = load_corpus_dir(bundled_corpus_dir())
        assert [c.case_id for c in cases] == ["exec", "itrev", "small_steps"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CaseError, match="not a corpus directory"):
            load_corpus_dir(tmp_path / "absent")

    def test_duplicate_case_ids_rejected(self, tmp_path):
        (tmp_path / "one.case").write_text(MINI_CASE)
        (tmp_path / "two.case").write_text(MINI_CASE)
        with pytest.raises(CaseError, match="duplicate case id"):
            load_corpus_dir(tmp_path)

    def test_load_case_file_names_file_on_error(self, tmp_path):
        bad = tmp_path / "bad.case"
        bad.write_text("(case")
        with pytest.raises(CaseError, match="bad.case"):
            load_case_file(bad)


class TestDeepTerms:
    def test_deep_subgoal_gets_verdicts(self, stdlib_set):
        # Reading, checking and evaluating a subgoal nested 3,000 applications
        # deep used to raise RecursionError; its verdicts are the shallow ones.
        def verdicts(depth):
            case = parse_case_file(deep_case_text(depth))
            args = case.arg_sets["x"]
            return [evaluate(a, case.goal, case.context, args) for _, a in stdlib_set.entries]

        assert verdicts(3000) == verdicts(3)
