"""Interpreter semantics: domains, atomics, vacuity, duality, sugar.

Expected values for the corpus goals were worked out on the flattened
trees by hand before the interpreter existed; the paths named in comments
refer to those trees.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifter import bundled_corpus_dir, load_case_file
from lifter.ingest import parse_case_file
from lifter.interp import (
    Evaluator,
    classify_clause_params,
    evaluate,
    find_witnesses,
)
from lifter.lang import (
    AllRules,
    AllTerms,
    And,
    AtomicName,
    BoolLit,
    Imp,
    Modifier,
    Not,
    OccsOf,
    Or,
    Pattern,
    Quant,
    QuantKind,
    Sort,
    TermsIn,
    domain_sort,
    parse_assertion,
    sort_check,
)
from lifter.terms import (
    App,
    Bound,
    Const,
    Context,
    Definition,
    Free,
    Goal,
    InductArgs,
    Lambda,
    Occurrence,
    Schematic,
    TermTable,
    enumerate_subterms,
)

import oracle_interp as oracle
from helpers import (
    desugar_occurrence_quants,
    map_chain_case_text,
    random_closed_quant,
    spine_case_text,
    term_at,
)

NO_ARGS = InductArgs()
EMPTY_CONTEXT = Context({}, {})


def heuristic(name, stdlib_set):
    return stdlib_set.get(name)


def ev(case, args_id):
    args = case.arg_sets[args_id]
    return Evaluator(case.goal, case.context, args), args


class TestDomains:
    def test_itrev_number_domain_tops_at_ten(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        # 10 distinct subterms beats the widest application (= at 2 args).
        assert len(e.terms) == 10
        assert e.max_number == 10
        assert list(e.numbers) == list(range(11))

    def test_widest_application_can_win(self):
        arg = Free("a")
        goal = Goal((App(App(App(App(Const("f"), arg), arg), arg), arg),))
        e = Evaluator(goal, EMPTY_CONTEXT, NO_ARGS)
        # Only 3 distinct subterms, but f is applied to 4 arguments.
        assert len(e.terms) == 3
        assert e.max_number == 4
        lone = Evaluator(Goal((Free("x"),)), EMPTY_CONTEXT, NO_ARGS)
        assert lone.max_number == 1

    def test_occurrence_domain_is_first_subgoal_only(self):
        goal = Goal((Free("a"), App(Const("f"), Free("b"))))
        e = Evaluator(goal, EMPTY_CONTEXT, NO_ARGS)
        assert [e.index.occurrence(i) for i in e.occurrences] == [Occurrence(0, ())]
        # Terms still span every subgoal.
        assert Free("b") in [e.index.term_of[t] for t in e.terms]

    def test_term_domains_hand_out_table_ids(self, itrev_case):
        e, args = ev(itrev_case, "model")
        term_of = e.index.term_of
        assert [term_of[t] for t in e.domain_values(AllTerms(), [])] == enumerate_subterms(
            itrev_case.goal
        )
        for modifier, terms in (
            (Modifier.INDUCTION, args.induction_terms),
            (Modifier.ARBITRARY, args.arbitrary_terms),
        ):
            ids = e.domain_values(TermsIn(modifier), [])
            assert all(isinstance(t, int) for t in ids)
            assert [term_of[t] for t in ids] == list(terms)

    def test_rule_domain_comes_from_args(self, itrev_case):
        e, args = ev(itrev_case, "alt")
        assert list(e.domain_values(AllRules(), {})) == ["itrev.induct"]
        e2, _ = ev(itrev_case, "model")
        assert list(e2.domain_values(AllRules(), {})) == []

    def test_term_occurrence_domain_matches_the_oracle(self, itrev_case):
        # A direct caller binds t of term_occurrence IN t by name.
        e, args = ev(itrev_case, "model")
        old = oracle.Evaluator(itrev_case.goal, itrev_case.context, args)
        for t in e.terms:
            term = e.index.term_of[t]
            got = [e.index.occurrence(i) for i in e.domain_values(OccsOf("t"), {"t": t})]
            assert got == old.domain_values(OccsOf("t"), {"t": term})
        assert sum(len(e.domain_values(OccsOf("t"), {"t": t})) for t in e.terms) == len(
            e.occurrences
        )

    def test_direct_callers_cannot_change_the_index(self, stdlib_set):
        # A fresh case: the index is shared by every evaluator of its goal.
        case = load_case_file(bundled_corpus_dir() / "itrev.case")
        e, args = ev(case, "model")
        heuristics = stdlib_set.selected(include_h7=True)

        def verdicts():
            return [evaluate(h, case.goal, case.context, args) for _, h in heuristics]

        before = verdicts()
        domains = [(AllTerms(), {}), (AllRules(), {})]
        domains += [(TermsIn(modifier), {}) for modifier in Modifier]
        domains += [(OccsOf("t"), {"t": t}) for t in e.terms]
        for domain, env in domains:
            try:
                e.domain_values(domain, env).clear()
            except AttributeError:  # a tuple or range has no clear()
                pass
            assert verdicts() == before, domain

    def test_unknown_domain_or_atomic_is_a_type_error(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        with pytest.raises(TypeError, match="not a domain"):
            e.domain_values("term", {})
        with pytest.raises(TypeError, match="not an atomic"):
            e.atomic("is_constant", (e.occurrences[0],))


class TestVacuity:
    @pytest.mark.parametrize(
        "text",
        [
            "ALL t : term IN induction_term . False",
            "ALL t : term IN arbitrary_term . False",
            "ALL r : rule . False",
        ],
    )
    def test_forall_over_empty_domain_holds(self, itrev_case, text):
        assert evaluate(sort_check(parse_assertion(text)), itrev_case.goal,
                        itrev_case.context, NO_ARGS)

    @pytest.mark.parametrize(
        "text",
        [
            "EX t : term IN induction_term . True",
            "EX t : term IN arbitrary_term . True",
            "EX r : rule . True",
        ],
    )
    def test_exists_over_empty_domain_fails(self, itrev_case, text):
        assert not evaluate(sort_check(parse_assertion(text)), itrev_case.goal,
                            itrev_case.context, NO_ARGS)

    def test_implication_from_false_holds(self, itrev_case):
        a = sort_check(parse_assertion("False -> False"))
        assert evaluate(a, itrev_case.goal, itrev_case.context, NO_ARGS)


class TestNodeKindAtomics:
    @pytest.fixture()
    def kinds_eval(self):
        # f (lambda x. x) ?P (bound under the lambda covers Bound)
        goal = Goal(
            (
                App(
                    App(Const("f"), Lambda("x", Bound(0))),
                    Schematic("P"),
                ),
            )
        )
        ctx = Context(
            {"f": Definition("f", True, ()), "g": Definition("g", False, ())}, {}
        )
        return Evaluator(goal, ctx, NO_ARGS)

    def occ(self, *path):
        return Occurrence(0, tuple(path))

    def test_is_atomic(self, kinds_eval):
        assert not kinds_eval.atomic(AtomicName.IS_ATOMIC, (self.occ(),))
        assert kinds_eval.atomic(AtomicName.IS_ATOMIC, (self.occ(0),))
        assert not kinds_eval.atomic(AtomicName.IS_ATOMIC, (self.occ(1),))

    def test_constant_and_variable_kinds(self, kinds_eval):
        assert kinds_eval.atomic(AtomicName.IS_CONSTANT, (self.occ(0),))
        assert not kinds_eval.atomic(AtomicName.IS_CONSTANT, (self.occ(2),))
        assert kinds_eval.atomic(AtomicName.IS_VARIABLE, (self.occ(2),))
        assert kinds_eval.atomic(AtomicName.IS_VARIABLE, (self.occ(1, 0),))
        assert kinds_eval.atomic(AtomicName.IS_BOUND_VARIABLE, (self.occ(1, 0),))
        assert not kinds_eval.atomic(AtomicName.IS_FREE_VARIABLE, (self.occ(2),))

    def test_free_variable_is_free_only(self):
        goal = Goal((App(Const("f"), Free("x")),))
        e = Evaluator(goal, EMPTY_CONTEXT, NO_ARGS)
        assert e.atomic(AtomicName.IS_FREE_VARIABLE, (Occurrence(0, (1,)),))
        assert e.atomic(AtomicName.IS_VARIABLE, (Occurrence(0, (1,)),))

    def test_lambda_and_application(self, kinds_eval):
        assert kinds_eval.atomic(AtomicName.IS_LAMBDA, (self.occ(1),))
        assert kinds_eval.atomic(AtomicName.IS_APPLICATION, (self.occ(),))
        assert not kinds_eval.atomic(AtomicName.IS_APPLICATION, (self.occ(0),))

    def test_recursive_constant_needs_recursive_definition(self, kinds_eval):
        assert kinds_eval.atomic(AtomicName.IS_RECURSIVE_CONSTANT, (self.occ(0),))
        # Known but non-recursive, unknown, and non-constant all fail.
        goal = Goal((App(Const("g"), Const("h")),))
        ctx = Context({"g": Definition("g", False, ())}, {})
        e = Evaluator(goal, ctx, NO_ARGS)
        assert not e.atomic(AtomicName.IS_RECURSIVE_CONSTANT, (Occurrence(0, (0,)),))
        assert not e.atomic(AtomicName.IS_RECURSIVE_CONSTANT, (Occurrence(0, (1,)),))
        assert not e.atomic(AtomicName.IS_RECURSIVE_CONSTANT, (Occurrence(0, ()),))


class TestOccurrenceRelations:
    def test_is_in_term_occurrence_is_reflexive(self, small_steps_case):
        e, _ = ev(small_steps_case, "model")
        o = Occurrence(0, (1, 2))
        assert e.atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (o, o))

    def test_nested_occurrence_is_inside(self, small_steps_case):
        e, _ = ev(small_steps_case, "model")
        # c at (1,2,1) sits inside the pair (c, s) at (1,2).
        inner = Occurrence(0, (1, 2, 1))
        outer = Occurrence(0, (1, 2))
        assert e.atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (inner, outer))
        assert not e.atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (outer, inner))

    def test_sibling_paths_are_not_inside(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        assert not e.atomic(
            AtomicName.IS_IN_TERM_OCCURRENCE,
            (Occurrence(0, (1, 1)), Occurrence(0, (2, 1))),
        )

    def test_different_subgoals_never_inside(self):
        goal = Goal((Free("a"), Free("a")))
        e = Evaluator(goal, EMPTY_CONTEXT, NO_ARGS)
        assert not e.atomic(
            AtomicName.IS_IN_TERM_OCCURRENCE,
            (Occurrence(1, ()), Occurrence(0, ())),
        )
        # Positions run on from one subgoal into the next: subgoal 1's root
        # directly follows the last node of subgoal 0, (0, (1,)).
        goal = Goal((App(Const("f"), Free("a")), App(Const("g"), Free("b"))))
        e = Evaluator(goal, EMPTY_CONTEXT, NO_ARGS)
        last, root = Occurrence(0, (1,)), Occurrence(1, ())
        assert goal.index.find(root) == goal.index.find(last) + 1
        for inner, outer in ((last, root), (root, Occurrence(0, ())), (root, last)):
            assert not e.atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (inner, outer))
        # Both roots have no parent and no slot, and neither heads the other;
        # nor is an argument in one subgoal an argument of a head in another.
        roots = Occurrence(0, ()), root
        for a, h in (roots, roots[::-1], (Occurrence(1, (1,)), Occurrence(0, (0,)))):
            assert not e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (a, h))
            for n in range(3):
                assert not e.atomic(AtomicName.IS_NTH_ARGUMENT_OF, (a, n, h))
        assert e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(1, (1,)), Occurrence(1, (0,))))

    def test_argument_relation_on_itrev(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        head = Occurrence(0, (1, 0))  # itrev heading its application
        assert e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (1, 1)), head))
        assert e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (1, 2)), head))
        # The head is not its own argument; cousins are not arguments.
        assert not e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (head, head))
        assert not e.atomic(
            AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (2, 1)), head)
        )
        # Nor is a slot one past the last argument.
        assert not e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (1, 3)), head))

    def test_nth_argument_positions(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        head = Occurrence(0, (1, 0))
        assert e.atomic(AtomicName.IS_NTH_ARGUMENT_OF, (Occurrence(0, (1, 1)), 0, head))
        assert e.atomic(AtomicName.IS_NTH_ARGUMENT_OF, (Occurrence(0, (1, 2)), 1, head))
        assert not e.atomic(
            AtomicName.IS_NTH_ARGUMENT_OF, (Occurrence(0, (1, 2)), 0, head)
        )
        assert not e.atomic(
            AtomicName.IS_NTH_ARGUMENT_OF, (Occurrence(0, (1, 3)), 2, head)
        )

    def test_stale_paths_decide_from_path_alone(self, itrev_case):
        # Neither atomic looks the node up, so a path the goal lacks still
        # counts; the oracle reads them the same way.
        import oracle_interp as oracle

        new, args = ev(itrev_case, "model")
        old = oracle.Evaluator(itrev_case.goal, itrev_case.context, args)
        for e in (new, old):
            assert e.atomic(
                AtomicName.IS_IN_TERM_OCCURRENCE, (Occurrence(0, (7,)), Occurrence(0, ()))
            )
            assert e.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(0, (9, 9, 9)),))

    def test_exec_inner_call_argument_positions(self, exec_case):
        e, _ = ev(exec_case, "alt")
        inner_head = Occurrence(0, (2, 3, 0))
        for slot, term in enumerate((Free("is1"), Free("s"), Free("stk"))):
            arg = Occurrence(0, (2, 3, slot + 1))
            assert term_at(exec_case.goal, arg) == term
            assert e.atomic(AtomicName.IS_NTH_ARGUMENT_OF, (arg, slot, inner_head))

    def test_lambda_body_is_not_an_argument(self):
        goal = Goal((Lambda("x", App(Const("f"), Bound(0))),))
        e = Evaluator(goal, EMPTY_CONTEXT, NO_ARGS)
        # The body hangs off a lambda, not an application head.
        assert not e.atomic(
            AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (0,)), Occurrence(0, ()))
        )
        # Inside the body the relation holds as usual.
        assert e.atomic(
            AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (0, 1)), Occurrence(0, (0, 0)))
        )
        assert e.atomic(
            AtomicName.IS_NTH_ARGUMENT_OF,
            (Occurrence(0, (0, 1)), 0, Occurrence(0, (0, 0))),
        )
        # The body sits at slot 0, as a head does, but heads no application:
        # the body's own argument is not its argument.
        body = Occurrence(0, (0,))
        assert not e.atomic(AtomicName.IS_AN_ARGUMENT_OF, (Occurrence(0, (0, 1)), body))
        assert not e.atomic(AtomicName.IS_NTH_ARGUMENT_OF, (Occurrence(0, (0, 1)), 0, body))
        # Nor does the narrowed domain of an argument guard give it one.
        for text in (
            "EX h : term_occurrence . EX x : term_occurrence ."
            " x is_an_argument_of h /\\ is_application h",
            "EX h : term_occurrence . EX n : number . EX x : term_occurrence ."
            " is_nth_argument_of ( x , n , h ) /\\ Not ( is_constant h )",
        ):
            assert not evaluate(sort_check(parse_assertion(text)), goal, EMPTY_CONTEXT, NO_ARGS)

    def test_occurrence_of_term_lookup(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        assert e.atomic(
            AtomicName.TERM_OCCURRENCE_IS_OF_TERM, (Occurrence(0, (1, 1)), Free("xs"))
        )
        assert not e.atomic(
            AtomicName.TERM_OCCURRENCE_IS_OF_TERM, (Occurrence(0, (1, 1)), Free("ys"))
        )

    def test_are_same_term_is_structural(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        assert e.atomic(AtomicName.ARE_SAME_TERM, (Free("xs"), Free("xs")))
        assert not e.atomic(AtomicName.ARE_SAME_TERM, (Free("xs"), Const("xs")))
        # Terms absent from the goal compare by structure too.
        absent = App(Const("zz"), Free("q"))
        assert e.atomic(AtomicName.ARE_SAME_TERM, (absent, App(Const("zz"), Free("q"))))
        assert not e.atomic(AtomicName.ARE_SAME_TERM, (absent, App(Const("zz"), Free("r"))))


class TestArgsAtomics:
    def test_nth_induction_term(self, itrev_case):
        e, _ = ev(itrev_case, "alt")
        assert e.atomic(AtomicName.IS_NTH_INDUCTION_TERM, (Free("xs"), 0))
        assert e.atomic(AtomicName.IS_NTH_INDUCTION_TERM, (Free("ys"), 1))
        assert not e.atomic(AtomicName.IS_NTH_INDUCTION_TERM, (Free("ys"), 0))
        assert not e.atomic(AtomicName.IS_NTH_INDUCTION_TERM, (Free("xs"), 5))

    def test_negative_n_is_out_of_range(self, itrev_case):
        # A direct call may pass any int; only 0 up to the field's length
        # names a term.
        e, _ = ev(itrev_case, "model")
        assert e.atomic(AtomicName.IS_NTH_INDUCTION_TERM, (Free("xs"), 0))
        assert not e.atomic(AtomicName.IS_NTH_INDUCTION_TERM, (Free("xs"), -1))
        assert e.atomic(AtomicName.IS_NTH_ARBITRARY_TERM, (Free("ys"), 0))
        assert not e.atomic(AtomicName.IS_NTH_ARBITRARY_TERM, (Free("ys"), -1))

    def test_nth_arbitrary_term(self, exec_case):
        e, _ = ev(exec_case, "model")
        assert e.atomic(AtomicName.IS_NTH_ARBITRARY_TERM, (Free("stk"), 0))
        assert not e.atomic(AtomicName.IS_NTH_ARBITRARY_TERM, (Free("stk"), 1))

    def test_is_rule_of(self, itrev_case):
        e, _ = ev(itrev_case, "alt")
        itrev_head = Occurrence(0, (1, 0))
        rev_head = Occurrence(0, (2, 1, 0))
        assert e.atomic(AtomicName.IS_RULE_OF, ("itrev.induct", itrev_head))
        assert not e.atomic(AtomicName.IS_RULE_OF, ("itrev.induct", rev_head))
        assert not e.atomic(AtomicName.IS_RULE_OF, ("itrev.induct", Occurrence(0, (1,))))
        assert not e.atomic(AtomicName.IS_RULE_OF, ("unknown.induct", itrev_head))


class TestPatternIs:
    def test_itrev_first_parameter_all_constructor(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        head = Occurrence(0, (1, 0))
        assert e.atomic(AtomicName.PATTERN_IS, (0, head, Pattern.ALL_CONSTRUCTOR))
        assert e.atomic(AtomicName.PATTERN_IS, (1, head, Pattern.ALL_ONLY_VAR))
        assert not e.atomic(AtomicName.PATTERN_IS, (0, head, Pattern.MIXED))
        # Out of range and non-constant both fail.
        assert not e.atomic(AtomicName.PATTERN_IS, (2, head, Pattern.ALL_CONSTRUCTOR))
        assert not e.atomic(
            AtomicName.PATTERN_IS, (0, Occurrence(0, (1, 1)), Pattern.ALL_ONLY_VAR)
        )

    def test_exec1_third_parameter_mixed(self, exec_case):
        # exec1 never shows up in the goal, so probe it on a tiny synthetic one.
        goal = Goal((Const("exec1"),))
        e = Evaluator(goal, exec_case.context, NO_ARGS)
        root = Occurrence(0, ())
        assert e.atomic(AtomicName.PATTERN_IS, (2, root, Pattern.MIXED))
        assert e.atomic(AtomicName.PATTERN_IS, (0, root, Pattern.ALL_CONSTRUCTOR))
        assert e.atomic(AtomicName.PATTERN_IS, (1, root, Pattern.ALL_ONLY_VAR))

    def test_clauseless_definition_never_matches(self, small_steps_case):
        e, _ = ev(small_steps_case, "model")
        head = Occurrence(0, (1, 0))
        for pattern in Pattern:
            assert not e.atomic(AtomicName.PATTERN_IS, (0, head, pattern))

    def test_classify_clause_params_bounds(self, exec_case):
        exec1 = exec_case.context.definitions["exec1"]
        assert classify_clause_params(exec1, 3) is None
        assert classify_clause_params(exec1, -1) is None
        assert classify_clause_params(Definition("k", False, ()), 0) is None


class TestDeepest:
    def test_xs_under_rev_is_at_deepest(self, itrev_case):
        e, _ = ev(itrev_case, "model")
        assert e.max_depth == 3
        assert e.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(0, (2, 1, 1)),))
        assert not e.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(0, ()),))
        assert not e.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(0, (1, 1)),))
        # The deepest depth is the scope's, but a node of a later subgoal at
        # that depth is at deepest too.
        goal = Goal((*itrev_case.goal.subgoals, itrev_case.goal.subgoals[0]))
        later = Evaluator(goal, itrev_case.context, itrev_case.arg_sets["model"])
        assert later.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(1, (2, 1, 1)),))
        assert not later.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(1, (1, 1)),))

    def test_exec_inner_arguments_at_deepest(self, exec_case):
        e, _ = ev(exec_case, "model")
        assert e.max_depth == 3
        for path in ((1, 1, 1), (2, 3, 1), (2, 3, 2), (2, 3, 3)):
            assert e.atomic(AtomicName.IS_AT_DEEPEST, (Occurrence(0, path),))

    def test_agrees_with_height_oracle_across_corpus(self, corpus_pairs):
        from test_terms import tree_height
        from lifter.terms import enumerate_occurrences
        from oracle_interp import flatten

        for case, _, args in corpus_pairs:
            e = Evaluator(case.goal, case.context, args)
            height = tree_height(flatten(case.goal.subgoals[0]))
            for occ, _ in enumerate_occurrences(case.goal, 0):
                expected = len(occ.path) == height
                assert e.atomic(AtomicName.IS_AT_DEEPEST, (occ,)) is expected


class TestHeuristicOutcomes:
    def test_h1_accepts_model_rejects_constant(self, itrev_case, stdlib_set):
        h1 = heuristic("h1_no_constant", stdlib_set)
        goal, ctx = itrev_case.goal, itrev_case.context
        assert evaluate(h1, goal, ctx, itrev_case.arg_sets["model"])
        assert not evaluate(h1, goal, ctx, itrev_case.arg_sets["on_itrev"])

    def test_h5_vacuous_without_rules(self, itrev_case, exec_case, stdlib_set):
        h5 = heuristic("h5_rule_argument_order", stdlib_set)
        assert evaluate(h5, itrev_case.goal, itrev_case.context,
                        itrev_case.arg_sets["model"])
        assert evaluate(h5, exec_case.goal, exec_case.context,
                        exec_case.arg_sets["model"])

    def test_h4_vacuous_with_rules(self, itrev_case, stdlib_set):
        h4 = heuristic("h4_constructor_position", stdlib_set)
        assert evaluate(h4, itrev_case.goal, itrev_case.context,
                        itrev_case.arg_sets["alt"])

    def test_h2_rejects_shallow_induction_variable(self, itrev_case, stdlib_set):
        h2 = heuristic("h2_deepest", stdlib_set)
        # ys only occurs at depth 2 while the goal reaches depth 3.
        assert not evaluate(h2, itrev_case.goal, itrev_case.context,
                            itrev_case.arg_sets["alt"])

    def test_h6b_sees_no_occurrence_outside_subgoal_zero(self, stdlib_set):
        # Only subgoal 0 holds occurrences, so a term that occurs only in a
        # later subgoal has none, and h6b's leading EX finds no witness.
        h6b = heuristic("h6b_generalize_inner_frees", stdlib_set)
        first, later = App(Const("f"), Free("x")), App(Const("g"), Free("y"))
        args = InductArgs((later,), (Free("y"),), ())
        assert evaluate(h6b, Goal((later,)), EMPTY_CONTEXT, args)
        assert not evaluate(h6b, Goal((first, later)), EMPTY_CONTEXT, args)

    def test_h7_implies_h5_across_corpus(self, corpus_pairs, stdlib_set):
        h5 = heuristic("h5_rule_argument_order", stdlib_set)
        h7 = heuristic("h7_rule_args_generalized", stdlib_set)
        for case, _, args in corpus_pairs:
            if evaluate(h7, case.goal, case.context, args):
                assert evaluate(h5, case.goal, case.context, args)

    def test_h7_detects_missing_generalization(self, small_steps_case, stdlib_set):
        h7 = heuristic("h7_rule_args_generalized", stdlib_set)
        goal, ctx = small_steps_case.goal, small_steps_case.context
        assert evaluate(h7, goal, ctx, small_steps_case.arg_sets["model"])
        assert not evaluate(h7, goal, ctx, small_steps_case.arg_sets["drop_sprime"])

    def test_h1_sugar_form_agrees_with_long_form(self, corpus_pairs, stdlib_set):
        long_form = heuristic("h1_no_constant", stdlib_set)
        sugar = heuristic("h1_no_constant_sugar", stdlib_set)
        for case, _, args in corpus_pairs:
            assert evaluate(long_form, case.goal, case.context, args) == evaluate(
                sugar, case.goal, case.context, args
            )


class TestSugarAndDuality:
    def test_occurrence_sugar_desugars_equivalently(self, corpus_pairs, stdlib_set):
        for name, assertion in stdlib_set.entries:
            plain = desugar_occurrence_quants(assertion)
            for case, _, args in corpus_pairs:
                assert evaluate(assertion, case.goal, case.context, args) == evaluate(
                    plain, case.goal, case.context, args
                ), name

    def test_quantifier_duality_on_shipped_roots(self, corpus_pairs, stdlib_set):
        for name, assertion in stdlib_set.entries:
            if not isinstance(assertion, Quant):
                continue
            flipped = QuantKind.FORALL if assertion.kind is QuantKind.EXISTS \
                else QuantKind.EXISTS
            negated_quant = Not(assertion)
            quant_negated = Quant(flipped, assertion.var, assertion.domain,
                                  Not(assertion.body))
            for case, _, args in corpus_pairs:
                assert evaluate(negated_quant, case.goal, case.context, args) == \
                    evaluate(quant_negated, case.goal, case.context, args), name

    @given(st.integers(0, 2**48))
    @settings(max_examples=60, deadline=None)
    def test_quantifier_duality_on_random_assertions(self, itrev_case, seed):
        quant = random_closed_quant(random.Random(seed))
        flipped = QuantKind.FORALL if quant.kind is QuantKind.EXISTS else QuantKind.EXISTS
        dual = Quant(flipped, quant.var, quant.domain, Not(quant.body))
        args = itrev_case.arg_sets["alt"]
        assert evaluate(Not(quant), itrev_case.goal, itrev_case.context, args) == \
            evaluate(dual, itrev_case.goal, itrev_case.context, args)

    @given(st.integers(0, 2**48))
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_deterministic(self, itrev_case, seed):
        quant = random_closed_quant(random.Random(seed))
        args = itrev_case.arg_sets["model"]
        first = evaluate(quant, itrev_case.goal, itrev_case.context, args)
        assert evaluate(quant, itrev_case.goal, itrev_case.context, args) == first


class TestWitnesses:
    def test_witness_chain_satisfies_assertion(self, itrev_case, stdlib_set):
        h3 = heuristic("h3_same_recursive_occurrence", stdlib_set)
        args = itrev_case.arg_sets["model"]
        witnesses = find_witnesses(h3, itrev_case.goal, itrev_case.context, args)
        assert [w[0] for w in witnesses] == ["t1", "to1"]
        assert witnesses[0][1] == Const("itrev")
        assert witnesses[1][1] == Occurrence(0, (1, 0))

    def test_no_witnesses_for_failing_exists(self, itrev_case):
        a = sort_check(parse_assertion("EX r : rule . True"))
        args = itrev_case.arg_sets["model"]  # no rules
        assert find_witnesses(a, itrev_case.goal, itrev_case.context, args) == []
        # The evaluator tells a failing assertion from an empty chain.
        assert Evaluator(itrev_case.goal, itrev_case.context, args).witnesses(a) is None

    def test_universal_root_yields_no_witnesses(self, itrev_case, stdlib_set):
        h1 = heuristic("h1_no_constant", stdlib_set)
        args = itrev_case.arg_sets["model"]
        assert find_witnesses(h1, itrev_case.goal, itrev_case.context, args) == []


class TestTraceHooks:
    """The benchmark's traced run counts work by wrapping `atomic` and
    `domain_values` on one evaluator; compiled code must call both through
    the instance."""

    @staticmethod
    def counted(evaluator):
        counts = {"atomic": 0, "items": 0}
        atomic, domain_values = evaluator.atomic, evaluator.domain_values

        def counted_atomic(name, values):
            counts["atomic"] += 1
            return atomic(name, values)

        def counted_domain_values(domain, env):
            values = domain_values(domain, env)
            counts["items"] += len(values)
            return values

        evaluator.atomic = counted_atomic
        evaluator.domain_values = counted_domain_values
        return counts

    def test_run_routes_through_the_instance(self, itrev_case, stdlib_set):
        e, _ = ev(itrev_case, "model")
        counts = self.counted(e)
        assert e.run(heuristic("h1_no_constant", stdlib_set))
        assert counts["atomic"] > 0 and counts["items"] > 0

    def test_witnesses_route_through_the_instance(self, itrev_case, stdlib_set):
        # h1 holds and has no leading EX, so its witness chain is empty;
        # h3's is not.
        e, _ = ev(itrev_case, "model")
        counts = self.counted(e)
        assert e.witnesses(heuristic("h1_no_constant", stdlib_set)) == []
        witnesses = e.witnesses(heuristic("h3_same_recursive_occurrence", stdlib_set))
        assert [var for var, _ in witnesses] == ["t1", "to1"]
        assert counts["atomic"] > 0 and counts["items"] > 0

    def test_narrowed_number_domains_route_through_the_instance(self, itrev_case, stdlib_set):
        # h4's EX n : number is narrowed by its is_nth_argument_of guard to
        # the one argument slot, and that domain is asked for too.
        e, _ = ev(itrev_case, "model")
        domain_values, numbers = e.domain_values, []

        def recorded(domain, env):
            # Occurrences are ints too, so a number domain is told by the
            # domain object asked for.
            values = domain_values(domain, env)
            if domain.sort is Sort.NUMBER:
                numbers.append(list(values))
            return values

        e.domain_values = recorded
        e.run(heuristic("h4_constructor_position", stdlib_set))
        assert numbers
        assert all(len(values) <= 1 for values in numbers)

    def test_every_domain_carries_its_quantifier(self, itrev_case, stdlib_set):
        # Narrowed or not, the domain a scan asks for carries the position,
        # variable and sort of a quantifier of the parsed assertion.
        for name, assertion in stdlib_set.selected(include_h7=True):
            quants, stack = set(), [assertion]
            while stack:
                match stack.pop():
                    case Quant(_, var, domain, body, pos):
                        quants.add((pos, var, domain_sort(domain)))
                        stack.append(body)
                    case Not(body):
                        stack.append(body)
                    case And(lhs, rhs) | Or(lhs, rhs) | Imp(lhs, rhs):
                        stack += (lhs, rhs)
            e, _ = ev(itrev_case, "model")
            domain_values, asked = e.domain_values, []

            def recorded(domain, env):
                asked.append((domain.pos, domain.var, domain.sort))
                return domain_values(domain, env)

            e.domain_values = recorded
            e.run(assertion)
            assert asked, name
            assert all(pos is not None for pos, _, _ in quants), name
            assert set(asked) <= quants, name


class TestWorkCounts:
    """With rule O, an occurrence quantifier guarded by an outer occurrence
    walks only the guard's candidates, so the domain items a traced run
    counts grow about as fast as the goal.  A full scan would make h3 on a
    constant that occurs at every level visit all of its occurrences under
    each occurrence, about 4x the count per doubling.  These are counts,
    not times."""

    @staticmethod
    def items(text, args_id, name, stdlib_set):
        case = parse_case_file(text)
        e, _ = ev(case, args_id)
        counts = TestTraceHooks.counted(e)
        assert not e.run(heuristic(name, stdlib_set))
        return counts["items"], len(e.occurrences)

    @pytest.mark.parametrize(
        "case_text, args_id, name",
        [
            (spine_case_text, "const", "h3_same_recursive_occurrence"),
            (map_chain_case_text, "fun", "h7_rule_args_generalized"),
        ],
        ids=["h3-spine-const", "h7-maps-to3"],
    )
    def test_items_grow_linearly(self, case_text, args_id, name, stdlib_set):
        small, small_goal = self.items(case_text(60), args_id, name, stdlib_set)
        large, large_goal = self.items(case_text(120), args_id, name, stdlib_set)
        assert large_goal <= 2 * small_goal
        assert large <= 2.2 * small

    def test_run_makes_no_identity_lookup(self, itrev_case, stdlib_set, monkeypatch):
        """Terms are table ids inside the evaluator: once it is built, its
        runs find no term in the table, by identity or by walking it."""
        e, _ = ev(itrev_case, "model")
        calls = {"lookups": 0, "interns": 0}

        class CountedDict(dict):
            def get(self, *args):
                calls["lookups"] += 1
                return super().get(*args)

            def __getitem__(self, key):
                calls["lookups"] += 1
                return super().__getitem__(key)

        intern = TermTable.intern

        def counted_intern(self, *args):
            calls["interns"] += 1
            return intern(self, *args)

        table = e.index.table
        monkeypatch.setattr(table, "canonical", CountedDict(table.canonical))
        monkeypatch.setattr(TermTable, "intern", counted_intern)
        for _, assertion in stdlib_set.entries:
            e.run(assertion)
        assert calls == {"lookups": 0, "interns": 0}
        # The counters see a direct call, which finds each Term it is given.
        assert e.atomic(AtomicName.ARE_SAME_TERM, (Free("xs"), Free("xs")))
        assert calls == {"lookups": 2, "interns": 2}


class TestDeepChains:
    """Chains of one connective 900 links deep each get a verdict: the
    compiler folds Not chains and flattens And, Or and -> chains."""

    DEPTH = 900

    @pytest.mark.parametrize(
        "text, verdict",
        [
            ("Not " * DEPTH + "True", True),
            ("Not " * (DEPTH - 1) + "True", False),
            (" /\\ ".join(["True"] * DEPTH), True),
            (" /\\ ".join(["True"] * (DEPTH - 1) + ["False"]), False),
            (" \\/ ".join(["False"] * DEPTH), False),
            (" \\/ ".join(["False"] * (DEPTH - 1) + ["True"]), True),
            (" -> ".join(["True"] * (DEPTH - 1) + ["False"]), False),
            (" -> ".join(["True"] * (DEPTH - 2) + ["False", "False"]), True),
        ],
        ids=["not-even", "not-odd", "and-true", "and-false", "or-false", "or-true",
             "imp-false", "imp-true"],
    )
    def test_chain_gets_its_verdict(self, itrev_case, text, verdict):
        assertion = sort_check(parse_assertion(text))
        args = itrev_case.arg_sets["model"]
        assert evaluate(assertion, itrev_case.goal, itrev_case.context, args) is verdict

    @pytest.mark.parametrize("links, verdict", [(5000, True), (5001, False)])
    def test_parsed_not_run_takes_no_stack_per_link(self, itrev_case, links, verdict):
        # The parser used to recurse once per Not, and the sort check too.
        assertion = sort_check(parse_assertion("Not " * links + "True"))
        args = itrev_case.arg_sets["model"]
        assert evaluate(assertion, itrev_case.goal, itrev_case.context, args) is verdict

    @pytest.mark.parametrize("shape", ["not", "and", "or", "imp"])
    def test_chain_takes_no_stack_per_link(self, itrev_case, shape):
        # Built as a tree, so that no parser is involved; 5,000 links is
        # far past Python's default recursion limit.
        links = 5000
        leaf = BoolLit(shape != "or")
        node = leaf
        for _ in range(links):
            if shape == "not":
                node = Not(node)
            elif shape == "imp":
                node = Imp(BoolLit(True), node)
            else:
                node = (And if shape == "and" else Or)(node, leaf)
        args = itrev_case.arg_sets["model"]
        expected = shape != "or"
        assert evaluate(node, itrev_case.goal, itrev_case.context, args) is expected
