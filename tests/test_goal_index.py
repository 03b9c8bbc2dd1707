"""The goal index: built once per Goal object, shared by every evaluator
of that object, and free of recursion on deep or wide goals."""

from __future__ import annotations

from lifter import bundled_corpus_dir, load_case_file, parse_case_file
from lifter.interp import Evaluator, evaluate
from lifter.terms import (
    App,
    ClausePattern,
    Const,
    Context,
    Definition,
    Free,
    Goal,
    InductArgs,
    ParamPattern,
    RuleRecord,
    enumerate_occurrences,
)

CONSTRUCTOR, VAR = ParamPattern.CONSTRUCTOR, ParamPattern.VAR


def apply(head, *args):
    for arg in args:
        head = App(head, arg)
    return head


def equation(lhs, rhs):
    return apply(Const("="), lhs, rhs)


def recursive(name: str, arity: int) -> Definition:
    clause = ClausePattern((CONSTRUCTOR,) + (VAR,) * (arity - 1))
    return Definition(name, True, (clause, clause))


def wide_case(k: int):
    """h x0 ... x(k-1) = g x0, inducting on x0 x1 with h.induct."""
    xs = [Free(f"x{i}") for i in range(k)]
    goal = Goal((equation(apply(Const("h"), *xs), apply(Const("g"), xs[0])),))
    context = Context(
        {"h": recursive("h", k), "g": Definition("g", False)},
        {"h.induct": RuleRecord("h.induct", "h")},
    )
    return goal, context, InductArgs((xs[0], xs[1]), (), ("h.induct",))


def spine_case(k: int):
    """f x0 (f x1 ... (f x(k-1) z)) = g z, inducting on x0 with f.induct."""
    level = Free("z")
    for i in reversed(range(k)):
        level = apply(Const("f"), Free(f"x{i}"), level)
    goal = Goal((equation(level, apply(Const("g"), Free("z"))),))
    context = Context(
        {"f": recursive("f", 2), "g": Definition("g", False)},
        {"f.induct": RuleRecord("f.induct", "f")},
    )
    return goal, context, InductArgs((Free("x0"),), (Free("z"),), ("f.induct",))


class TestLargeGoals:
    """Comparing the curried terms of these goals by structure recurses once
    per level and exceeds Python's recursion limit."""

    def test_wide_application_gets_h5_verdict(self, stdlib_set):
        goal, context, args = wide_case(393)
        assert evaluate(stdlib_set.get("h5_rule_argument_order"), goal, context, args)

    def test_deep_spine_gets_h5_verdict(self, stdlib_set):
        goal, context, args = spine_case(400)
        assert len(enumerate_occurrences(goal, 0)) == 3 * 400 + 6
        assert evaluate(stdlib_set.get("h5_rule_argument_order"), goal, context, args)

    def test_deep_absent_argument_terms_compare_by_structure(self, stdlib_set):
        goal, context, _ = spine_case(10)
        deep, _, _ = spine_case(400)
        twin, _, _ = spine_case(400)
        args = InductArgs((deep.subgoals[0],), (twin.subgoals[0],), ())
        # h6a: an arbitrary term equal to an induction term fails it.
        assert not evaluate(stdlib_set.get("h6a_arbitrary_not_induction"), goal, context, args)


class TestIndexSharing:
    def test_evaluators_of_one_goal_share_its_index(self, itrev_case):
        goal, context = itrev_case.goal, itrev_case.context
        first = Evaluator(goal, context, itrev_case.arg_sets["model"])
        second = Evaluator(goal, context, itrev_case.arg_sets["alt"])
        assert first.index is second.index is goal.index

    def test_evaluate_reuses_the_index(self, itrev_case, stdlib_set):
        goal = itrev_case.goal
        index = goal.index
        for _, assertion in stdlib_set.entries:
            evaluate(assertion, goal, itrev_case.context, itrev_case.arg_sets["model"])
        assert goal.index is index

    def test_equal_goal_builds_its_own_index(self, itrev_case):
        path = bundled_corpus_dir() / "itrev.case"
        reparsed = load_case_file(path).goal
        again = parse_case_file(path.read_text(encoding="utf-8")).goal
        assert reparsed == itrev_case.goal == again
        assert reparsed.index is not itrev_case.goal.index
        assert again.index is not reparsed.index
        assert reparsed.index.subterms == itrev_case.goal.index.subterms
