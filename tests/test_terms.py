"""Term model: flattening, occurrences, subterm enumeration, depths.

The oracles here recurse over trees directly and never consult paths or
the enumeration order they are used to check.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from lifter.terms import (
    App,
    Bound,
    ClausePattern,
    Const,
    Context,
    Definition,
    Free,
    Goal,
    Lambda,
    Occurrence,
    ParamPattern,
    RuleRecord,
    Schematic,
    enumerate_occurrences,
    enumerate_subterms,
)

from helpers import depth_of, term_at, terms_strategy
from oracle_ingest import is_well_formed
from oracle_interp import AppNode, Atom, LambdaNode, flatten, node_children, unflatten


def count_nodes(node) -> int:
    """Oracle: size of a flattened tree by plain recursion."""
    return 1 + sum(count_nodes(c) for c in node_children(node))


def tree_height(node) -> int:
    """Oracle: longest root-to-leaf edge count, again by plain recursion."""
    children = node_children(node)
    if not children:
        return 0
    return 1 + max(tree_height(c) for c in children)


def itrev_goal() -> Goal:
    # itrev xs ys = rev xs @ ys
    lhs = App(App(Const("itrev"), Free("xs")), Free("ys"))
    rhs = App(App(Const("@"), App(Const("rev"), Free("xs"))), Free("ys"))
    return Goal((App(App(Const("="), lhs), rhs),))


class TestFlatten:
    def test_two_argument_application_becomes_one_node(self):
        term = App(App(Const("f"), Free("a")), Free("b"))
        assert flatten(term) == AppNode((Atom(Const("f")), Atom(Free("a")), Atom(Free("b"))))

    def test_atoms_flatten_to_atoms(self):
        assert flatten(Free("x")) == Atom(Free("x"))
        assert flatten(Bound(0)) == Atom(Bound(0))

    def test_lambda_keeps_binder(self):
        term = Lambda("x", App(Const("f"), Bound(0)))
        assert flatten(term) == LambdaNode("x", AppNode((Atom(Const("f")), Atom(Bound(0)))))

    def test_head_of_nested_spine_is_child_zero(self):
        flat = flatten(itrev_goal().subgoals[0])
        assert isinstance(flat, AppNode)
        assert flat.children[0] == Atom(Const("="))
        assert len(flat.children) == 3

    def test_applied_lambda_head(self):
        term = App(Lambda("x", Bound(0)), Free("y"))
        flat = flatten(term)
        assert isinstance(flat, AppNode)
        assert isinstance(flat.children[0], LambdaNode)

    @given(terms_strategy())
    @settings(max_examples=200)
    def test_unflatten_inverts_flatten(self, term):
        assert unflatten(flatten(term)) == term


class TestOccurrences:
    def test_itrev_occurrence_count_matches_node_count_oracle(self):
        goal = itrev_goal()
        occs = enumerate_occurrences(goal, 0)
        assert len(occs) == count_nodes(flatten(goal.subgoals[0]))
        assert len(occs) == 12

    def test_root_comes_first_and_paths_are_unique(self):
        goal = itrev_goal()
        occs = enumerate_occurrences(goal, 0)
        assert occs[0][0] == Occurrence(0, ())
        assert occs[0][1] == goal.subgoals[0]
        paths = [o.path for o, _ in occs]
        assert len(set(paths)) == len(paths)

    def test_head_enumerates_before_arguments(self):
        goal = itrev_goal()
        paths = [o.path for o, _ in enumerate_occurrences(goal, 0)]
        assert paths.index((1, 0)) < paths.index((1, 1))

    def test_single_node_goal(self):
        occs = enumerate_occurrences(Goal((Free("x"),)), 0)
        assert occs == [(Occurrence(0, ()), Free("x"))]

    def test_subgoal_index_out_of_range(self):
        with pytest.raises(IndexError):
            enumerate_occurrences(itrev_goal(), 1)

    def test_every_occurrence_resolves_to_its_term(self):
        goal = itrev_goal()
        for occ, term in enumerate_occurrences(goal, 0):
            assert term_at(goal, occ) == term

    def test_xs_occurs_at_both_recorded_paths(self):
        goal = itrev_goal()
        xs_paths = {o.path for o, t in enumerate_occurrences(goal, 0) if t == Free("xs")}
        assert xs_paths == {(1, 1), (2, 1, 1)}

    @given(terms_strategy())
    @settings(max_examples=100)
    def test_count_matches_oracle_on_random_terms(self, term):
        goal = Goal((term,))
        assert len(enumerate_occurrences(goal, 0)) == count_nodes(flatten(term))


class TestSubterms:
    def test_duplicates_collapse(self):
        goal = itrev_goal()
        terms = enumerate_subterms(goal)
        assert terms.count(Free("xs")) == 1
        assert terms.count(Free("ys")) == 1
        assert len(terms) == 10

    def test_single_constant_goal(self):
        assert enumerate_subterms(Goal((Const("c"),))) == [Const("c")]

    def test_spans_all_subgoals(self):
        goal = Goal((Free("a"), Free("b")))
        assert enumerate_subterms(goal) == [Free("a"), Free("b")]

    @given(terms_strategy())
    @settings(max_examples=100)
    def test_never_more_subterms_than_occurrences(self, term):
        goal = Goal((term,))
        assert len(enumerate_subterms(goal)) <= len(enumerate_occurrences(goal, 0))


class TestDepth:
    def test_root_depth_zero(self):
        assert depth_of(Occurrence(0, ())) == 0

    def test_xs_under_rev_has_depth_three(self):
        goal = itrev_goal()
        assert term_at(goal, Occurrence(0, (2, 1, 1))) == Free("xs")
        assert depth_of(Occurrence(0, (2, 1, 1))) == 3

    def test_max_depth_matches_height_oracle(self):
        goal = itrev_goal()
        deepest = max(depth_of(o) for o, _ in enumerate_occurrences(goal, 0))
        assert deepest == tree_height(flatten(goal.subgoals[0])) == 3

    @given(terms_strategy())
    @settings(max_examples=100)
    def test_max_depth_matches_height_oracle_randomly(self, term):
        goal = Goal((term,))
        deepest = max(depth_of(o) for o, _ in enumerate_occurrences(goal, 0))
        assert deepest == tree_height(flatten(term))


class TestWellFormedness:
    def test_bound_inside_enough_lambdas(self):
        assert is_well_formed(Lambda("x", Bound(0)))
        assert is_well_formed(Lambda("x", Lambda("y", Bound(1))))

    def test_escaping_bound_index(self):
        assert not is_well_formed(Bound(0))
        assert not is_well_formed(Lambda("x", Bound(1)))
        assert not is_well_formed(App(Free("f"), Lambda("x", Bound(2))))

    def test_deep_terms_are_checked_without_recursion(self):
        def nest(index):
            term = Bound(index)
            for _ in range(3000):
                term = App(Free("f"), Lambda("x", term))
            return term

        assert is_well_formed(nest(2999))
        assert not is_well_formed(nest(3000))

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            Const("")
        with pytest.raises(ValueError):
            Lambda("", Free("x"))
        with pytest.raises(ValueError):
            Bound(-1)


class TestContextTypes:
    def test_clause_arity_must_agree(self):
        with pytest.raises(ValueError):
            Definition(
                "f",
                True,
                (
                    ClausePattern((ParamPattern.CONSTRUCTOR,)),
                    ClausePattern((ParamPattern.CONSTRUCTOR, ParamPattern.VAR)),
                ),
            )

    def test_rule_must_derive_from_known_constant(self):
        with pytest.raises(ValueError):
            Context({}, {"f.induct": RuleRecord("f.induct", "f")})

    def test_goal_needs_a_subgoal(self):
        with pytest.raises(ValueError):
            Goal(())

    def test_occurrence_equality_is_positional(self):
        assert Occurrence(0, (1,)) == Occurrence(0, (1,))
        assert Occurrence(0, (1,)) != Occurrence(1, (1,))
        assert Occurrence(0, (1,)) != Occurrence(0, (2,))

    def test_terms_compare_structurally(self):
        assert Free("x") == Free("x")
        assert Free("x") != Schematic("x")
        assert Lambda("a", Bound(0)) != Lambda("b", Bound(0))


class TestDeepTermEquality:
    """`==` and `hash()` on terms 3,000 levels deep take no Python stack per
    level; both used to raise RecursionError."""

    DEPTH = 3000

    @staticmethod
    def build(shape: str, leaf) -> object:
        term = leaf
        for _ in range(TestDeepTermEquality.DEPTH):
            if shape == "fun":
                term = App(term, Free("x"))
            elif shape == "arg":
                term = App(Const("s"), term)
            else:
                term = Lambda("v", App(term, Bound(0)))
        return term

    @pytest.mark.parametrize("shape", ["fun", "arg", "lambda"])
    def test_separately_built_equal_terms(self, shape):
        a, b = self.build(shape, Const("z")), self.build(shape, Const("z"))
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert Goal((a,)) == Goal((b,))

    @pytest.mark.parametrize("shape", ["fun", "arg", "lambda"])
    def test_a_different_leaf_at_the_bottom(self, shape):
        a, b = self.build(shape, Const("z")), self.build(shape, Free("z"))
        assert a != b and not a == b
        assert Goal((a,)) != Goal((b,))
