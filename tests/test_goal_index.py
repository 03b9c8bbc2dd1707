"""The goal index: built once per Goal object, shared by every evaluator
of that object, and free of recursion on deep or wide goals.  A parsed
goal and the same goal built from Terms get the same index, and reading a
case builds each of its terms once."""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifter import bundled_corpus_dir, load_case_file, parse_case_file
from lifter.ingest import CorpusCase
from lifter.interp import Evaluator, evaluate
from lifter.terms import (
    App,
    Bound,
    ClausePattern,
    Const,
    Context,
    Definition,
    Free,
    Goal,
    InductArgs,
    Lambda,
    Occurrence,
    ParamPattern,
    RuleRecord,
    Schematic,
    enumerate_occurrences,
)

import oracle_interp as oracle
from helpers import render_case_file, terms_strategy

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


class TestPositions:
    """Each position converts to the occurrence the oracle walk gives it and
    back, its arrays agree with that occurrence's path, and `end` bounds each
    subtree, in every subgoal."""

    @given(st.lists(terms_strategy(), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_subtree_ends_and_lookups(self, subgoals):
        goal = Goal(tuple(subgoals))
        index = goal.index
        occs = [index.occurrence(i) for i in range(len(index.term_ids))]
        assert occs == [
            occ for s in range(len(subgoals)) for occ, _ in oracle.enumerate_occurrences(goal, s)
        ]
        for i, occ in enumerate(occs):
            depth = len(occ.path)
            inside = [
                j for j, o in enumerate(occs)
                if o.subgoal == occ.subgoal and o.path[:depth] == occ.path
            ]
            assert inside == list(range(i, index.end[i]))
            assert index.depth[i] == depth
            if occ.path:
                assert index.slot[i] == occ.path[-1]
                assert index.parent[i] == index.find(Occurrence(occ.subgoal, occ.path[:-1]))
            else:
                assert index.slot[i] == index.parent[i] == -1
            assert index.find(occ) == i
        for stale in ((0, (99,)), (0, (-1,)), (-1, ()), (len(subgoals), ())):
            assert index.find(Occurrence(*stale)) is None


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
        assert [reparsed.index.term_of[t] for t in reparsed.index.subterms] == [
            itrev_case.goal.index.term_of[t] for t in itrev_case.goal.index.subterms
        ]


def parsed(goal: Goal, context: Context | None = None, args: InductArgs | None = None):
    """The case holding goal, written out and read back."""
    context = context or Context({}, {})
    case = CorpusCase("c", goal, context, {"a": args or InductArgs()})
    return parse_case_file(render_case_file(case))


def index_view(index) -> dict:
    """Everything an index answers, with term ids replaced by the terms
    they stand for or by the positions that share them."""
    by_id: dict[int, list[int]] = {}
    for i, tid in enumerate(index.term_ids):
        by_id.setdefault(tid, []).append(i)
    return {
        "occurrences": [index.occurrence(i) for i in range(len(index.term_ids))],
        "arrays": (index.parent, index.slot, index.depth, index.end),
        "starts": index.starts,
        "partition": sorted(by_id.values()),
        "terms": [index.term_of[tid] for tid in index.term_ids],
        "subterms": [index.term_of[tid] for tid in index.subterms],
        "widest": index.widest,
        "max_depth": index.max_depth,
        "occs_of": {
            occs[0]: ([index.occurrence(i) for i in occs], index.term_of[tid])
            for tid, occs in index.occs_of.items()
        },
    }


class TestParsedAndBuiltGoalsAgree:
    @given(st.lists(terms_strategy(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_same_index(self, subgoals):
        built = Goal(tuple(subgoals))
        read = parsed(built).goal
        assert read == built
        assert read.table is not None and built.table is None
        assert index_view(read.index) == index_view(built.index)

    def test_spine_agrees(self):
        goal, context, args = spine_case(60)
        assert index_view(parsed(goal, context, args).goal.index) == index_view(goal.index)


TERM_CLASSES = (Const, Free, Schematic, Bound, Lambda, App)


@pytest.fixture
def term_builds(monkeypatch):
    """How many Terms have been built since the fixture was set up."""
    builds = {"count": 0}
    for cls in TERM_CLASSES:
        def counted(self, *args, __init=cls.__init__):
            builds["count"] += 1
            __init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return builds


class TestWorkCounts:
    """Counts, not timings: the reader builds each term once, into the case's
    table, and the index only walks the table."""

    def test_reading_builds_each_term_once(self, term_builds):
        goal, context, args = spine_case(240)
        text = render_case_file(CorpusCase("spine", goal, context, {"rule": args}))
        term_builds["count"] = 0
        case = parse_case_file(text)
        table = case.goal.table
        distinct = len(set(table.keys))
        assert term_builds["count"] == len(table.terms) == len(table.ids) == distinct
        # Each level's variable and its two curried applications of f, and
        # f, z, g z, g, =, and the two applications of =: none built twice.
        assert distinct == 3 * 240 + 7

    def test_index_adds_nothing_to_the_table(self, term_builds):
        goal, context, args = spine_case(240)
        case = parsed(goal, context, args)
        table = case.goal.table
        before = (len(table.terms), len(table.ids), term_builds["count"])
        index = case.goal.index
        assert (len(table.terms), len(table.ids), term_builds["count"]) == before
        assert len(index.term_ids) == 3 * 240 + 6

    def test_index_memory_grows_with_the_node_count(self):
        # Each node holds one entry in each of a few arrays, so 8 times the
        # nodes take about 8 times the bytes.  A path per node would grow
        # with the sum of the depths: about 40 times from 240 to 1920.
        def held(goal) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                goal.index
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        small, large = spine_case(240)[0], spine_case(1920)[0]
        ratio = held(large) / held(small)
        assert (len(small.index.term_ids), len(large.index.term_ids)) == (726, 5766)
        assert ratio <= 12

    def test_argument_terms_are_the_tables(self):
        goal, context, args = spine_case(30)
        case = parsed(goal, context, args)
        table = case.goal.table
        read = case.arg_sets["a"]
        for term in read.induction_terms + read.arbitrary_terms:
            assert table.terms[table.canonical[id(term)]] is term
        # No argument term needed a structural walk or a key of its own.
        keys = len(table.keys)
        Evaluator(case.goal, case.context, read)
        assert len(table.keys) == len(table.ids) == keys
