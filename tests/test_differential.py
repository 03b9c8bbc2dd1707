"""Differential tests: the goal index and the interpreter against the oracle.

`oracle_interp` keeps the interpreter as it was before goals had an index:
three walks per evaluator, each unflattening every node, and terms compared
by structure.  On random goals, contexts and induct arguments, every
domain, verdict and witness chain of `lifter` must agree with it.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_interp as oracle
from lifter.ingest import parse_term_sexp, render_term_sexp
from lifter.interp import Evaluator, evaluate, find_witnesses
from lifter.lang import (
    And,
    Imp,
    Not,
    OccsOf,
    Or,
    Pattern,
    Quant,
    SIGNATURES,
    Sort,
)
from lifter.stdlib import load_stdlib
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
    enumerate_occurrences,
    enumerate_subterms,
    term_at,
)

from helpers import random_assertion, terms_strategy

STDLIB = load_stdlib().entries

# terms_strategy names use only the letters a-g, so these never occur in a goal.
ABSENT = (Free("absent"), App(Const("absent"), Free("x")), Lambda("v", Bound(0)))

# Random assertions nest quantifiers over numbers and terms; the oracle is
# slow, so only those whose quantifier loops are bounded by this many
# steps are evaluated.
MAX_STEPS = 20_000


def fresh_copy(term):
    """An equal term that shares no object with the original."""
    return parse_term_sexp(render_term_sexp(term))


@st.composite
def goals(draw):
    return Goal(tuple(draw(st.lists(terms_strategy(), min_size=1, max_size=3))))


@st.composite
def scenarios(draw):
    """A goal, a context for its constants, and induct arguments drawn from
    its subterms (partial applications included), terms absent from it and
    fresh copies of either."""
    goal = draw(goals())
    subterms = oracle.enumerate_subterms(goal)
    definitions, rules = {}, {}
    for name in sorted({t.name for t in subterms if isinstance(t, Const)}):
        if not draw(st.booleans()):
            continue
        arity = draw(st.integers(0, 3))
        params = st.lists(st.sampled_from(list(ParamPattern)), min_size=arity, max_size=arity)
        clauses = draw(st.lists(params.map(lambda ps: ClausePattern(tuple(ps))), max_size=3))
        definitions[name] = Definition(name, draw(st.booleans()), tuple(clauses))
        if draw(st.booleans()):
            rules[f"{name}.induct"] = RuleRecord(f"{name}.induct", name)
    pool = [*subterms, *(t.fun for t in subterms if isinstance(t, App)), *ABSENT]
    pool += draw(st.lists(terms_strategy(), max_size=2))

    def terms():
        picked = draw(st.lists(st.sampled_from(pool), max_size=3))
        return tuple(fresh_copy(t) if draw(st.booleans()) else t for t in picked)

    rule_names = st.sampled_from([*sorted(rules), "unknown.induct"])
    args = InductArgs(terms(), terms(), tuple(draw(st.lists(rule_names, max_size=2))))
    return goal, Context(definitions, rules), args


def steps_bound(node, evaluator: Evaluator) -> int:
    """An upper bound on the quantifier iterations of one evaluation."""
    match node:
        case Quant(_, _, domain, body):
            if isinstance(domain, OccsOf):
                size = len(evaluator.occurrences)
            else:
                size = len(evaluator.domain_values(domain, {}))
            return 1 + size * steps_bound(body, evaluator)
        case Not(body):
            return 1 + steps_bound(body, evaluator)
        case And(lhs, rhs) | Or(lhs, rhs) | Imp(lhs, rhs):
            return 1 + steps_bound(lhs, evaluator) + steps_bound(rhs, evaluator)
    return 1


def assert_agrees(assertion, goal, context, args) -> None:
    assert evaluate(assertion, goal, context, args) == oracle.evaluate(
        assertion, goal, context, args
    )
    assert find_witnesses(assertion, goal, context, args) == oracle.find_witnesses(
        assertion, goal, context, args
    )


@given(goals())
@settings(max_examples=200, deadline=None)
def test_views_match_oracle_walks(goal):
    for subgoal in range(len(goal.subgoals)):
        expected = oracle.enumerate_occurrences(goal, subgoal)
        assert enumerate_occurrences(goal, subgoal) == expected
        for occ, term in expected:
            assert term_at(goal, occ) == term
    assert enumerate_subterms(goal) == oracle.enumerate_subterms(goal)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_domains_match_oracle(scenario):
    goal, context, args = scenario
    new, old = Evaluator(goal, context, args), oracle.Evaluator(goal, context, args)
    assert new.occurrences == old.occurrences
    assert new.terms == old.terms
    assert (new.max_depth, new.max_number, new.numbers) == (
        old.max_depth, old.max_number, old.numbers
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_stdlib_verdicts_and_witnesses_match_oracle(scenario):
    goal, context, args = scenario
    for _, assertion in STDLIB:
        assert_agrees(assertion, goal, context, args)


@given(scenarios(), st.lists(st.integers(0, 2**48), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_random_assertions_match_oracle(scenario, seeds):
    goal, context, args = scenario
    evaluator = Evaluator(goal, context, args)
    for seed in seeds:
        assertion = random_assertion(random.Random(seed))
        if steps_bound(assertion, evaluator) <= MAX_STEPS:
            assert_agrees(assertion, goal, context, args)


@given(scenarios(), st.integers(0, 2**48))
@settings(max_examples=150, deadline=None)
def test_atomics_match_oracle_pointwise(scenario, seed):
    """Every atomic on random values, including occurrences of later
    subgoals, stale occurrences, absent terms and copies of goal terms."""
    goal, context, args = scenario
    new, old = Evaluator(goal, context, args), oracle.Evaluator(goal, context, args)
    occurrences = [occ for s in range(len(goal.subgoals))
                   for occ, _ in enumerate_occurrences(goal, s)]
    occurrences += [Occurrence(0, (7,)), Occurrence(len(goal.subgoals), ())]
    terms = [*new.terms, *map(fresh_copy, new.terms), *args.induction_terms,
             *args.arbitrary_terms, *ABSENT]
    pools = {
        Sort.OCCURRENCE: occurrences,
        Sort.TERM: terms,
        Sort.NUMBER: list(range(new.max_number + 2)),
        Sort.RULE: [*args.rules, *context.rules, "unknown.induct"],
        Pattern: list(Pattern),
    }
    rng = random.Random(seed)
    for name, signature in SIGNATURES.items():
        for _ in range(20):
            values = tuple(rng.choice(pools[slot]) for slot in signature)
            assert new.atomic(name, values) == old.atomic(name, values), (name, values)
