"""Differential tests: the goal index and the interpreter against the oracle.

`oracle_interp` keeps the interpreter as it was before goals had an index
or assertions were compiled: three walks per evaluator, each unflattening
every node, terms compared by structure, and a tree walk over the
assertion with a dict per binding.  On random goals, contexts and induct
arguments, every domain, verdict and witness chain of `lifter` must agree
with it, including on assertions shaped to meet the compiler's rewrites.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_interp as oracle
from lifter.ingest import (
    bundled_corpus_dir,
    load_case_file,
    parse_case_file,
    parse_term_sexp,
    render_term_sexp,
)
from lifter.interp import Evaluator, evaluate, find_witnesses
from lifter.lang import (
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
    Pattern,
    Quant,
    QuantKind,
    SIGNATURES,
    Sort,
    TermsIn,
    domain_sort,
    parse_assertion,
    sort_check,
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
)

from helpers import random_assertion, random_domain, term_at, terms_strategy

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
            if isinstance(domain, OccsOf):  # t's occurrences, for the t with the most
                size = max(
                    len(evaluator.domain_values(domain, {domain.term_var: t}))
                    for t in evaluator.terms
                )
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
    assert [new.index.occurrence(i) for i in new.occurrences] == old.occurrences
    assert [new.index.term_of[t] for t in new.terms] == old.terms
    assert (new.max_depth, new.max_number, new.numbers) == (
        old.max_depth, old.max_number, old.numbers
    )


def test_absent_argument_joins_the_table_not_the_domains():
    """An API-built argument term the goal lacks gets an id in the goal's
    table; the domains, fixed when the index was built, stay as they were."""
    case = load_case_file(bundled_corpus_dir() / "itrev.case")
    goal, table = case.goal, case.goal.table
    model = Evaluator(goal, case.context, case.arg_sets["model"])
    before = (list(model.terms), model.max_number, enumerate_subterms(goal))
    keys = len(table.keys)
    # Free "xs" is in the goal; the other three keys are not.
    args = InductArgs((Free("absent"), Free("xs")), (App(Const("absent"), Free("xs")),))
    e = Evaluator(goal, case.context, args)
    assert len(table.keys) == len(table.ids) == keys + 3
    assert (Free, "absent") in table.ids
    assert (list(e.terms), e.max_number, enumerate_subterms(goal)) == before
    for _, assertion in STDLIB:
        assert_agrees(assertion, goal, case.context, args)


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
    subterms = [new.index.term_of[t] for t in new.terms]
    terms = [*subterms, *map(fresh_copy, subterms), *args.induction_terms,
             *args.arbitrary_terms, *ABSENT]
    pools = {
        Sort.OCCURRENCE: occurrences,
        Sort.TERM: terms,
        Sort.NUMBER: [-1, *range(new.max_number + 2)],
        Sort.RULE: [*args.rules, *context.rules, "unknown.induct"],
        Pattern: list(Pattern),
    }
    rng = random.Random(seed)
    for name, signature in SIGNATURES.items():
        for _ in range(20):
            values = tuple(rng.choice(pools[slot]) for slot in signature)
            assert new.atomic(name, values) == old.atomic(name, values), (name, values)


# Names the rewrite shapes bind; random_assertion binds them too, so inner
# binders shadow outer ones.
NAMES = ["x0", "x1", "y0"]
KINDS = [QuantKind.EXISTS, QuantKind.FORALL]


def and_tree(rng: random.Random, parts: list):
    """parts joined by /\\ in a random association."""
    parts = list(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [And(parts[i], parts[i + 1])]
    return parts[0]


def small(rng: random.Random, env: dict):
    return random_assertion(rng, env, depth=3)


def beside(rng: random.Random, env: dict, core):
    """core, perhaps beside a formula that reads the variables of env after
    core has bound its own."""
    roll = rng.random()
    if roll < 0.3:
        return And(core, small(rng, env))
    if roll < 0.5:
        return And(small(rng, env), core)
    return core


def quantify(prefix: list, core):
    for kind, var, domain in reversed(prefix):
        core = Quant(kind, var, domain, core)
    return core


def guard_shape(rng: random.Random):
    """Q n : number . ... with is_nth_argument_of (o, n, h) as a conjunct in
    any position (rule N), or under Not or Or, or pinning an outer number,
    where it must narrow nothing.  o and h may be one variable.  Some
    shapes are one EX chain down to n, so that find_witnesses reports the
    number the rule picked."""
    prefix, env = [], {}
    chain = rng.random() < 0.5

    def kind():
        return QuantKind.EXISTS if chain else rng.choice(KINDS)

    def bind(var, domain):
        prefix.append((kind(), var, domain))
        env[var] = domain_sort(domain)

    o, h = rng.choice(NAMES), rng.choice(NAMES)
    if rng.random() < 0.4:
        bind("t0", rng.choice([AllTerms(), TermsIn(Modifier.INDUCTION)]))
        bind(o, OccsOf("t0"))
    else:
        bind(o, AllOccs())
    if h != o:
        bind(h, AllOccs())
    n = rng.choice([v for v in NAMES if v not in (o, h)])
    inner = {**env, n: Sort.NUMBER}
    guard = Atomic(AtomicName.IS_NTH_ARGUMENT_OF, (o, n, h))
    # Formulas whose value depends on which number n is.
    pins = [guard, Atomic(AtomicName.PATTERN_IS, (n, h, rng.choice(list(Pattern))))]
    if "t0" in env:
        pins.append(Atomic(AtomicName.IS_NTH_INDUCTION_TERM, ("t0", n)))
    place = rng.choice(["direct", "direct", "not", "or", "outer"])
    if place == "not":
        guard = Not(guard)
    elif place == "or":
        other = rng.choice([small(rng, inner), BoolLit(True), Not(rng.choice(pins))])
        guard = Or(guard, other) if rng.random() < 0.5 else Or(other, guard)
    elif place == "outer":
        bind("m0", AllNumbers())
        inner["m0"] = Sort.NUMBER
        guard = Atomic(AtomicName.IS_NTH_ARGUMENT_OF, (o, "m0", h))
    conjuncts = [guard, *(small(rng, inner) for _ in range(rng.randint(0, 1 if chain else 2)))]
    if rng.random() < 0.5:
        conjuncts.append(rng.choice(pins))
    rng.shuffle(conjuncts)
    n_kind = kind()
    if n_kind is QuantKind.FORALL and rng.random() < 0.5:
        # ALL n . C1 -> C2 -> ... -> C: the curried form of the dual rule.
        body = small(rng, inner)
        for c in reversed(conjuncts):
            body = Imp(c, body)
    elif n_kind is QuantKind.FORALL and rng.random() < 0.8:
        body = Imp(and_tree(rng, conjuncts), small(rng, inner))
    else:
        body = and_tree(rng, conjuncts)
    core = Quant(n_kind, n, AllNumbers(), body)
    return quantify(prefix, core if chain else beside(rng, env, core))


def hoist_shape(rng: random.Random):
    """EX x . A /\\ B, ALL x . (A /\\ B) -> C and ALL x . A /\\ B, with
    conjuncts that do and do not mention x, in any order, decided as the
    oracle decides them.  ALL x . A /\\ B holds on an empty domain
    whatever A is."""
    prefix, env = [], {}
    for _ in range(rng.randint(0, 2)):
        var, domain = rng.choice(NAMES), random_domain(rng, env)
        prefix.append((rng.choice(KINDS), var, domain))
        env[var] = domain_sort(domain)
    x = rng.choice(NAMES)
    # Induct arguments often have no arbitrary terms or rules: empty
    # domains, where ALL x . A /\\ B holds whatever A is.
    domain = rng.choice([random_domain(rng, env), TermsIn(Modifier.ARBITRARY), AllRules()])
    inner = {**env, x: domain_sort(domain)}
    # Formulas over the outer scope do not mention x, unless x shadows an
    # outer name of its own sort that they read.
    outer = env if env.get(x, inner[x]) is inner[x] else {v: s for v, s in env.items() if v != x}
    conjuncts = [small(rng, outer) for _ in range(rng.randint(1, 2))]
    conjuncts += [small(rng, inner) for _ in range(rng.randint(0, 2))]
    rng.shuffle(conjuncts)
    body = and_tree(rng, conjuncts)
    shape = rng.choice(["exists", "forall_imp", "forall_and"])
    if shape == "exists":
        core = Quant(QuantKind.EXISTS, x, domain, body)
    elif shape == "forall_imp":
        core = Quant(QuantKind.FORALL, x, domain, Imp(body, small(rng, inner)))
    else:
        core = Quant(QuantKind.FORALL, x, domain, body)
    return quantify(prefix, beside(rng, env, core))


OCCURRENCE_GUARDS = ["argument", "nth", "implied", "subtree", "of_term", "swapped"]
OCCURRENCE_PLACES = ["direct"] * 3 + ["antecedent"] * 2 + ["not", "or", "exists_imp", "forall_and"]


def occurrence_guard_shape(rng: random.Random):
    """Q x : D . ... with an occurrence guard on x among its conjuncts (rule
    O): x is_an_argument_of h, EX n . ... /\\ is_nth_argument_of (x, n, h)
    /\\ ..., x is_in_term_occurrence h or x term_occurrence_is_of_term u;
    or is_nth_argument_of (x, m, h) with m bound outside, which has no row
    and is tested for each x, or a guard with x and h swapped, which pins
    nothing.  D is term_occurrence or term_occurrence IN t.  The guard
    stands as a direct conjunct of an EX, as an antecedent of ALL ... ->,
    under Not or Or, in an EX over an implication, or in an ALL without
    one; only the first two narrow.  h may be x itself, shadowed by x.
    Some shapes are one EX chain down to x, so that find_witnesses reports
    the occurrence the narrowed domain gave."""
    prefix, env = [], {}
    place = rng.choice(OCCURRENCE_PLACES)
    chain = place in ("direct", "not", "or") and rng.random() < 0.5

    def kind():
        return QuantKind.EXISTS if chain else rng.choice(KINDS)

    def bind(var, domain):
        prefix.append((kind(), var, domain))
        env[var] = domain_sort(domain)

    h, x = rng.sample(NAMES, 2)
    if rng.random() < 0.2:
        x = h
    domains = [AllOccs()]
    if rng.random() < 0.6:
        bind("t0", rng.choice([AllTerms(), AllTerms(), TermsIn(Modifier.INDUCTION)]))
        domains.append(OccsOf("t0"))
    bind(h, rng.choice(domains))
    domain = rng.choice(domains)
    guard_kind = rng.choice(OCCURRENCE_GUARDS)
    if guard_kind == "nth":
        bind("m0", AllNumbers())
    elif guard_kind == "of_term":
        bind("u0", AllTerms())
    inner = {**env, x: Sort.OCCURRENCE}
    # Formulas whose value depends on which occurrence x is.
    pins = [Atomic(AtomicName.IS_FREE_VARIABLE, (x,)), Atomic(AtomicName.IS_ATOMIC, (x,)),
            Atomic(AtomicName.IS_AT_DEEPEST, (x,)), Atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (x, h))]
    if "t0" in env:
        pins.append(Atomic(AtomicName.TERM_OCCURRENCE_IS_OF_TERM, (x, "t0")))
    if guard_kind == "argument":
        guard = Atomic(AtomicName.IS_AN_ARGUMENT_OF, (x, h))
    elif guard_kind == "nth":
        guard = Atomic(AtomicName.IS_NTH_ARGUMENT_OF, (x, "m0", h))
    elif guard_kind == "subtree":
        guard = Atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (x, h))
    elif guard_kind == "of_term":
        guard = Atomic(AtomicName.TERM_OCCURRENCE_IS_OF_TERM, (x, "u0"))
    elif guard_kind == "swapped":
        guard = rng.choice([Atomic(AtomicName.IS_AN_ARGUMENT_OF, (h, x)),
                            Atomic(AtomicName.IS_IN_TERM_OCCURRENCE, (h, x))])
    else:
        # The number may shadow x, so that the guard pins nothing.
        n = rng.choice(["n0", "n0", x]) if h != x else "n0"
        numbered = {**inner, n: Sort.NUMBER}
        parts = [Atomic(AtomicName.IS_NTH_ARGUMENT_OF, (x if n != x else h, n, h))]
        parts.append(rng.choice([Atomic(AtomicName.PATTERN_IS, (n, h, rng.choice(list(Pattern)))),
                                 small(rng, numbered), BoolLit(True)]))
        rng.shuffle(parts)
        guard = Quant(QuantKind.EXISTS, n, AllNumbers(), and_tree(rng, parts))
    if place == "not":
        guard = Not(guard)
    elif place == "or":
        other = rng.choice([small(rng, inner), BoolLit(True), rng.choice(pins)])
        guard = Or(guard, other) if rng.random() < 0.5 else Or(other, guard)
    conjuncts = [guard, *(small(rng, inner) for _ in range(rng.randint(0, 1)))]
    if rng.random() < 0.6:
        conjuncts.append(rng.choice(pins))
    rng.shuffle(conjuncts)
    body = and_tree(rng, conjuncts)
    if place == "antecedent":
        x_kind, body = QuantKind.FORALL, Imp(body, small(rng, inner))
    elif place == "exists_imp":
        x_kind, body = QuantKind.EXISTS, Imp(body, small(rng, inner))
    elif place == "forall_and":
        x_kind = QuantKind.FORALL
    else:
        x_kind = kind()
    core = Quant(x_kind, x, domain, body)
    return quantify(prefix, core if chain else beside(rng, env, core))


@given(scenarios(), st.lists(st.integers(0, 2**48), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_rewrite_shapes_match_oracle(scenario, seeds):
    goal, context, args = scenario
    evaluator = Evaluator(goal, context, args)
    for seed in seeds:
        rng = random.Random(seed)
        shape = rng.choice([guard_shape, hoist_shape, occurrence_guard_shape])
        assertion = sort_check(shape(rng))
        if steps_bound(assertion, evaluator) <= MAX_STEPS:
            assert_agrees(assertion, goal, context, args)


# Rule N on the corpus goals, whose applications have constant heads with
# definitions: the EX chains report the number the rule picked.
GUARD_TEXTS = [
    "EX h : term_occurrence . EX o : term_occurrence . EX n : number ."
    " is_nth_argument_of ( o , n , h )",
    "EX h : term_occurrence . EX o : term_occurrence . EX n : number ."
    " pattern_is ( n , h , all_constructor ) /\\ is_nth_argument_of ( o , n , h )",
    "EX h : term_occurrence . EX o : term_occurrence . EX n : number ."
    " is_nth_argument_of ( o , n , h ) /\\ pattern_is ( n , h , all_only_var )",
    "ALL h : term_occurrence . ALL o : term_occurrence . ALL n : number ."
    " is_nth_argument_of ( o , n , h ) -> Not ( pattern_is ( n , h , mixed ) )",
    "EX h : term_occurrence . EX o : term_occurrence . EX n : number ."
    " Not ( is_nth_argument_of ( o , n , h ) ) /\\ pattern_is ( n , h , all_constructor )",
    "EX h : term_occurrence . EX o : term_occurrence . EX n : number ."
    " ( is_nth_argument_of ( o , n , h ) \\/ is_atomic h ) /\\ pattern_is ( n , h , all_only_var )",
]


def test_number_guards_on_corpus_match_oracle(corpus_pairs):
    for text in GUARD_TEXTS:
        assertion = sort_check(parse_assertion(text))
        for case, _, args in corpus_pairs:
            assert_agrees(assertion, case.goal, case.context, args)


# f x x x x x with f free: 3 distinct terms and no constant head, so the
# number domain is 0..3 while the last x fills argument slot 4.  No number
# names that slot, so a narrowed n must not range past the domain.
FREE_HEAD_CASE = """
(case "free-head"
  (goal (subgoal
    (app (app (app (app (app (free "f") (free "x")) (free "x")) (free "x")) (free "x")) (free "x"))))
  (context)
  (args "x" (on (free "x")) (arbitrary) (rule)))
"""


def test_number_guard_stays_inside_the_number_domain():
    case = parse_case_file(FREE_HEAD_CASE)
    args = case.arg_sets["x"]
    assert Evaluator(case.goal, case.context, args).max_number == 3
    assertion = sort_check(parse_assertion(
        "EX h : term_occurrence . EX o : term_occurrence . o is_an_argument_of h"
        " /\\ Not ( EX n : number . is_nth_argument_of ( o , n , h ) )"
    ))
    assert evaluate(assertion, case.goal, case.context, args)
    assert_agrees(assertion, case.goal, case.context, args)


# Rule O on the corpus goals and the shipped heuristics' shapes, and the
# same guards where they must narrow nothing.
OCCURRENCE_GUARD_TEXTS = [
    "EX h : term_occurrence . EX x : term_occurrence . x is_an_argument_of h /\\ is_free_variable x",
    "EX t : term . EX h : term_occurrence . EX x : term_occurrence IN t : term ."
    " is_recursive_constant h /\\ x is_an_argument_of h",
    "EX h : term_occurrence . EX m : number . EX x : term_occurrence ."
    " is_atomic x /\\ is_nth_argument_of ( x , m , h )",
    "EX t : term IN induction_term . EX h : term_occurrence . EX x : term_occurrence IN t : term ."
    " ( EX n : number . is_nth_argument_of ( x , n , h ) /\\ t is_nth_induction_term n )",
    "EX h : term_occurrence . EX x : term_occurrence ."
    " ( EX n : number . pattern_is ( n , h , all_constructor ) /\\ is_nth_argument_of ( x , n , h ) )"
    " /\\ is_free_variable x",
    "EX h : term_occurrence . ALL x : term_occurrence ."
    " is_free_variable x /\\ x is_in_term_occurrence h -> is_at_deepest x",
    "EX t : term . EX h : term_occurrence . EX x : term_occurrence IN t : term ."
    " x is_in_term_occurrence h /\\ Not ( is_atomic h ) /\\ is_atomic x",
    "ALL h : term_occurrence . ALL x : term_occurrence . x is_an_argument_of h -> Not ( is_lambda x )",
    # An anchor that is itself an argument heads nothing, though arguments
    # follow it under the same parent.
    "EX h : term_occurrence . EX x : term_occurrence . x is_an_argument_of h /\\ is_free_variable h",
    "EX h : term_occurrence . EX m : number . EX x : term_occurrence ."
    " is_nth_argument_of ( x , m , h ) /\\ Not ( is_constant h )",
    "EX u : term . EX x : term_occurrence . x term_occurrence_is_of_term u /\\ is_at_deepest x",
    "EX t : term . EX u : term . EX x : term_occurrence IN t : term ."
    " x term_occurrence_is_of_term u /\\ Not ( are_same_term ( t , u ) )",
    "EX t : term . EX u : term . ALL x : term_occurrence IN t : term ."
    " x term_occurrence_is_of_term u -> is_lambda x",
    # Nothing to narrow: under Not or Or, an EX over ->, an ALL without ->,
    # the roles swapped, or the guard's other variable shadowed by x.
    "EX h : term_occurrence . EX x : term_occurrence . Not ( x is_an_argument_of h ) /\\ is_atomic x",
    "EX u : term . EX x : term_occurrence . Not ( x term_occurrence_is_of_term u ) /\\ is_constant x",
    "EX h : term_occurrence . EX x : term_occurrence . ( x is_an_argument_of h \\/ is_constant x )"
    " /\\ is_constant x",
    "EX h : term_occurrence . EX x : term_occurrence . x is_an_argument_of h /\\ is_lambda x -> False",
    "EX h : term_occurrence . ALL x : term_occurrence . x is_in_term_occurrence h /\\ is_atomic x",
    "EX h : term_occurrence . EX x : term_occurrence . h is_an_argument_of x /\\ is_constant x",
    "EX h : term_occurrence . EX h : term_occurrence . h is_in_term_occurrence h /\\ is_free_variable h",
    "EX m : number . EX x : term_occurrence ."
    " ( EX y : term_occurrence . is_nth_argument_of ( x , m , y ) ) /\\ is_free_variable x",
    # Two guards that walk the term's occurrences, not the candidates, on
    # the goal below: v occurs fewer times than h has arguments, and a once
    # where (g v w) has three nodes.  The first v sits deeper than h's
    # arguments, and a comes after (g v w).
    "EX t : term . EX h : term_occurrence . EX x : term_occurrence IN t : term ."
    " x is_an_argument_of h /\\ is_free_variable x",
    "EX o : term_occurrence . Not ( is_atomic o ) /\\ ( EX t : term ."
    " ( EX y : term_occurrence IN t : term . is_free_variable y )"
    " /\\ ( ALL x : term_occurrence IN t : term . x is_in_term_occurrence o -> False ) )",
]

# h (g v w) a b c v (k x y z) u
SIDES_CASE = """
(case "sides"
  (goal (subgoal
    (app (app (app (app (app (app (app (const "h") (app (app (const "g") (free "v")) (free "w")))
      (free "a")) (free "b")) (free "c")) (free "v"))
      (app (app (app (const "k") (free "x")) (free "y")) (free "z"))) (free "u"))))
  (context (defn "h" (recursive true)))
  (args "v" (on (free "v")) (arbitrary) (rule)))
"""


def test_occurrence_guards_on_corpus_match_oracle(corpus_pairs):
    sides = parse_case_file(SIDES_CASE)
    pairs = [*corpus_pairs, (sides, "v", sides.arg_sets["v"])]
    for text in OCCURRENCE_GUARD_TEXTS:
        assertion = sort_check(parse_assertion(text))
        for case, _, args in pairs:
            assert_agrees(assertion, case.goal, case.context, args)
