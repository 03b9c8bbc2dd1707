"""Shared test machinery: generators, AST transforms, and views of a goal
and a case that only tests need.

The assertion generator produces closed, well-sorted ASTs so they both
round-trip through the renderer and evaluate without sort errors.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

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
)
from lifter.ingest import CorpusCase, render_term_sexp
from lifter.sexp import quote_string
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
    Term,
)

def term_at(goal: Goal, occurrence: Occurrence) -> Term:
    """The term an occurrence denotes, read from the goal's index."""
    index = goal.index
    i = index.find(occurrence)
    if i is None:
        raise IndexError(f"no node at path {occurrence.path} in subgoal {occurrence.subgoal}")
    return index.term_of[index.term_ids[i]]


def depth_of(occurrence: Occurrence) -> int:
    return len(occurrence.path)


def render_case_file(case: CorpusCase) -> str:
    lines: list[str] = [f"(case {quote_string(case.case_id)}"]
    lines.append("  (goal")
    for sub in case.goal.subgoals:
        lines.append(f"    (subgoal {render_term_sexp(sub)})")
    lines[-1] += ")"
    lines.append("  (context")
    for defn in case.context.definitions.values():
        rec = "true" if defn.is_recursive else "false"
        entry = f"    (defn {quote_string(defn.constant_name)} (recursive {rec})"
        if defn.clauses:
            clauses = " ".join(
                "(clause " + " ".join(p.value for p in clause.params) + ")"
                for clause in defn.clauses
            )
            entry += f" (clauses {clauses})"
        lines.append(entry + ")")
    for rule in case.context.rules.values():
        lines.append(
            f"    (rule {quote_string(rule.rule_name)}"
            f" (derived-from {quote_string(rule.derived_from)}))"
        )
    lines[-1] += ")"
    for args_id, args in case.arg_sets.items():
        on = "".join(" " + render_term_sexp(t) for t in args.induction_terms)
        arb = "".join(" " + render_term_sexp(t) for t in args.arbitrary_terms)
        rules = "".join(" " + quote_string(r) for r in args.rules)
        lines.append(f"  (args {quote_string(args_id)}")
        lines.append(f"    (on{on})")
        lines.append(f"    (arbitrary{arb})")
        lines.append(f"    (rule{rules}))")
    lines[-1] += ")"
    return "\n".join(lines) + "\n"


_NAMES = ["x0", "x1", "x2", "y0", "y1", "z0"]


def random_domain(rng: random.Random, env: dict[str, Sort]):
    term_vars = [v for v, s in env.items() if s is Sort.TERM]
    choices = [
        AllNumbers(),
        AllRules(),
        AllTerms(),
        AllOccs(),
        TermsIn(Modifier.INDUCTION),
        TermsIn(Modifier.ARBITRARY),
    ]
    if term_vars:
        choices.append(OccsOf(rng.choice(term_vars)))
    return rng.choice(choices)


def _random_atomic(rng: random.Random, env: dict[str, Sort]):
    by_sort: dict[Sort, list[str]] = {s: [] for s in Sort}
    for var, sort in env.items():
        by_sort[sort].append(var)
    candidates = [
        name
        for name, sig in SIGNATURES.items()
        if all(slot is Pattern or by_sort[slot] for slot in sig)
    ]
    if not candidates:
        return BoolLit(rng.random() < 0.5)
    name = rng.choice(candidates)
    args = tuple(
        rng.choice(list(Pattern)) if slot is Pattern else rng.choice(by_sort[slot])
        for slot in SIGNATURES[name]
    )
    return Atomic(name, args)


def random_assertion(rng: random.Random, env: dict[str, Sort] | None = None, depth: int = 0):
    """A closed, well-sorted assertion; size shrinks as depth grows."""
    env = {} if env is None else env
    if depth >= 5 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return BoolLit(rng.random() < 0.5)
        return _random_atomic(rng, env)
    roll = rng.random()
    if roll < 0.15:
        return Not(random_assertion(rng, env, depth + 1))
    if roll < 0.45:
        shape = rng.choice([And, Or, Imp])
        return shape(
            random_assertion(rng, env, depth + 1),
            random_assertion(rng, env, depth + 1),
        )
    kind = rng.choice([QuantKind.EXISTS, QuantKind.FORALL])
    var = rng.choice(_NAMES)
    domain = random_domain(rng, env)
    body = random_assertion(rng, {**env, var: domain_sort(domain)}, depth + 1)
    return Quant(kind, var, domain, body)


def random_closed_quant(rng: random.Random) -> Quant:
    kind = rng.choice([QuantKind.EXISTS, QuantKind.FORALL])
    var = rng.choice(_NAMES)
    domain = random_domain(rng, {})
    body = random_assertion(rng, {var: domain_sort(domain)}, depth=2)
    return Quant(kind, var, domain, body)


@st.composite
def terms_strategy(draw, binders: int = 0, depth: int = 0):
    """Well-formed terms: every de Bruijn index stays under its binders."""
    names = st.text("abcdefg'_", min_size=1, max_size=3)
    options = ["const", "free", "schematic"]
    if binders:
        options.append("bound")
    if depth < 4:
        options += ["lambda", "app", "app"]
    kind = draw(st.sampled_from(options))
    if kind == "const":
        return Const(draw(names))
    if kind == "free":
        return Free(draw(names))
    if kind == "schematic":
        return Schematic(draw(names))
    if kind == "bound":
        return Bound(draw(st.integers(0, binders - 1)))
    if kind == "lambda":
        return Lambda(draw(names), draw(terms_strategy(binders + 1, depth + 1)))
    return App(
        draw(terms_strategy(binders, depth + 1)),
        draw(terms_strategy(binders, depth + 1)),
    )


def desugar_occurrence_quants(node):
    """Rewrite `Q x : term_occurrence IN t : term . B` into the unrestricted
    quantifier guarded by term_occurrence_is_of_term."""
    match node:
        case Quant(kind, var, OccsOf(term_var), body):
            guard = Atomic(AtomicName.TERM_OCCURRENCE_IS_OF_TERM, (var, term_var))
            inner = desugar_occurrence_quants(body)
            if kind is QuantKind.EXISTS:
                return Quant(kind, var, AllOccs(), And(guard, inner))
            return Quant(kind, var, AllOccs(), Imp(guard, inner))
        case Quant(kind, var, domain, body):
            return Quant(kind, var, domain, desugar_occurrence_quants(body))
        case Not(body):
            return Not(desugar_occurrence_quants(body))
        case And(lhs, rhs):
            return And(desugar_occurrence_quants(lhs), desugar_occurrence_quants(rhs))
        case Or(lhs, rhs):
            return Or(desugar_occurrence_quants(lhs), desugar_occurrence_quants(rhs))
        case Imp(lhs, rhs):
            return Imp(desugar_occurrence_quants(lhs), desugar_occurrence_quants(rhs))
        case _:
            return node


def deep_case_text(depth: int) -> str:
    """A case whose one subgoal is `f (f (... (f x)))`, `depth` applications
    deep, inducting on x, written as text."""
    term = '(app (const "f") ' * depth + '(free "x")' + ")" * depth
    return (
        '(case "deep"\n'
        f"  (goal (subgoal {term}))\n"
        '  (context (defn "f" (recursive true)) (rule "f.induct" (derived-from "f")))\n'
        '  (args "x" (on (free "x")) (arbitrary) (rule "f.induct")))\n'
    )


def _apply_text(head: str, *args: str) -> str:
    for arg in args:
        head = f"(app {head} {arg})"
    return head


def spine_case_text(levels: int) -> str:
    """A case whose one subgoal is `f x0 (f x1 (... (f x9 z))) = g z` at
    10 levels, with f recursive, and an argument set "const" inducting on
    the constant f: h3 checks every occurrence of f for f as an argument."""
    term = '(free "z")'
    for i in reversed(range(levels)):
        term = _apply_text('(const "f")', f'(free "x{i}")', term)
    goal = _apply_text('(const "=")', term, _apply_text('(const "g")', '(free "z")'))
    return (
        f'(case "spine"\n  (goal (subgoal {goal}))\n'
        '  (context (defn "f" (recursive true) (clauses (clause constructor var)))\n'
        '    (defn "g" (recursive false)))\n'
        '  (args "const" (on (const "f")) (arbitrary) (rule)))\n'
    )


def map_chain_case_text(levels: int) -> str:
    """A case whose one subgoal is `map g (map g (... (map g zs)))` with
    g = %y. f y x, and an argument set "fun" inducting on g with the rule
    map.induct: h7 looks inside g, free x and all, under every map."""
    body = _apply_text('(const "f")', "(bound 0)", '(free "x")')
    fun = f'(abs "y" {body})'
    term = '(free "zs")'
    for _ in range(levels):
        term = _apply_text('(const "map")', fun, term)
    return (
        f'(case "maps"\n  (goal (subgoal {term}))\n'
        '  (context (defn "map" (recursive true) (clauses (clause var constructor)))\n'
        '    (defn "f" (recursive false)) (rule "map.induct" (derived-from "map")))\n'
        f'  (args "fun" (on {fun}) (arbitrary) (rule "map.induct")))\n'
    )


@st.composite
def case_texts(draw) -> str:
    """The rendered text of a random case: quoted names may hold any
    character, so strings carry escapes and newlines."""
    name = st.text(min_size=1, max_size=6)
    terms = st.lists(terms_strategy(), max_size=2)
    const = draw(name)
    clause = ClausePattern((ParamPattern.VAR, ParamPattern.CONSTRUCTOR))
    context = Context(
        {const: Definition(const, draw(st.booleans()), draw(st.sampled_from([(), (clause,)])))},
        {"r": RuleRecord("r", const)},
    )
    args = InductArgs(tuple(draw(terms)), tuple(draw(terms)), draw(st.sampled_from([(), ("r",)])))
    goal = Goal(tuple(draw(st.lists(terms_strategy(), min_size=1, max_size=3))))
    return render_case_file(CorpusCase(draw(name), goal, context, {draw(name): args}))


INSERTS = ["(", ")", '"', "\\", ";", "\r\n", "\x1c", "\u3000"]


@st.composite
def mutated_case_texts(draw) -> str:
    """A rendered case, cut short or with a few delimiters, escapes,
    comment starts, line ends or unusual blanks inserted."""
    text = draw(case_texts())
    if draw(st.booleans()):
        return text[: draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(INSERTS)) + text[at:]
    return text
