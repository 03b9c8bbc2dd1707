"""Exhaustive finite-domain evaluation of checked assertions.

Quantifier domains come from the goal and the induct arguments:

  number           0 up to max(distinct subterm count, widest constant
                   application) inclusive
  rule             the rule names passed to the induct method, in order
  term             distinct subterms across all subgoals, first-seen order
  term_occurrence  every node of the first subgoal (the evaluation
                   scope), depth-first, each head before its arguments
  term IN ...      the induction or arbitrary field, in the given order
  occ IN t : term  evaluation-scope occurrences denoting the term bound
                   to t

All of these come from one index per goal (`Goal.index`), built in one
pass the first time any evaluator of the goal asks for it and shared by
every later one, so `test-all`, `extract` and repeated `evaluate` calls
index a goal once.

Inside the evaluator a node is its preorder position in the index and a
term is its id in the goal's TermTable, and the domains hand out those
ints.  Each structural atomic is a read of the index's arrays: the
subtree of o is the positions from o up to end[o], an argument shares its
head's parent and has a slot past 0, and a node is at deepest when its
depth is the scope's.  Two terms are the same when their ids are, and a
node's kind and constant name are read from the key of its term's id: an
application, a lambda, or a leaf.  Occurrence and Term values exist only
at the edges: `witnesses` turns each value it reports into one by its
variable's sort, and a direct `Evaluator.atomic` call finds each
Occurrence it is given in the index, and each Term in the goal's table,
first.  Compiled code never pays for that: only an Occurrence used as a
list index, or a Term read through `operator.index`, raises the TypeError
that sends a call to the conversion.

Atomics that would be partial (stale occurrence, missing definition, index
out of range, occurrences from different subgoals) evaluate to False rather
than failing, so every closed checked assertion has a truth value.  Two
atomics decide a stale occurrence, one that names no node of the goal, from
its path alone: `is_in_term_occurrence` holds whenever the inner path
extends the outer one in the same subgoal, and `is_at_deepest` whenever the
path is as long as the deepest one.  No domain hands out a stale
occurrence, so this never changes a verdict.

An assertion is compiled once, on its first evaluation, into closures
over a slot list: the variable bound at binder depth i lives in env[i], so
binding a value allocates nothing and a shadowing binder gets a slot of
its own.  The program is kept on the assertion object for as long as that
object lives, as the index is kept on its goal, and every evaluator runs
it.  Chains of Not fold to one negation or none, and chains of And, Or and
-> flatten into one closure each, so a long chain takes no Python stack per
link.  Each quantifier's domain is chosen while compiling: a `_Domain`
whose `values(ev, env)` lists a declared domain, t's occurrences for an
unguarded term_occurrence IN t, or a row of rule (N, O) below.  Compiled
code still calls `Evaluator.atomic` and `Evaluator.domain_values` through
the evaluator, so wrapping those two attributes on one evaluator counts
every atomic call and every domain it makes, narrowed domains included;
the occurrences and terms they pass and return are positions and ids,
never Occurrence or Term values.  A guard that the rule drops is never
called: the narrowed domain decides it through the index or
`Evaluator._argument_index`, so such counts leave it out.

One rewrite narrows quantifiers while compiling.  It is exact, because
every atomic is total and has no side effects, so neither the order nor
the number of times a subformula runs can change its value:

  (N, O) guard.  In EX x : D . C1 /\\ ... /\\ Ck, or dually in
      ALL x : D . C1 /\\ ... /\\ Ck -> C, one conjunct Ci may pin x
      relative to an occurrence h or o, a number n or a term u bound
      outside the quantifier.  One table finds the guard by its atomic
      and the argument x fills; (N) is the row for a number x, (O) the
      rows for an occurrence x, where D is term_occurrence or
      term_occurrence IN t:
        is_nth_argument_of (o, x, h)      x ranges over o's argument slot
                                          under h, if any
        x is_an_argument_of h             over h's arguments
        EX y : D' . ... /\\ is_nth_argument_of (x, n, h) /\\ ...
                                          over h's arguments, for any y, n
        x is_in_term_occurrence o         over the nodes of o's subtree
        x term_occurrence_is_of_term u    over the occurrences of u
      Then x ranges only over those candidates that are also in D, in D's
      own order, so the first satisfying value and every witness stay the
      same; a slot past the number domain is no candidate.  An atomic
      guard holds exactly on its candidates and is dropped; the EX guard
      stays, since its body says more.  With t, a subtree's candidates are
      cut out of t's sorted occurrences by bisection, and for arguments the
      shorter side is walked: the arguments, each tested for t, or t's
      occurrences, each tested against the guard, both O(1).  Only
      direct conjuncts count, never one under Not or Or, nor an EX over an
      implication; a guard whose other variable is x itself, or is
      shadowed by x, pins nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from operator import index as _int, itemgetter

from .lang import (
    AllNumbers,
    AllOccs,
    AllRules,
    AllTerms,
    And,
    Assertion,
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
    Sort,
    TermsIn,
    domain_sort,
)
from .terms import (
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
    Term,
)


def classify_clause_params(definition: Definition, n: int) -> Pattern | None:
    """How parameter n looks across a definition's clauses, or None if n
    is out of range or there are no clauses to inspect."""
    if not definition.clauses:
        return None
    arity = definition.arity or 0
    if not 0 <= n < arity:
        return None
    tags = {clause.params[n] for clause in definition.clauses}
    if len(tags) == 2:
        return Pattern.MIXED
    if tags.pop().value == "var":
        return Pattern.ALL_ONLY_VAR
    return Pattern.ALL_CONSTRUCTOR


def _kind_test(kinds):
    """An atomic that holds when the node's term is of one of kinds."""
    return lambda ev, i: ev._keys[ev.index.term_ids[i]][0] in kinds


class Evaluator:
    """Atomic semantics and quantifier domains for one (goal, context, args).

    The domains are the goal's index, shared by every evaluator of the same
    Goal object.  Inside, an occurrence is a position in the index and a
    term is its id in the goal's TermTable.  The induct arguments are
    interned into that table here: one identity lookup each for terms read
    with the goal's case, and a walk for any other, whose key joins the
    table if it is missing.  No domain changes, as the index fixed them.
    """

    def __init__(self, goal: Goal, context: Context, args: InductArgs):
        self.goal = goal
        self.context = context
        self.args = args
        self.index = index = goal.index
        self._keys = index.table.keys
        self.occurrences = range(index.starts[1])  # positions in scope
        self.terms: list[int] = index.subterms  # term ids
        self.max_depth = index.max_depth
        self.max_number = max(len(self.terms), index.widest)
        self.numbers = range(self.max_number + 1)
        self._induction_ids = [index.table.intern(t) for t in args.induction_terms]
        self._arbitrary_ids = [index.table.intern(t) for t in args.arbitrary_terms]

    def run(self, assertion: Assertion) -> bool:
        program = compile_assertion(assertion)
        return program.test(self, [None] * program.slots)

    def witnesses(self, assertion: Assertion) -> list[tuple[str, object]] | None:
        """One satisfying binding for each quantifier in the leading EX
        chain, which stops at the first node that is not an existential, or
        None when the assertion fails: one run gives both the verdict and
        the bindings, occurrences as Occurrence and terms as Term values."""
        program = compile_assertion(assertion)
        env: list = [None] * program.slots
        if not program.test(self, env):
            return None
        # A true EX leaves its first satisfying value in its slot, and the
        # chain binds slots 0, 1, 2, ... in order.
        index = self.index
        return [
            (var, index.occurrence(v) if sort is Sort.OCCURRENCE
             else index.term_of[v] if sort is Sort.TERM else v)
            for (var, sort), v in zip(program.chain, env)
        ]

    def domain_values(self, domain, env):
        """The values of a domain, occurrences as positions and terms as
        ids.  Compiled code passes a `_Domain`, which reads env, the slot
        list.  A lang domain, with bindings by name (t as a term id), is
        turned into one that lists a tuple, so no caller can change the index."""
        try:
            values = domain.values
        except AttributeError:  # a lang domain from a direct caller, t read by name
            sort = domain_sort(domain)  # a TypeError for anything else
            listed = _occs_of(domain.term_var) if isinstance(domain, OccsOf) else _DECLARED[domain]
            domain = _Domain(lambda ev, env: tuple(listed(ev, env)), None, sort, None)
            values = domain.values
        return values(self, env)

    def atomic(self, name: AtomicName, values: tuple) -> bool:
        """Whether an atomic holds, its occurrences and terms given as
        positions and ids, as compiled code gives them, or as Occurrence
        and Term values.  Each Occurrence is found in the index, and each
        Term in the goal's table, first; a Term the table lacks joins it.
        A stale occurrence makes the atomic False, but for the two atomics
        that decide it from its path."""
        try:
            test = _ATOMICS[id(name)]
        except KeyError:
            raise TypeError(f"not an atomic: {name!r}") from None
        try:
            return test(self, *values)
        except TypeError:  # an Occurrence used as a list index, or a Term as an int
            intern = self.index.table.intern
            found = [
                self.index.find(v) if isinstance(v, Occurrence)
                else intern(v) if isinstance(v, Term) else v
                for v in values
            ]
        if None not in found:
            return test(self, *found)
        if name is AtomicName.IS_AT_DEEPEST:
            return len(values[0].path) == self.max_depth
        if name is AtomicName.IS_IN_TERM_OCCURRENCE:
            inner, outer = values
            return inner.subgoal == outer.subgoal and inner.path[: len(outer.path)] == outer.path
        return False

    # The atomics, one method each, named after the atomic; an occurrence
    # is a position and a term an id, read through _int so that a Term
    # raises TypeError.

    def _constant_name(self, i: int) -> str | None:
        """The name of the constant at position i, or None for any other node."""
        key = self._keys[self.index.term_ids[i]]
        return key[1] if key[0] is Const else None

    def _is_rule_of(self, rule_name: str, i: int) -> bool:
        record = self.context.rules.get(rule_name)
        return record is not None and record.derived_from == self._constant_name(i)

    def _term_occurrence_is_of_term(self, i: int, t: int) -> bool:
        return self.index.term_ids[i] == _int(t)

    def _are_same_term(self, a: int, b: int) -> bool:
        return _int(a) == _int(b)

    def _is_in_term_occurrence(self, i: int, o: int) -> bool:
        return self.index.end[o] > i >= o

    def _is_recursive_constant(self, i: int) -> bool:
        definition = self.context.definitions.get(self._constant_name(i))
        return definition is not None and definition.is_recursive

    _is_atomic = _kind_test((Const, Free, Schematic, Bound))
    _is_constant = _kind_test((Const,))
    _is_variable = _kind_test((Free, Schematic, Bound))
    _is_free_variable = _kind_test((Free,))
    _is_bound_variable = _kind_test((Bound,))
    _is_lambda = _kind_test((Lambda,))
    _is_application = _kind_test((App,))

    def _is_an_argument_of(self, a: int, h: int) -> bool:
        return self._argument_index(a, h) is not None

    def _is_nth_argument_of(self, a: int, n: int, h: int) -> bool:
        return self._argument_index(a, h) == n

    def _is_nth_induction_term(self, t: int, n: int) -> bool:
        ids = self._induction_ids
        return 0 <= n < len(ids) and ids[n] == _int(t)

    def _is_nth_arbitrary_term(self, t: int, n: int) -> bool:
        ids = self._arbitrary_ids
        return 0 <= n < len(ids) and ids[n] == _int(t)

    def _pattern_is(self, n: int, i: int, pattern: Pattern) -> bool:
        definition = self.context.definitions.get(self._constant_name(i))
        return definition is not None and classify_clause_params(definition, n) is pattern

    def _is_at_deepest(self, i: int) -> bool:
        return self.index.depth[i] == self.max_depth

    def _argument_index(self, a: int, h: int):
        """Argument slot (0-based) a fills under h's application, or None
        when h heads no application or a sits elsewhere.  Only an
        application has a child past slot 0, so a node there with h's parent
        is an argument of h, and h, at slot 0, heads that application."""
        slot = self.index.slot
        if slot[h] or self.index.parent[a] != self.index.parent[h] or slot[a] < 1:
            return None
        return slot[a] - 1


# Evaluator.atomic's table, keyed by the id of each AtomicName member: an
# Enum member's own hash is Python code.
_ATOMICS = {id(name): getattr(Evaluator, f"_{name.value}") for name in AtomicName}


def evaluate(assertion: Assertion, goal: Goal, context: Context, args: InductArgs) -> bool:
    return Evaluator(goal, context, args).run(assertion)


def find_witnesses(
    assertion: Assertion, goal: Goal, context: Context, args: InductArgs
) -> list[tuple[str, object]]:
    """`Evaluator.witnesses` for one (goal, context, args), empty when the
    assertion fails."""
    return Evaluator(goal, context, args).witnesses(assertion) or []


# A compiled test decides one node for an evaluator and the slot list: the
# value of the variable bound at binder depth i sits in env[i].
Test = Callable[[Evaluator, list], bool]


class Program:
    """An assertion compiled to closures over a slot list."""

    def __init__(self, test: Test, slots: int, chain: tuple):
        self.test = test
        self.slots = slots  # the deepest binder nesting, so the slot list's length
        # The variables of the leading EX chain, slot i each, and the sort
        # each ranges over.
        self.chain = chain


def compile_assertion(assertion: Assertion) -> Program:
    """The assertion's program, compiled on first use and kept on the
    assertion object for as long as it lives."""
    program = vars(assertion).get("_program")
    if program is None:
        program = vars(assertion)["_program"] = _Compiler().program(assertion)
    return program


class _Compiler:
    def __init__(self) -> None:
        self.slots = 0

    def program(self, assertion: Assertion) -> Program:
        test = self.compile(assertion, {}, 0)
        chain = []
        node = assertion
        while isinstance(node, Quant) and node.kind is QuantKind.EXISTS:
            chain.append((node.var, domain_sort(node.domain)))
            node = node.body
        return Program(test, self.slots, tuple(chain))

    def compile(self, node: Assertion, scope: dict[str, int], depth: int) -> Test:
        """A test deciding node.  Chains of Not are folded and chains of And,
        Or and -> flattened, so a long chain costs one closure and no Python
        stack per link."""
        negated = False
        while isinstance(node, Not):
            negated = not negated
            node = node.body
        match node:
            case BoolLit(value):
                return _constant(value is not negated)
            case Atomic(name, args):
                test = _atomic(name, args, scope)
            case And():
                test = self._all(_operands(node, And), scope, depth, stop=False)
            case Or():
                test = self._all(_operands(node, Or), scope, depth, stop=True)
            case Imp():
                antecedents, consequent = _implication_parts(node)
                pre = self._all(antecedents, scope, depth, stop=False)
                test = _implication(pre, self.compile(consequent, scope, depth))
            case Quant():
                test = self._quant(node, scope, depth)
            case _:
                raise TypeError(f"not an assertion: {node!r}")
        return _negation(test) if negated else test

    def _all(self, nodes, scope, depth, stop: bool) -> Test:
        return _connective([self.compile(n, scope, depth) for n in nodes], stop)

    def _quant(self, node: Quant, scope: dict[str, int], depth: int) -> Test:
        slot = depth
        self.slots = max(self.slots, slot + 1)
        inner = {**scope, node.var: slot}
        found = node.kind is QuantKind.EXISTS
        # EX x . C1 /\ ... /\ Ck  and  ALL x . C1 /\ ... /\ Ck -> C
        if found:
            conjuncts, consequent = _operands(node.body, And), None
        else:
            conjuncts, consequent = _implication_parts(node.body)
        term = scope[node.domain.term_var] if isinstance(node.domain, OccsOf) else None
        where, domain = _domain(node, slot, term, conjuncts, inner)
        if where is not None:
            conjuncts = conjuncts[:where] + conjuncts[where + 1:]
        each = self._all(conjuncts, inner, depth + 1, stop=False)
        if consequent is not None:
            then = self.compile(consequent, inner, depth + 1)
            each = _implication(each, then) if conjuncts else then
        return _scan(found, domain, slot, each)


def _operands(node: Assertion, op: type) -> list[Assertion]:
    """The operands of a chain of one binary connective, left to right."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, op):
            stack += (node.rhs, node.lhs)
        else:
            out.append(node)
    return out


def _implication_parts(node: Assertion) -> tuple[list[Assertion], Assertion]:
    """A1 -> ... -> An -> C, each Ai split at /\\, as ([conjuncts], C)."""
    antecedents: list[Assertion] = []
    while isinstance(node, Imp):
        antecedents += _operands(node.lhs, And)
        node = node.rhs
    return antecedents, node


class _Domain:
    """A quantifier's domain, chosen while compiling: `values(ev, env)` lists
    it; `var`, `sort` and `pos` are the quantifier's, var and pos None for
    a lang domain passed to `Evaluator.domain_values`."""

    __slots__ = ("values", "var", "sort", "pos")

    def __init__(self, values: Callable[[Evaluator, list], object], var, sort: Sort, pos):
        self.values, self.var, self.sort, self.pos = values, var, sort, pos


_DECLARED = {  # the values of each declared domain but term_occurrence IN t
    AllNumbers(): lambda ev, env: ev.numbers,
    AllRules(): lambda ev, env: ev.args.rules,
    AllTerms(): lambda ev, env: ev.terms,
    AllOccs(): lambda ev, env: ev.occurrences,
    TermsIn(Modifier.INDUCTION): lambda ev, env: ev._induction_ids,
    TermsIn(Modifier.ARBITRARY): lambda ev, env: ev._arbitrary_ids,
}


def _occs_of(term):
    """term_occurrence IN t, with t in env[term]: t's occurrences in scope."""
    return lambda ev, env: ev.index.occs_of.get(env[term], ())


# The rows of rule (N, O) make x's narrowed domain from term (t's slot or
# None) and the guard's other arguments' slots; t's occurrences are sorted.
def _slot(term, o, h):
    """A number x over o's argument slot under h, if any."""
    def values(ev, env):
        n = ev._argument_index(env[o], env[h])
        return () if n is None or n > ev.max_number else (n,)
    return values


def _of_term(term, u):
    """x over the occurrences of u, if u is t."""
    return lambda ev, env: (
        ev.index.occs_of.get(env[u], ()) if term is None or env[term] == env[u] else ())


def _subtree(term, o):
    """x over the nodes of o's subtree: the positions from o up to end[o]."""
    def values(ev, env):
        a = env[o]
        if term is None:
            return range(a, ev.index.end[a])
        pool = ev.index.occs_of.get(env[term], ())
        return pool[bisect_left(pool, a):bisect_left(pool, ev.index.end[a])]
    return values


def _arguments(term, h):
    """x over h's arguments, walking them or t's occurrences, if fewer."""
    def values(ev, env):
        index, a = ev.index, env[h]
        if index.slot[a]:  # the anchor is a root or an argument
            return ()
        end, parent = index.end, index.parent
        p = parent[a]  # an application, or a lambda that a is the body of
        pool = ev.occurrences if term is None else index.occs_of.get(env[term], ())
        found, s = [], end[a]  # s: the first argument
        while s < end[p] and len(found) <= len(pool):  # at most one more than the pool
            found.append(s)
            s = end[s]
        if len(found) > len(pool):
            return [o for o in pool if a < o < end[p] and parent[o] == p]
        return found if term is None else [i for i in found if index.term_ids[i] == env[term]]
    return values


_GUARDS = {  # by a guard atomic and the argument x fills in it
    (AtomicName.IS_NTH_ARGUMENT_OF, 1): _slot,
    (AtomicName.IS_AN_ARGUMENT_OF, 0): _arguments,
    (AtomicName.IS_IN_TERM_OCCURRENCE, 0): _subtree,
    (AtomicName.TERM_OCCURRENCE_IS_OF_TERM, 0): _of_term,
}


def _domain(
    node: Quant, slot: int, term: int | None, conjuncts: list[Assertion], scope: dict[str, int]
) -> tuple[int | None, _Domain]:
    """Rule (N, O) for the quantifier node binding slot, with term the slot
    of t in term_occurrence IN t: where in conjuncts the guard to drop
    stands (None if none), and the domain to scan."""
    declared, quant = node.domain, (node.var, domain_sort(node.domain), node.pos)
    number = isinstance(declared, AllNumbers)
    if number or term is not None or isinstance(declared, AllOccs):
        for i, c in enumerate(conjuncts):
            if isinstance(c, Atomic):
                slots = [scope.get(v) for v in c.args]
                if slots.count(slot) == 1:
                    row = _GUARDS.get((c.name, slots.index(slot)))
                    if row is not None and (row is _slot) is number:
                        return i, _Domain(row(term, *(s for s in slots if s != slot)), *quant)
            elif isinstance(c, Quant) and c.kind is QuantKind.EXISTS and not number:
                # EX n . ... /\ is_nth_argument_of (x, n, h) /\ ... holds only
                # where x is an argument of h, whatever n is; the conjunct stays.
                inner = {**scope, c.var: slot + 1}
                for a in _operands(c.body, And):
                    if isinstance(a, Atomic) and a.name is AtomicName.IS_NTH_ARGUMENT_OF:
                        arg, _, head = (inner[v] for v in a.args)
                        if arg == slot and head < slot:
                            return None, _Domain(_arguments(term, head), *quant)
    return None, _Domain(_DECLARED[declared] if term is None else _occs_of(term), *quant)


def _constant(value: bool) -> Test:
    return lambda ev, env: value


def _negation(test: Test) -> Test:
    return lambda ev, env: not test(ev, env)


def _connective(tests: list[Test], stop: bool) -> Test:
    """tests joined by /\\ (stop False) or \\/ (stop True), left to right:
    the first test that gives stop decides, and no test at all gives
    `not stop`."""
    if not tests:
        return _constant(not stop)
    if len(tests) == 1:
        return tests[0]

    def connective(ev, env):
        for test in tests:
            if bool(test(ev, env)) is stop:
                return stop
        return not stop

    return connective


def _implication(pre: Test, then: Test) -> Test:
    return lambda ev, env: not pre(ev, env) or then(ev, env)


def _atomic(name: AtomicName, args: tuple, scope: dict[str, int]) -> Test:
    """A call of Evaluator.atomic through the instance, so that a wrapped
    atomic sees every call."""
    spec = [(scope[a], None) if isinstance(a, str) else (None, a) for a in args]
    slots = [slot for slot, _ in spec if slot is not None]
    if len(slots) == 1 == len(spec):
        (only,) = slots

        def atomic(ev, env):
            return ev.atomic(name, (env[only],))

    elif len(slots) == len(spec):
        values = itemgetter(*slots)  # a tuple of two or more

        def atomic(ev, env):
            return ev.atomic(name, values(env))

    else:

        def atomic(ev, env):
            return ev.atomic(name, tuple([v if s is None else env[s] for s, v in spec]))

    return atomic


def _scan(found: bool, domain, slot: int, each: Test) -> Test:
    """EX (found is True) or ALL (found is False) over a `_Domain`, listed
    for the slot list through the instance's `domain_values`, so that one
    wrapped there sees it: each decides the body with the value in the
    slot, and an empty domain gives `not found`."""

    def scan(ev, env):
        for value in ev.domain_values(domain, env):
            env[slot] = value
            if bool(each(ev, env)) is found:
                return found
        return not found

    return scan
