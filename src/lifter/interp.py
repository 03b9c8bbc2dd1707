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
index a goal once.  Terms compare by interned id, never by walking them,
and a node's kind is the type of the interned term it denotes: an
application, a lambda, or a leaf.

Atomics that would be partial (stale occurrence, missing definition, index
out of range, occurrences from different subgoals) evaluate to False rather
than failing, so every closed checked assertion has a truth value.  Two
atomics decide from the path alone and never look the node up:
`is_in_term_occurrence` holds whenever the inner path extends the outer one
in the same subgoal, and `is_at_deepest` whenever the path is as long as
the deepest one, even if the goal has no node there.  No domain hands out
such a stale occurrence, so this never changes a verdict.

An assertion is compiled once, on its first evaluation, into closures
over a slot list: the variable bound at binder depth i lives in env[i], so
binding a value allocates nothing and a shadowing binder gets a slot of
its own.  The program is kept on the assertion object for as long as that
object lives, as the index is kept on its goal, and every evaluator runs
it.  Chains of Not fold to one negation or none, and chains of And, Or and
-> flatten into one closure each, so a long chain takes no Python stack per
link.  Compiled code still calls `Evaluator.atomic` and
`Evaluator.domain_values` through the evaluator, so wrapping those two
attributes on one evaluator counts every atomic call and domain it makes,
with one exception: the guard of rule (N) below is decided by
`Evaluator._argument_index` directly, never by a call of `atomic`, so such
counts leave narrowed guards out.

Two rewrites narrow quantifiers while compiling.  Both are exact, because
every atomic is total and has no side effects, so neither the order nor
the number of times a subformula runs can change its value:

  (N) number guard.  In EX n : number . C1 /\\ ... /\\ Ck, where one
      conjunct Ci is is_nth_argument_of (o, n, h) with o and h bound
      outside the quantifier, Ci holds for at most one number: o's
      argument slot k under h.  The body is tested once with n = k, and
      the quantifier is False when o is no argument of h or k lies past
      the number domain.  Dually, ALL n : number . C1 /\\ ... /\\ Ck -> C
      tests the implication at n = k only, since Ci is false at every
      other number, and holds when there is no such k.  A guard under Not
      or Or pins nothing, so only direct conjuncts count.
  (H) hoisting.  EX x : D . A /\\ B  is  A /\\ EX x : D . B, and
      ALL x : D . (A /\\ B) -> C  is  A -> ALL x : D . (B -> C), whenever x
      is not free in A, wherever A stands among the conjuncts.  Such an A
      runs once per entry to the quantifier, not once per value, and only
      once D is known to be non-empty.  ALL x : D . (A /\\ B) is left
      alone: it holds on an empty D while A may be false.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

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
    TermsIn,
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


class Evaluator:
    """Atomic semantics and quantifier domains for one (goal, context, args).

    The domains are the goal's index, shared by every evaluator of the same
    Goal object.  Terms compare by their ids in the goal's TermTable.
    Argument terms read with the goal's case are in that table already, so
    each takes one identity lookup; any other term the table lacks gets an
    id from this evaluator's own table.
    """

    def __init__(self, goal: Goal, context: Context, args: InductArgs):
        self.goal = goal
        self.context = context
        self.args = args
        self.index = goal.index
        self.occurrences: list[Occurrence] = self.index.scope
        self.terms: list[Term] = self.index.subterms
        self.max_depth = self.index.max_depth
        self.max_number = max(len(self.terms), self.index.widest)
        self.numbers = range(self.max_number + 1)
        self._extra: dict[tuple, int] = {}
        self._induction_ids = [self._intern(t) for t in args.induction_terms]
        self._arbitrary_ids = [self._intern(t) for t in args.arbitrary_terms]
        # The argument terms themselves, by identity, as the TermsIn domains
        # hand them out.
        self._arg_ids = {
            id(t): tid
            for t, tid in zip(
                args.induction_terms + args.arbitrary_terms,
                self._induction_ids + self._arbitrary_ids,
            )
        }

    def _intern(self, term: Term) -> int:
        return self.index.table.intern(term, self._extra)

    def _term_id(self, term: Term) -> int:
        tid = self._arg_ids.get(id(term))
        return self._intern(term) if tid is None else tid

    def _node(self, occ: Occurrence) -> Term | None:
        i = self.index.positions.get(occ)
        return None if i is None else self.index.term_of[self.index.term_ids[i]]

    def run(self, assertion: Assertion) -> bool:
        program = compile_assertion(assertion)
        return program.test(self, [None] * program.slots)

    def witnesses(self, assertion: Assertion) -> list[tuple[str, object]]:
        """One satisfying binding for each quantifier in the leading EX chain.

        Stops at the first node that is not an existential, or at an
        existential with no satisfying value.
        """
        program = compile_assertion(assertion)
        env: list = [None] * program.slots
        if not program.chain or not program.test(self, env):
            return []
        # A true EX leaves its first satisfying value in its slot, and the
        # chain binds slots 0, 1, 2, ... in order.
        return [(var, env[slot]) for slot, var in enumerate(program.chain)]

    def domain_values(self, domain, env: Mapping[str, object]):
        match domain:
            case AllNumbers():
                return self.numbers
            case AllRules():
                return self.args.rules
            case AllTerms():
                return self.terms
            case AllOccs():
                return self.occurrences
            case TermsIn(modifier):
                if modifier is Modifier.INDUCTION:
                    return self.args.induction_terms
                return self.args.arbitrary_terms
            case OccsOf(term_var):
                return self.index.occs_of.get(self._term_id(env[term_var]), [])
        raise TypeError(f"not a domain: {domain!r}")

    def atomic(self, name: AtomicName, values: tuple) -> bool:
        match name:
            case AtomicName.IS_RULE_OF:
                rule_name, occ = values
                node = self._node(occ)
                record = self.context.rules.get(rule_name)
                return (
                    record is not None
                    and isinstance(node, Const)
                    and record.derived_from == node.name
                )
            case AtomicName.TERM_OCCURRENCE_IS_OF_TERM:
                occ, term = values
                i = self.index.positions.get(occ)
                return i is not None and self.index.term_ids[i] == self._term_id(term)
            case AtomicName.ARE_SAME_TERM:
                return self._term_id(values[0]) == self._term_id(values[1])
            case AtomicName.IS_IN_TERM_OCCURRENCE:
                inner, outer = values
                return (
                    inner.subgoal == outer.subgoal
                    and inner.path[: len(outer.path)] == outer.path
                )
            case AtomicName.IS_ATOMIC:
                node = self._node(values[0])
                return node is not None and not isinstance(node, (App, Lambda))
            case AtomicName.IS_CONSTANT:
                return isinstance(self._node(values[0]), Const)
            case AtomicName.IS_RECURSIVE_CONSTANT:
                node = self._node(values[0])
                if not isinstance(node, Const):
                    return False
                definition = self.context.definitions.get(node.name)
                return definition is not None and definition.is_recursive
            case AtomicName.IS_VARIABLE:
                return isinstance(self._node(values[0]), (Free, Schematic, Bound))
            case AtomicName.IS_FREE_VARIABLE:
                return isinstance(self._node(values[0]), Free)
            case AtomicName.IS_BOUND_VARIABLE:
                return isinstance(self._node(values[0]), Bound)
            case AtomicName.IS_LAMBDA:
                return isinstance(self._node(values[0]), Lambda)
            case AtomicName.IS_APPLICATION:
                return isinstance(self._node(values[0]), App)
            case AtomicName.IS_AN_ARGUMENT_OF:
                return self._argument_index(values[0], values[1]) is not None
            case AtomicName.IS_NTH_ARGUMENT_OF:
                arg_occ, n, head_occ = values
                return self._argument_index(arg_occ, head_occ) == n
            case AtomicName.IS_NTH_INDUCTION_TERM:
                term, n = values
                ids = self._induction_ids
                return n < len(ids) and ids[n] == self._term_id(term)
            case AtomicName.IS_NTH_ARBITRARY_TERM:
                term, n = values
                ids = self._arbitrary_ids
                return n < len(ids) and ids[n] == self._term_id(term)
            case AtomicName.PATTERN_IS:
                n, occ, pattern = values
                node = self._node(occ)
                if not isinstance(node, Const):
                    return False
                definition = self.context.definitions.get(node.name)
                if definition is None:
                    return False
                return classify_clause_params(definition, n) is pattern
            case AtomicName.IS_AT_DEEPEST:
                return len(values[0].path) == self.max_depth
        raise TypeError(f"not an atomic: {name!r}")

    def _argument_index(self, arg_occ: Occurrence, head_occ: Occurrence) -> int | None:
        """Argument slot (0-based) arg_occ fills under head_occ's application,
        or None when head_occ heads no application or arg_occ sits elsewhere."""
        if arg_occ.subgoal != head_occ.subgoal:
            return None
        if not head_occ.path or head_occ.path[-1] != 0:
            return None
        if len(arg_occ.path) != len(head_occ.path) or arg_occ.path[:-1] != head_occ.path[:-1]:
            return None
        # Only an application has a child past slot 0, so an existing
        # occurrence there is one of its arguments.
        slot = arg_occ.path[-1]
        if slot < 1 or arg_occ not in self.index.positions:
            return None
        return slot - 1


def evaluate(assertion: Assertion, goal: Goal, context: Context, args: InductArgs) -> bool:
    return Evaluator(goal, context, args).run(assertion)


def find_witnesses(
    assertion: Assertion, goal: Goal, context: Context, args: InductArgs
) -> list[tuple[str, object]]:
    """`Evaluator.witnesses` for one (goal, context, args)."""
    return Evaluator(goal, context, args).witnesses(assertion)


# A compiled test decides one node for an evaluator and the slot list: the
# value of the variable bound at binder depth i sits in env[i].
Test = Callable[[Evaluator, list], bool]


class Program:
    """An assertion compiled to closures over a slot list."""

    def __init__(self, test: Test, slots: int, chain: tuple[str, ...]):
        self.test = test
        self.slots = slots  # the deepest binder nesting, so the slot list's length
        self.chain = chain  # variables of the leading EX chain, slot i each


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
        test, _ = self.compile(assertion, {}, 0)
        chain = []
        node = assertion
        while isinstance(node, Quant) and node.kind is QuantKind.EXISTS:
            chain.append(node.var)
            node = node.body
        return Program(test, self.slots, tuple(chain))

    def compile(
        self, node: Assertion, scope: dict[str, int], depth: int
    ) -> tuple[Test, frozenset[int]]:
        """A test deciding node, and the slots it reads.  Chains of Not are
        folded and chains of And, Or and -> flattened, so a long chain costs
        one closure and no Python stack per link."""
        negated = False
        while isinstance(node, Not):
            negated = not negated
            node = node.body
        match node:
            case BoolLit(value):
                return _constant(value is not negated), frozenset()
            case Atomic(name, args):
                test, reads = _atomic(name, args, scope)
            case And():
                test, reads = self._all(_operands(node, And), scope, depth, stop=False)
            case Or():
                test, reads = self._all(_operands(node, Or), scope, depth, stop=True)
            case Imp():
                antecedents, consequent = _implication_parts(node)
                pre, reads = self._all(antecedents, scope, depth, stop=False)
                then, then_reads = self.compile(consequent, scope, depth)
                test, reads = _implication(pre, then), reads | then_reads
            case Quant():
                test, reads = self._quant(node, scope, depth)
            case _:
                raise TypeError(f"not an assertion: {node!r}")
        return (_negation(test) if negated else test), reads

    def _all(self, nodes, scope, depth, stop: bool) -> tuple[Test, frozenset[int]]:
        compiled = [self.compile(n, scope, depth) for n in nodes]
        reads = frozenset().union(*(r for _, r in compiled))
        return _connective([t for t, _ in compiled], stop), reads

    def _quant(self, node: Quant, scope: dict[str, int], depth: int):
        slot = depth
        self.slots = max(self.slots, slot + 1)
        inner = {**scope, node.var: slot}
        found = node.kind is QuantKind.EXISTS
        # EX x . C1 /\ ... /\ Ck  and  ALL x . C1 /\ ... /\ Ck -> C
        if found:
            conjuncts, consequent = _operands(node.body, And), None
        else:
            conjuncts, consequent = _implication_parts(node.body)
        guard = _number_guard(node, conjuncts, inner)
        if guard is not None:
            arg, _, head = (inner[v] for v in conjuncts[guard].args)
            conjuncts = conjuncts[:guard] + conjuncts[guard + 1:]
        compiled = [self.compile(c, inner, depth + 1) for c in conjuncts]
        reads = frozenset().union(*(r for _, r in compiled))
        hoisted = [t for t, r in compiled if slot not in r]
        kept = [t for t, r in compiled if slot in r]
        if consequent is None:
            each = _connective(kept, False) if kept else None
        else:
            then, then_reads = self.compile(consequent, inner, depth + 1)
            each = _implication(_connective(kept, False), then) if kept else then
            reads |= then_reads
        pre = _connective(hoisted, False) if hoisted else None
        reads -= {slot}
        if guard is not None:
            return _narrowed(found, slot, arg, head, pre, each), reads | {arg, head}
        term_slot = None
        if isinstance(node.domain, OccsOf):
            term_slot = scope[node.domain.term_var]
            reads |= {term_slot}
        return _scan(found, node.domain, term_slot, slot, pre, each), reads


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


def _number_guard(node: Quant, conjuncts: list[Assertion], scope: dict[str, int]) -> int | None:
    """Where in conjuncts an `is_nth_argument_of (o, n, h)` pins the number n
    that node binds, with o and h bound outside it; None if none does."""
    if not isinstance(node.domain, AllNumbers):
        return None
    slot = scope[node.var]
    for i, c in enumerate(conjuncts):
        if isinstance(c, Atomic) and c.name is AtomicName.IS_NTH_ARGUMENT_OF:
            arg, n, head = (scope.get(v) for v in c.args)
            if n == slot and slot not in (arg, head):
                return i
    return None


def _constant(value: bool) -> Test:
    return lambda ev, env: value


def _negation(test: Test) -> Test:
    return lambda ev, env: not test(ev, env)


def _connective(tests: list[Test], stop: bool) -> Test:
    """tests joined by /\\ (stop False) or \\/ (stop True), left to right:
    the first test that gives stop decides."""
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


def _atomic(name: AtomicName, args: tuple, scope: dict[str, int]) -> tuple[Test, frozenset[int]]:
    """A call of Evaluator.atomic through the instance, so that a wrapped
    atomic sees every call."""
    spec = [(scope[a], None) if isinstance(a, str) else (None, a) for a in args]

    def atomic(ev, env):
        return ev.atomic(name, tuple(value if slot is None else env[slot] for slot, value in spec))

    return atomic, frozenset(slot for slot, _ in spec if slot is not None)


def _scan(
    found: bool, domain, term_slot: int | None, slot: int, pre: Test | None, each: Test | None
) -> Test:
    """EX (found is True) or ALL (found is False) over a domain.

    pre, if any, is the hoisted part, which does not read the slot; each,
    if any, is the rest, read for every value.  An empty domain or a false
    hoisted part gives `not found` before anything else runs.
    """

    def scan(ev, env):
        bindings = {} if term_slot is None else {domain.term_var: env[term_slot]}
        values = ev.domain_values(domain, bindings)
        if not values or (pre is not None and not pre(ev, env)):
            return not found
        if each is None:  # EX whose whole body was hoisted
            env[slot] = values[0]
            return True
        for value in values:
            env[slot] = value
            if bool(each(ev, env)) is found:
                return found
        return not found

    return scan


def _narrowed(
    found: bool, slot: int, arg: int, head: int, pre: Test | None, each: Test | None
) -> Test:
    """EX or ALL n : number under an is_nth_argument_of (o, n, h) guard:
    the only number the guard admits is o's argument slot under h.  The slot
    comes from Evaluator._argument_index, so a wrapped atomic does not see
    the guard."""

    def narrowed(ev, env):
        n = ev._argument_index(env[arg], env[head])
        if n is None or n > ev.max_number or (pre is not None and not pre(ev, env)):
            return not found
        env[slot] = n
        return True if each is None else each(ev, env)

    return narrowed
