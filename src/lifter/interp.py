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
"""

from __future__ import annotations

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
    Goal object.  Terms compare by interned id: argument terms that do not
    occur in the goal get ids from this evaluator's own table.
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
        return self.index.term_id(term, self._extra)

    def _term_id(self, term: Term) -> int:
        tid = self._arg_ids.get(id(term))
        return self._intern(term) if tid is None else tid

    def _node(self, occ: Occurrence) -> Term | None:
        i = self.index.positions.get(occ)
        return None if i is None else self.index.term_of[self.index.term_ids[i]]

    def run(self, assertion: Assertion) -> bool:
        return self._eval(assertion, {})

    def _eval(self, node: Assertion, env: dict) -> bool:
        match node:
            case BoolLit(value):
                return value
            case Not(body):
                return not self._eval(body, env)
            case And(lhs, rhs):
                return self._eval(lhs, env) and self._eval(rhs, env)
            case Or(lhs, rhs):
                return self._eval(lhs, env) or self._eval(rhs, env)
            case Imp(lhs, rhs):
                return not self._eval(lhs, env) or self._eval(rhs, env)
            case Quant(kind, var, domain, body):
                values = self.domain_values(domain, env)
                if kind is QuantKind.EXISTS:
                    return any(self._eval(body, {**env, var: v}) for v in values)
                return all(self._eval(body, {**env, var: v}) for v in values)
            case Atomic(name, args):
                return self.atomic(name, tuple(env[a] if isinstance(a, str) else a for a in args))
        raise TypeError(f"not an assertion: {node!r}")

    def domain_values(self, domain, env: dict):
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
    """One satisfying binding for each quantifier in the leading EX chain.

    Stops at the first node that is not an existential, or at an
    existential with no satisfying value.
    """
    evaluator = Evaluator(goal, context, args)
    witnesses: list[tuple[str, object]] = []
    env: dict = {}
    node = assertion
    while isinstance(node, Quant) and node.kind is QuantKind.EXISTS:
        for value in evaluator.domain_values(node.domain, env):
            candidate = {**env, node.var: value}
            if evaluator._eval(node.body, candidate):
                witnesses.append((node.var, value))
                env = candidate
                node = node.body
                break
        else:
            break
    return witnesses
