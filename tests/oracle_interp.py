"""Reference interpreter: the evaluator lifter shipped before the goal index.

It rebuilds every domain per evaluator from three walks over the goal,
each unflattening every node, and compares terms structurally.  It is
slow and recurses on deep terms, and it is kept only as the oracle the
differential tests compare `lifter.interp` and the `lifter.terms` views
against.  Do not optimise it.

It also holds the flattened node tree (`Atom`, `AppNode`, `LambdaNode`,
`flatten`, `unflatten`, `node_children`) that lifter built beside its index
before the interpreter read node kinds from interned terms.  The term tests
use it as a recursive oracle for occurrence counts and depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from lifter.interp import classify_clause_params
from lifter.lang import (
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
    Quant,
    QuantKind,
    TermsIn,
)
from lifter.terms import (
    App,
    Bound,
    Const,
    Context,
    Free,
    Goal,
    InductArgs,
    Lambda,
    Occurrence,
    Schematic,
    Term,
)


@dataclass(frozen=True)
class Atom:
    term: Term


@dataclass(frozen=True)
class AppNode:
    # Child 0 is the head; children 1..k are its arguments, in order.
    children: tuple["FlatNode", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("an application node needs a head and at least one argument")


@dataclass(frozen=True)
class LambdaNode:
    binder: str
    body: "FlatNode"


FlatNode = Union[Atom, AppNode, LambdaNode]


def flatten(term: Term) -> FlatNode:
    """Collapse a curried application spine into one node per printed call."""
    match term:
        case App():
            head: Term = term
            args: list[Term] = []
            while isinstance(head, App):
                args.append(head.arg)
                head = head.fun
            args.reverse()
            return AppNode((flatten(head), *(flatten(a) for a in args)))
        case Lambda(binder, body):
            return LambdaNode(binder, flatten(body))
        case _:
            return Atom(term)


def unflatten(node: FlatNode) -> Term:
    """Rebuild the curried term a flattened node denotes."""
    match node:
        case Atom(term):
            return term
        case LambdaNode(binder, body):
            return Lambda(binder, unflatten(body))
        case AppNode(children):
            term = unflatten(children[0])
            for child in children[1:]:
                term = App(term, unflatten(child))
            return term
    raise TypeError(f"not a flattened node: {node!r}")


def node_children(node: FlatNode) -> tuple[FlatNode, ...]:
    match node:
        case AppNode(children):
            return children
        case LambdaNode(_, body):
            return (body,)
        case _:
            return ()


def flatten_subgoal(goal: Goal, subgoal: int) -> FlatNode:
    if not 0 <= subgoal < len(goal.subgoals):
        raise IndexError(f"subgoal index {subgoal} out of range")
    return flatten(goal.subgoals[subgoal])


def enumerate_occurrences(goal: Goal, subgoal: int) -> list[tuple[Occurrence, Term]]:
    """Every node of the flattened subgoal, depth-first, head before arguments.

    Each entry pairs the occurrence with the (re-curried) term it denotes.
    The root comes first; the order is deterministic.
    """
    out: list[tuple[Occurrence, Term]] = []

    def walk(node: FlatNode, path: tuple[int, ...]) -> None:
        out.append((Occurrence(subgoal, path), unflatten(node)))
        for i, child in enumerate(node_children(node)):
            walk(child, path + (i,))

    walk(flatten_subgoal(goal, subgoal), ())
    return out


def enumerate_subterms(goal: Goal) -> list[Term]:
    """Distinct terms denoted by occurrences across all subgoals, in first-seen order."""
    seen: set[Term] = set()
    out: list[Term] = []
    for index in range(len(goal.subgoals)):
        for _, term in enumerate_occurrences(goal, index):
            if term not in seen:
                seen.add(term)
                out.append(term)
    return out


class Evaluator:
    """Precomputed domains and atomic semantics for one (goal, context, args)."""

    def __init__(self, goal: Goal, context: Context, args: InductArgs):
        self.goal = goal
        self.context = context
        self.args = args
        self._index: dict[Occurrence, tuple[FlatNode, Term]] = {}
        for subgoal in range(len(goal.subgoals)):
            self._index_subgoal(subgoal)
        self.occurrences: list[Occurrence] = [
            occ for occ, _ in enumerate_occurrences(goal, 0)
        ]
        self.terms: list[Term] = enumerate_subterms(goal)
        self.max_depth = max(len(o.path) for o in self.occurrences)
        self.max_number = max(len(self.terms), self._widest_application())
        self.numbers = range(self.max_number + 1)

    def _index_subgoal(self, subgoal: int) -> None:
        def walk(node: FlatNode, path: tuple[int, ...]) -> None:
            self._index[Occurrence(subgoal, path)] = (node, unflatten(node))
            for i, child in enumerate(node_children(node)):
                walk(child, path + (i,))

        walk(flatten_subgoal(self.goal, subgoal), ())

    def _widest_application(self) -> int:
        widest = 0
        for node, _ in self._index.values():
            if (
                isinstance(node, AppNode)
                and isinstance(node.children[0], Atom)
                and isinstance(node.children[0].term, Const)
            ):
                widest = max(widest, len(node.children) - 1)
        return widest

    def _node(self, occ: Occurrence) -> FlatNode | None:
        entry = self._index.get(occ)
        return entry[0] if entry else None

    def _term(self, occ: Occurrence) -> Term | None:
        entry = self._index.get(occ)
        return entry[1] if entry else None

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
                wanted = env[term_var]
                return [o for o in self.occurrences if self._term(o) == wanted]
        raise TypeError(f"not a domain: {domain!r}")

    def atomic(self, name: AtomicName, values: tuple) -> bool:
        match name:
            case AtomicName.IS_RULE_OF:
                rule_name, occ = values
                node = self._node(occ)
                record = self.context.rules.get(rule_name)
                return (
                    record is not None
                    and isinstance(node, Atom)
                    and isinstance(node.term, Const)
                    and record.derived_from == node.term.name
                )
            case AtomicName.TERM_OCCURRENCE_IS_OF_TERM:
                occ, term = values
                return self._term(occ) == term
            case AtomicName.ARE_SAME_TERM:
                return values[0] == values[1]
            case AtomicName.IS_IN_TERM_OCCURRENCE:
                inner, outer = values
                return (
                    inner.subgoal == outer.subgoal
                    and inner.path[: len(outer.path)] == outer.path
                )
            case AtomicName.IS_ATOMIC:
                return isinstance(self._node(values[0]), Atom)
            case AtomicName.IS_CONSTANT:
                return self._atom_kind(values[0], (Const,))
            case AtomicName.IS_RECURSIVE_CONSTANT:
                node = self._node(values[0])
                if not (isinstance(node, Atom) and isinstance(node.term, Const)):
                    return False
                definition = self.context.definitions.get(node.term.name)
                return definition is not None and definition.is_recursive
            case AtomicName.IS_VARIABLE:
                return self._atom_kind(values[0], (Free, Schematic, Bound))
            case AtomicName.IS_FREE_VARIABLE:
                return self._atom_kind(values[0], (Free,))
            case AtomicName.IS_BOUND_VARIABLE:
                return self._atom_kind(values[0], (Bound,))
            case AtomicName.IS_LAMBDA:
                return isinstance(self._node(values[0]), LambdaNode)
            case AtomicName.IS_APPLICATION:
                return isinstance(self._node(values[0]), AppNode)
            case AtomicName.IS_AN_ARGUMENT_OF:
                return self._argument_index(values[0], values[1]) is not None
            case AtomicName.IS_NTH_ARGUMENT_OF:
                arg_occ, n, head_occ = values
                return self._argument_index(arg_occ, head_occ) == n
            case AtomicName.IS_NTH_INDUCTION_TERM:
                term, n = values
                terms = self.args.induction_terms
                return 0 <= n < len(terms) and terms[n] == term
            case AtomicName.IS_NTH_ARBITRARY_TERM:
                term, n = values
                terms = self.args.arbitrary_terms
                return 0 <= n < len(terms) and terms[n] == term
            case AtomicName.PATTERN_IS:
                n, occ, pattern = values
                node = self._node(occ)
                if not (isinstance(node, Atom) and isinstance(node.term, Const)):
                    return False
                definition = self.context.definitions.get(node.term.name)
                if definition is None:
                    return False
                return classify_clause_params(definition, n) is pattern
            case AtomicName.IS_AT_DEEPEST:
                return len(values[0].path) == self.max_depth
        raise TypeError(f"not an atomic: {name!r}")

    def _atom_kind(self, occ: Occurrence, kinds: tuple) -> bool:
        node = self._node(occ)
        return isinstance(node, Atom) and isinstance(node.term, kinds)

    def _argument_index(self, arg_occ: Occurrence, head_occ: Occurrence) -> int | None:
        """Argument slot (0-based) arg_occ fills under head_occ's application,
        or None when head_occ heads no application or arg_occ sits elsewhere."""
        if arg_occ.subgoal != head_occ.subgoal:
            return None
        if not head_occ.path or head_occ.path[-1] != 0:
            return None
        if len(arg_occ.path) != len(head_occ.path) or arg_occ.path[:-1] != head_occ.path[:-1]:
            return None
        slot = arg_occ.path[-1]
        if slot < 1:
            return None
        parent = self._node(Occurrence(arg_occ.subgoal, arg_occ.path[:-1]))
        if not isinstance(parent, AppNode) or slot >= len(parent.children):
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
