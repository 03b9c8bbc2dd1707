"""Higher-order term trees, proof goals, occurrences, and induct arguments.

Terms are curried: an application node has exactly one function and one
argument, and bound variables are de Bruijn indices.  Assertions never see
that shape directly.  Their nodes follow the way a goal reads when
printed: a head and all of its arguments are the children of one
application node, head first, and a lambda's body is its only child.

An Occurrence addresses one such node of one subgoal by its child-index
path from the root.  Two occurrences are equal exactly when their subgoal
index and path are equal, even if they denote equal terms.

Terms are hash-consed in a TermTable: each distinct term has one id,
keyed on its constructor and its children's ids, and one canonical Term.
Reading a case interns every term of it into one table, goal and argument
sets alike, as the text is read (see `sexp`); a Goal built from Terms is
interned into a table of its own when it is first indexed.

A goal's occurrences and distinct subterms come from one GoalIndex, built
in one walk over term ids the first time `Goal.index` is read and cached
on the goal for its lifetime.  Each occurrence carries the id of the term
it denotes.  The interpreter compares terms by id and reads a node's kind
from the type of its term; `enumerate_occurrences`, `enumerate_subterms`
and `term_at` are views over the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Union


def _require_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError("names must be non-empty strings")


@dataclass(frozen=True)
class Const:
    name: str

    def __post_init__(self) -> None:
        _require_name(self.name)


@dataclass(frozen=True)
class Free:
    name: str

    def __post_init__(self) -> None:
        _require_name(self.name)


@dataclass(frozen=True)
class Schematic:
    name: str

    def __post_init__(self) -> None:
        _require_name(self.name)


@dataclass(frozen=True)
class Bound:
    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.index, int) or self.index < 0:
            raise ValueError("bound indices must be natural numbers")


@dataclass(frozen=True)
class Lambda:
    binder: str
    body: "Term"

    def __post_init__(self) -> None:
        _require_name(self.binder)


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


Term = Union[Const, Free, Schematic, Bound, Lambda, App]


def is_well_formed(term: Term, binders: int = 0) -> bool:
    """True when every de Bruijn index is covered by an enclosing Lambda."""
    todo = [(term, binders)]
    while todo:
        term, binders = todo.pop()
        if isinstance(term, App):
            todo.append((term.arg, binders))
            todo.append((term.fun, binders))
        elif isinstance(term, Lambda):
            todo.append((term.body, binders + 1))
        elif isinstance(term, Bound) and term.index >= binders:
            return False
    return True


class TermTable:
    """Hash-consed terms: one id and one canonical Term per distinct term.

    A term's key is its constructor and its children's ids: (App, fun,
    arg), (Lambda, binder, body), (Bound, index), or (Const, name) and the
    like, so two terms are equal exactly when their ids are.  Each id's
    canonical Term is built once, from its children's canonical Terms.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []  # by id
        self.terms: list[Term] = []  # the canonical Term of each id
        self.canonical: dict[int, int] = {}  # id() of a canonical Term -> its id

    def add(self, key: tuple) -> int:
        """The id of a key the table does not hold yet."""
        tid = self.ids[key] = len(self.terms)
        kind, terms = key[0], self.terms
        if kind is App:
            term: Term = App(terms[key[1]], terms[key[2]])
        elif kind is Lambda:
            term = Lambda(key[1], terms[key[2]])
        else:
            term = kind(key[1])
        self.keys.append(key)
        terms.append(term)
        self.canonical[id(term)] = tid
        return tid

    def intern(self, term: Term, extra: dict[tuple, int] | None = None) -> int:
        """The id of any term: one identity lookup for a canonical Term,
        one iterative walk for any other.  A key the table lacks is added
        to it, or, when the caller passes its own `extra` table, numbered
        there with a negative id and left out of this one."""
        tid = self.canonical.get(id(term))
        if tid is not None:
            return tid
        done: list[int] = []
        stack: list[tuple[Term, bool]] = [(term, False)]
        while stack:
            t, ready = stack.pop()
            if not ready and isinstance(t, App):
                stack += ((t, True), (t.arg, False), (t.fun, False))
                continue
            if not ready and isinstance(t, Lambda):
                stack += ((t, True), (t.body, False))
                continue
            if isinstance(t, App):
                arg = done.pop()
                key: tuple = (App, done.pop(), arg)
            elif isinstance(t, Lambda):
                key = (Lambda, t.binder, done.pop())
            elif isinstance(t, Bound):
                key = (Bound, t.index)
            else:
                key = (type(t), t.name)
            tid = self.ids.get(key)
            if tid is None:
                tid = self.add(key) if extra is None else extra.setdefault(key, -1 - len(extra))
            done.append(tid)
        return done[0]


@dataclass(frozen=True)
class Goal:
    subgoals: tuple[Term, ...]
    # The table the subgoals were read into, if any; equality and repr
    # ignore it.
    table: TermTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.subgoals:
            raise ValueError("a goal has at least one subgoal")

    @cached_property
    def index(self) -> "GoalIndex":
        """The goal's index, built on first use and kept as long as the goal."""
        return GoalIndex(self)


@dataclass(frozen=True)
class Occurrence:
    subgoal: int
    path: tuple[int, ...]


def depth_of(occurrence: Occurrence) -> int:
    return len(occurrence.path)


class GoalIndex:
    """Every node and term of one goal, numbered in a single pass.

    Occurrences of all subgoals are numbered in preorder, subgoal 0 first
    and each head before its arguments.  Each occurrence carries the id of
    the term it denotes in the goal's TermTable: the table the case was
    read into, or, for a goal built from Terms, a new table its subgoals
    are interned into first.  The walk goes over ids alone: an App key
    unfolds into the head and arguments of one printed call, and every
    node's id is known on the way down.
    """

    def __init__(self, goal: Goal):
        self.table = table = goal.table or TermTable()
        self.term_of = table.terms
        keys = table.keys
        self.occurrences: list[Occurrence] = []
        self.term_ids: list[int] = []
        occs, tids = self.occurrences, self.term_ids
        widest = 0  # most arguments of one constant application, any subgoal
        starts = []
        for subgoal, term in enumerate(goal.subgoals):
            starts.append(len(occs))
            stack: list[tuple[int, tuple[int, ...]]] = [(table.intern(term), ())]
            while stack:
                tid, path = stack.pop()
                occs.append(Occurrence(subgoal, path))
                tids.append(tid)
                key = keys[tid]
                if key[0] is App:
                    args: list[int] = []  # last argument first
                    while key[0] is App:
                        args.append(key[2])
                        head = key[1]
                        key = keys[head]
                    slot = len(args)
                    if key[0] is Const and slot > widest:
                        widest = slot
                    for arg in args:
                        stack.append((arg, path + (slot,)))
                        slot -= 1
                    stack.append((head, path + (0,)))
                elif key[0] is Lambda:
                    stack.append((key[2], path + (0,)))
        self.widest = widest
        self.starts = (*starts, len(occs))
        self.positions = {occ: i for i, occ in enumerate(occs)}
        # The term domain: distinct terms in first-seen order.
        self.subterms: list[Term] = [self.term_of[tid] for tid in dict.fromkeys(tids)]

        # Subgoal 0 is the evaluation scope.
        self.scope = occs[: self.starts[1]]
        self.max_depth = max(len(occ.path) for occ in self.scope)
        self.occs_of: dict[int, list[Occurrence]] = {}
        for occ, tid in zip(self.scope, tids):
            self.occs_of.setdefault(tid, []).append(occ)

    def position(self, occurrence: Occurrence) -> int:
        """The preorder position of an occurrence; IndexError if the goal has none."""
        i = self.positions.get(occurrence)
        if i is None:
            raise IndexError(f"no node at path {occurrence.path} in subgoal {occurrence.subgoal}")
        return i


def enumerate_occurrences(goal: Goal, subgoal: int) -> list[tuple[Occurrence, Term]]:
    """Every node of the subgoal, depth-first, head before arguments.

    Each entry pairs the occurrence with the (re-curried) term it denotes.
    The root comes first; the order is deterministic.
    """
    if not 0 <= subgoal < len(goal.subgoals):
        raise IndexError(f"subgoal index {subgoal} out of range")
    index = goal.index
    span = range(index.starts[subgoal], index.starts[subgoal + 1])
    return [(index.occurrences[i], index.term_of[index.term_ids[i]]) for i in span]


def enumerate_subterms(goal: Goal) -> list[Term]:
    """Distinct terms denoted by occurrences across all subgoals, in first-seen order."""
    return list(goal.index.subterms)


def term_at(goal: Goal, occurrence: Occurrence) -> Term:
    index = goal.index
    return index.term_of[index.term_ids[index.position(occurrence)]]


class ParamPattern(Enum):
    VAR = "var"
    CONSTRUCTOR = "constructor"


@dataclass(frozen=True)
class ClausePattern:
    params: tuple[ParamPattern, ...]


@dataclass(frozen=True)
class Definition:
    """What the proof context records about one defined constant.

    Clauses keep only the left-hand-side parameter shapes: whether each
    parameter of each defining clause is a plain variable or mentions a
    data constructor.  A constant known only by name has no clauses.
    """

    constant_name: str
    is_recursive: bool
    clauses: tuple[ClausePattern, ...] = ()

    def __post_init__(self) -> None:
        _require_name(self.constant_name)
        arities = {len(c.params) for c in self.clauses}
        if len(arities) > 1:
            raise ValueError(f"clauses of '{self.constant_name}' disagree on arity")

    @property
    def arity(self) -> int | None:
        return len(self.clauses[0].params) if self.clauses else None


@dataclass(frozen=True)
class RuleRecord:
    rule_name: str
    derived_from: str

    def __post_init__(self) -> None:
        _require_name(self.rule_name)
        _require_name(self.derived_from)


@dataclass(frozen=True)
class Context:
    definitions: dict[str, Definition]
    rules: dict[str, RuleRecord]

    def __post_init__(self) -> None:
        for rule in self.rules.values():
            if rule.derived_from not in self.definitions:
                raise ValueError(
                    f"rule '{rule.rule_name}' derives from unknown constant '{rule.derived_from}'"
                )


@dataclass(frozen=True)
class InductArgs:
    """The three argument fields handed to the induct method."""

    induction_terms: tuple[Term, ...] = ()
    arbitrary_terms: tuple[Term, ...] = ()
    rules: tuple[str, ...] = ()
