"""Higher-order term trees, proof goals, occurrences, and induct arguments.

Terms are curried: an application node has exactly one function and one
argument, and bound variables are de Bruijn indices.  Assertions never see
that shape directly.  Their nodes follow the way a goal reads when
printed: a head and all of its arguments are the children of one
application node, head first, and a lambda's body is its only child.

An Occurrence addresses one such node of one subgoal by its child-index
path from the root.  Two occurrences are equal exactly when their subgoal
index and path are equal, even if they denote equal terms.

A goal's occurrences and distinct subterms come from one GoalIndex, built
in one iterative pass the first time `Goal.index` is read and cached on
the goal for its lifetime.  The index hash-conses terms: each occurrence
carries the id of the term it denotes, and each id has one canonical Term.
The interpreter compares terms by id and reads a node's kind from the type
of its term; `enumerate_occurrences`, `enumerate_subterms` and `term_at`
are views over the index.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Goal:
    subgoals: tuple[Term, ...]

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


def _leaf_key(term: Term) -> tuple:
    if isinstance(term, Bound):
        return (Bound, term.index)
    return (type(term), term.name)


class GoalIndex:
    """Every node and term of one goal, numbered in a single pass.

    Occurrences of all subgoals are numbered in preorder, subgoal 0 first
    and each head before its arguments.  Terms are hash-consed: a term's id
    is keyed on its constructor and its children's ids, the partial
    applications of a printed call included, and each id has one canonical
    Term built from its children's canonical terms.  Two terms are equal
    exactly when their ids are, so no comparison ever walks a term.
    """

    def __init__(self, goal: Goal):
        self.occurrences: list[Occurrence] = []
        self.term_ids: list[int] = []
        self._ends: list[int] = []
        self.term_of: list[Term] = []
        self._cons: dict[tuple, int] = {}
        self._canonical: dict[int, int] = {}  # id() of a canonical term -> its term id
        self.widest = 0  # most arguments of one constant application, any subgoal
        starts = []
        for subgoal, term in enumerate(goal.subgoals):
            starts.append(len(self.occurrences))
            self._walk(subgoal, term)
        self.starts = (*starts, len(self.occurrences))
        self.positions = {occ: i for i, occ in enumerate(self.occurrences)}

        seen: set[int] = set()
        self.subterms: list[Term] = []  # the term domain, first-seen order
        for tid in self.term_ids:
            if tid not in seen:
                seen.add(tid)
                self.subterms.append(self.term_of[tid])

        # Subgoal 0 is the evaluation scope.
        self.scope = self.occurrences[: self.starts[1]]
        self.max_depth = max(len(occ.path) for occ in self.scope)
        self.occs_of: dict[int, list[Occurrence]] = {}
        for occ, tid in zip(self.scope, self.term_ids):
            self.occs_of.setdefault(tid, []).append(occ)

    def _walk(self, subgoal: int, root: Term) -> None:
        """Number the nodes of one subgoal.  A node enters on the way down
        with its path and, unless it is a leaf, leaves again with its
        position once its subtree is numbered; that is when its term id is
        made."""
        occs, tids, ends = self.occurrences, self.term_ids, self._ends
        stack: list[tuple[Term, tuple[int, ...] | int]] = [(root, ())]
        while stack:
            term, path = stack.pop()
            if isinstance(path, int):
                self._leave(term, path)
                continue
            i = len(occs)
            occs.append(Occurrence(subgoal, path))
            tids.append(-1)
            ends.append(i + 1)
            if isinstance(term, App):
                args: list[Term] = []
                head: Term = term
                while isinstance(head, App):
                    args.append(head.arg)
                    head = head.fun
                stack.append((term, i))
                for n, arg in enumerate(args):
                    stack.append((arg, path + (len(args) - n,)))
                stack.append((head, path + (0,)))
            elif isinstance(term, Lambda):
                stack.append((term, i))
                stack.append((term.body, path + (0,)))
            else:
                tids[i] = self._id(_leaf_key(term))

    def _leave(self, term: Term, i: int) -> None:
        # The subtree under position i is positions i to ends[i] - 1, so
        # each child after the first starts where its elder sibling ends.
        tids, ends = self.term_ids, self._ends
        end = ends[i] = len(self.occurrences)
        if isinstance(term, Lambda):
            tids[i] = self._id((Lambda, term.binder, tids[i + 1]))
            return
        children = []
        child = i + 1
        while child < end:
            children.append(child)
            child = ends[child]
        tid = tids[children[0]]
        for child in children[1:]:
            tid = self._id((App, tid, tids[child]))
        tids[i] = tid
        if isinstance(self.term_of[tids[children[0]]], Const):
            self.widest = max(self.widest, len(children) - 1)

    def _id(self, key: tuple) -> int:
        tid = self._cons.get(key)
        if tid is None:
            tid = self._cons[key] = len(self.term_of)
            kind = key[0]
            if kind is App:
                term: Term = App(self.term_of[key[1]], self.term_of[key[2]])
            elif kind is Lambda:
                term = Lambda(key[1], self.term_of[key[2]])
            else:
                term = kind(key[1])
            self.term_of.append(term)
            self._canonical[id(term)] = tid
        return tid

    def term_id(self, term: Term, extra: dict[tuple, int]) -> int:
        """The id of any term, equal for equal terms.  A term that is not a
        subterm of the goal gets an id from `extra`, a table the caller owns,
        numbered after the goal's ids."""
        tid = self._canonical.get(id(term))
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
            else:
                key = _leaf_key(t)
            tid = self._cons.get(key)
            if tid is None:
                tid = extra.setdefault(key, len(self.term_of) + len(extra))
            done.append(tid)
        return done[0]

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
