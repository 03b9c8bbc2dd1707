"""Higher-order term trees, proof goals, occurrences, and induct arguments.

Terms are curried: an application node has exactly one function and one
argument, and bound variables are de Bruijn indices.  Two terms are equal
when they have the same constructors, names and indices.  Each term
carries its hash from the moment it is built, and equality walks a term
with an explicit stack, so depth costs no Python stack.  Assertions never
see that shape directly.  Their nodes follow the way a goal reads when
printed: a head and all of its arguments are the children of one
application node, head first, and a lambda's body is its only child.

An Occurrence addresses one such node of one subgoal by its child-index
path from the root.  Two occurrences are equal exactly when their subgoal
index and path are equal, even if they denote equal terms.  It is a named
tuple, so the index hashes and compares occurrences in C.

Terms are hash-consed in a TermTable: each distinct term has one id,
keyed on its constructor and its children's ids, and one canonical Term.
Reading a case interns every term of it into one table, goal and argument
sets alike, as the text is read (see `sexp`); a Goal built from Terms is
interned into a table of its own when it is first indexed.

A goal's occurrences and distinct subterms come from one GoalIndex, built
in one walk over term ids the first time `Goal.index` is read and cached
on the goal for its lifetime.  Each occurrence carries the id of the term
it denotes.  The interpreter compares terms by id and reads a node's kind
from the type of its term; `enumerate_occurrences` and
`enumerate_subterms` are views over the index.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property

from .record import Record, set_field


def _require_name(name: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError("names must be non-empty strings")


class _Term(Record):
    """The base of the six term classes.  Each term carries its hash,
    computed from its children's as it is built, so hashing never walks a
    term and equality turns most unequal terms away at once."""

    __slots__ = ("_hash",)

    def __eq__(self, other: object) -> bool:
        """Structural equality, from an explicit stack."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [self, other]
        while todo:
            b = todo.pop()
            a = todo.pop()
            if a is b:
                continue
            kind = a.__class__
            if kind is not b.__class__ or a._hash != b._hash:
                return False
            if kind is App:
                todo += (a.arg, b.arg, a.fun, b.fun)
            elif kind is Lambda:
                if a.binder != b.binder:
                    return False
                todo += (a.body, b.body)
            elif kind is Bound:
                if a.index != b.index:
                    return False
            elif a.name != b.name:
                return False
        return True

    def __hash__(self) -> int:
        return self._hash


class _Named(_Term):
    """A leaf term that carries a name: Const, Free or Schematic."""

    __slots__ = __match_args__ = _fields = ("name",)

    def __init__(self, name: str):
        _require_name(name)
        _set_name(self, name)
        _set_hash(self, hash(name))


class Const(_Named):
    __slots__ = ()


class Free(_Named):
    __slots__ = ()


class Schematic(_Named):
    __slots__ = ()


class Bound(_Term):
    __slots__ = __match_args__ = _fields = ("index",)

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 0:
            raise ValueError("bound indices must be natural numbers")
        _set_index(self, index)
        _set_hash(self, hash(index))


class Lambda(_Term):
    __slots__ = __match_args__ = _fields = ("binder", "body")

    def __init__(self, binder: str, body: Term):
        _require_name(binder)
        _set_binder(self, binder)
        _set_body(self, body)
        _set_hash(self, hash((binder, body._hash)))


class App(_Term):
    __slots__ = __match_args__ = _fields = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        _set_fun(self, fun)
        _set_arg(self, arg)
        _set_hash(self, hash((fun._hash, arg._hash)))


# Terms are built by the thousand as a case is read, so their fields are
# set through the slots' own setters, which skip the attribute lookup that
# set_field makes.
_set_hash = _Term.__dict__["_hash"].__set__
_set_name = _Named.__dict__["name"].__set__
_set_index = Bound.__dict__["index"].__set__
_set_binder, _set_body = (Lambda.__dict__[f].__set__ for f in Lambda.__slots__)
_set_fun, _set_arg = (App.__dict__[f].__set__ for f in App.__slots__)

Term = Const | Free | Schematic | Bound | Lambda | App


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


class Goal(Record):
    """The subgoals of one proof goal, and the TermTable they were read
    into, if any; equality and repr ignore the table."""

    _fields = ("subgoals",)
    __match_args__ = ("subgoals", "table")

    def __init__(self, subgoals: tuple[Term, ...], table: TermTable | None = None):
        if not subgoals:
            raise ValueError("a goal has at least one subgoal")
        set_field(self, "subgoals", subgoals)
        set_field(self, "table", table)

    @cached_property
    def index(self) -> "GoalIndex":
        """The goal's index, built on first use and kept as long as the goal."""
        return GoalIndex(self)


Occurrence = namedtuple("Occurrence", ("subgoal", "path"))


class GoalIndex:
    """Every node and term of one goal, numbered in a single pass.

    Occurrences of all subgoals are numbered in preorder, subgoal 0 first
    and each head before its arguments.  Each occurrence carries the id of
    the term it denotes in the goal's TermTable: the table the case was
    read into, or, for a goal built from Terms, a new table its subgoals
    are interned into first.  The walk goes over ids alone: an App key
    unfolds into the head and arguments of one printed call, and every
    node's id is known on the way down.

    An occurrence the index holds is found by identity, through `by_id`,
    as TermTable.canonical finds terms.  `positions`, keyed by value, serves
    any other occurrence, and `end` gives the extent of each subtree of the
    evaluation scope; each is built the first time it is read.
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
        # id() of an occurrence held here -> its position
        self.by_id: dict[int, int] = dict(zip(map(id, occs), range(len(occs))))
        self.widest = widest
        self.starts = (*starts, len(occs))
        # The term domain: distinct terms in first-seen order.
        self.subterms: list[Term] = [self.term_of[tid] for tid in dict.fromkeys(tids)]

        # Subgoal 0 is the evaluation scope.
        self.scope = occs[: self.starts[1]]
        self.max_depth = max(len(occ.path) for occ in self.scope)
        self.occs_of: dict[int, list[Occurrence]] = {}
        for occ, tid in zip(self.scope, tids):
            self.occs_of.setdefault(tid, []).append(occ)

    @cached_property
    def end(self) -> list[int]:
        """By position in the scope, the position just past the node's
        subtree: a subtree is the interval from a node to its end, a node's
        next sibling starts at its end, and a head's application sits just
        before it."""
        end = [0] * len(self.scope)
        open_: list[int] = []  # the current node's ancestors, one per depth
        for i, occ in enumerate(self.scope):
            while len(open_) > len(occ.path):
                end[open_.pop()] = i
            open_.append(i)
        for i in open_:
            end[i] = len(self.scope)
        return end

    @cached_property
    def positions(self) -> dict[Occurrence, int]:
        """The preorder position of each occurrence, keyed by value."""
        return {occ: i for i, occ in enumerate(self.occurrences)}

    def find(self, occurrence: Occurrence) -> int | None:
        """The preorder position of an occurrence, or None if the goal has none."""
        i = self.by_id.get(id(occurrence))
        return self.positions.get(occurrence) if i is None else i


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


class ParamPattern(Enum):
    VAR = "var"
    CONSTRUCTOR = "constructor"


class ClausePattern(Record):
    __slots__ = __match_args__ = _fields = ("params",)

    def __init__(self, params: tuple[ParamPattern, ...]):
        set_field(self, "params", params)


class Definition(Record):
    """What the proof context records about one defined constant.

    Clauses keep only the left-hand-side parameter shapes: whether each
    parameter of each defining clause is a plain variable or mentions a
    data constructor.  A constant known only by name has no clauses.
    """

    __slots__ = __match_args__ = _fields = ("constant_name", "is_recursive", "clauses")

    def __init__(
        self, constant_name: str, is_recursive: bool, clauses: tuple[ClausePattern, ...] = ()
    ):
        _require_name(constant_name)
        if len({len(c.params) for c in clauses}) > 1:
            raise ValueError(f"clauses of '{constant_name}' disagree on arity")
        set_field(self, "constant_name", constant_name)
        set_field(self, "is_recursive", is_recursive)
        set_field(self, "clauses", clauses)

    @property
    def arity(self) -> int | None:
        return len(self.clauses[0].params) if self.clauses else None


class RuleRecord(Record):
    __slots__ = __match_args__ = _fields = ("rule_name", "derived_from")

    def __init__(self, rule_name: str, derived_from: str):
        _require_name(rule_name)
        _require_name(derived_from)
        set_field(self, "rule_name", rule_name)
        set_field(self, "derived_from", derived_from)


class Context(Record):
    __slots__ = __match_args__ = _fields = ("definitions", "rules")

    def __init__(self, definitions: dict[str, Definition], rules: dict[str, RuleRecord]):
        for rule in rules.values():
            if rule.derived_from not in definitions:
                raise ValueError(
                    f"rule '{rule.rule_name}' derives from unknown constant '{rule.derived_from}'"
                )
        set_field(self, "definitions", definitions)
        set_field(self, "rules", rules)


class InductArgs(Record):
    """The three argument fields handed to the induct method."""

    __slots__ = __match_args__ = _fields = ("induction_terms", "arbitrary_terms", "rules")

    def __init__(
        self,
        induction_terms: tuple[Term, ...] = (),
        arbitrary_terms: tuple[Term, ...] = (),
        rules: tuple[str, ...] = (),
    ):
        set_field(self, "induction_terms", induction_terms)
        set_field(self, "arbitrary_terms", arbitrary_terms)
        set_field(self, "rules", rules)
