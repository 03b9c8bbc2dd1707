"""Higher-order term trees, proof goals, occurrences, and induct arguments.

Terms are curried: an application node has exactly one function and one
argument, and bound variables are de Bruijn indices.  Two terms are equal
when they have the same constructors, names and indices.  Each term
carries its hash from the moment it is built, and equality (Record's)
walks a term with an explicit stack, so depth costs no Python stack.
Assertions never see that shape directly.  Their nodes follow the way a
goal reads when printed: a head and all of its arguments are the children
of one application node, head first, and a lambda's body is its only
child.

An Occurrence addresses one such node of one subgoal by its child-index
path from the root.  Two occurrences are equal exactly when their subgoal
index and path are equal, even if they denote equal terms.  It is the
public name of a node only: inside the index and the evaluator a node is
its preorder position, and a path is built, by walking up from the node,
only for an occurrence that is returned or printed.

Terms are hash-consed in a TermTable: each distinct term has one id,
keyed on its constructor and its children's ids, and one canonical Term.
Reading a case interns every term of it into one table, goal and argument
sets alike, as the text is read (see `sexp`, and `ingest` for terms in
another layout); a Goal built from Terms is interned into a table of its
own when it is first indexed.  Interning a term whose key the table lacks
adds the key, so an argument term absent from the goal joins the goal's
table when an evaluator is built.

A goal's nodes and distinct subterms come from one GoalIndex, built in
one walk over term ids the first time `Goal.index` is read and cached on
the goal for its lifetime.  It keeps each node's term id, parent, slot,
depth and subtree end in flat arrays by position, so it grows with the node
count, not with the sum of the nodes' depths.  The interpreter handles
terms as ids alone and reads a node's kind from its term's key;
`enumerate_occurrences` and `enumerate_subterms` build the Occurrence and
Term values of their views from the index.
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
    term."""

    __slots__ = ("_hash",)

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

    def intern(self, term: Term) -> int:
        """The id of any term: one identity lookup for a canonical Term,
        one iterative walk for any other.  A key the table lacks joins it,
        with the next id."""
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
            done.append(self.add(key) if tid is None else tid)
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

    Nodes of all subgoals are numbered in preorder, subgoal 0 first and
    each head before its arguments, and what the index knows of a node is
    held in flat arrays by that position:

      term_ids  the id of the node's term in the goal's TermTable
      parent    the position of the node's application or lambda, -1 at a
                root
      slot      -1 at a root, 0 for a head or a lambda's body, k for
                argument k
      depth     the length of the node's path
      end       the position just past the node's subtree: a subtree is
                the interval from a node to its end, and a node's next
                sibling starts at its end

    The table is the one the case was read into, or, for a goal built from
    Terms, a new table its subgoals are interned into first.  The walk goes
    over ids alone: an App key unfolds into the head and arguments of one
    printed call, and every node's id is known on the way down.  Positions
    are all the evaluator handles; `occurrence` and `find` convert between
    a position and the public Occurrence.
    """

    def __init__(self, goal: Goal):
        self.table = table = goal.table or TermTable()
        self.term_of = table.terms
        keys = table.keys
        nodes = []  # (term id, parent, slot, depth) by position
        self.end = end = []
        widest = 0  # most arguments of one constant application, any subgoal
        starts = []
        for term in goal.subgoals:
            starts.append(len(nodes))
            # The nodes to number, and (-1, p, 0, 0) where p's subtree ends.
            stack = [(table.intern(term), -1, -1, 0)]
            while stack:
                tid, p, _, d = node = stack.pop()
                if tid < 0:
                    end[p] = len(nodes)
                    continue
                i = len(nodes)
                nodes.append(node)
                end.append(i + 1)
                key = keys[tid]
                if key[0] is App:
                    args = []  # last argument first
                    while key[0] is App:
                        args.append(key[2])
                        head = key[1]
                        key = keys[head]
                    k = len(args)
                    if key[0] is Const and k > widest:
                        widest = k
                    d += 1
                    stack.append((-1, i, 0, 0))
                    for arg in args:
                        stack.append((arg, i, k, d))
                        k -= 1
                    stack.append((head, i, 0, d))
                elif key[0] is Lambda:
                    stack.append((-1, i, 0, 0))
                    stack.append((key[2], i, 0, d + 1))
        self.term_ids, self.parent, self.slot, self.depth = zip(*nodes)
        self.widest = widest
        self.starts = (*starts, len(nodes))
        # The term domain: the ids of distinct terms in first-seen order.
        self.subterms = list(dict.fromkeys(self.term_ids))

        # Subgoal 0 is the evaluation scope.
        scope = self.starts[1]
        self.max_depth = max(self.depth[:scope])
        self.occs_of = {}  # term id -> its positions in scope
        for i, tid in enumerate(self.term_ids[:scope]):
            self.occs_of.setdefault(tid, []).append(i)

    def occurrence(self, i: int) -> Occurrence:
        """The occurrence at position i."""
        path = []
        while self.parent[i] >= 0:
            path.append(self.slot[i])
            i = self.parent[i]
        return Occurrence(self.starts.index(i), tuple(reversed(path)))

    def find(self, occurrence):
        """The position of an Occurrence, or None if the goal has no such
        node: the path is followed down from the subgoal's root, each step
        to the child at that slot."""
        subgoal, path = occurrence
        if not 0 <= subgoal < len(self.starts) - 1:
            return None
        i, end = self.starts[subgoal], self.end
        for k in path:
            j = i + 1  # the first child, if i has any
            while j < end[i] and self.slot[j] != k:
                j = end[j]
            if j == end[i]:
                return None
            i = j
        return i


def enumerate_occurrences(goal: Goal, subgoal: int) -> list[tuple[Occurrence, Term]]:
    """Every node of the subgoal, depth-first, head before arguments.

    Each entry pairs the occurrence with the (re-curried) term it denotes.
    The root comes first; the order is deterministic.
    """
    if not 0 <= subgoal < len(goal.subgoals):
        raise IndexError(f"subgoal index {subgoal} out of range")
    index = goal.index
    start = index.starts[subgoal]
    out = []
    for i in range(start, index.starts[subgoal + 1]):
        p = index.parent[i]  # a parent's path is built before its children's
        path = out[p - start][0].path + (index.slot[i],) if p >= 0 else ()
        out.append((Occurrence(subgoal, path), index.term_of[index.term_ids[i]]))
    return out


def enumerate_subterms(goal: Goal) -> list[Term]:
    """Distinct terms denoted by occurrences across all subgoals, in first-seen order."""
    index = goal.index
    return [index.term_of[tid] for tid in index.subterms]


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
