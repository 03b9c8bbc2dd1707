"""Reading goal/context/argument case files, and writing terms in their syntax.

A case file is one s-expression bundling a proof goal, the context facts
assertions may consult (definitions and derived rules), and named sets of
induct arguments recorded against that goal:

    (case "<id>"
      (goal (subgoal <term>) ...)
      (context
        (defn "<const>" (recursive <true|false>)
          (clauses (clause <var|constructor> ...) ...))   ; clauses optional
        (rule "<name>" (derived-from "<const>")) ...)
      (args "<id>" (on <term> ...) (arbitrary <term> ...) (rule "<name>" ...))
      ...)

Terms are written
    (const "s") | (free "s") | (schematic "s") | (bound N)
    | (abs "s" <term>) | (app <term> <term>)

Everything is validated on the way in: names resolve, bound indices are in
scope, clause arities agree, and ids are unique.

Reading is one pass (`sexp.read_case`) that leaves every well-formed term
form as an interned term of one TermTable per case, which the goal keeps
for its index and which the argument sets share.  What remains is a small
tree of the other forms, checked here in reading order.  A term form that
did not reduce is diagnosed from its plain list, with the message the
first fault in it gets.
"""

from __future__ import annotations

from pathlib import Path

from .errors import LifterError
from .record import Record, set_field
from .sexp import SAtom, SexpError, Sexp, SList, SString, STerm, quote_string, read_case
from .terms import (
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
    ParamPattern,
    RuleRecord,
    Schematic,
    Term,
    TermTable,
)


class CaseError(LifterError):
    """A structurally broken or inconsistent case file."""


class CorpusCase(Record):
    __slots__ = __match_args__ = _fields = ("case_id", "goal", "context", "arg_sets")

    def __init__(
        self, case_id: str, goal: Goal, context: Context, arg_sets: dict[str, InductArgs]
    ):
        set_field(self, "case_id", case_id)
        set_field(self, "goal", goal)
        set_field(self, "context", context)
        set_field(self, "arg_sets", arg_sets)


def _fail(node: Sexp, message: str) -> CaseError:
    return CaseError(f"{node.line}:{node.col}: {message}")


def _expect_list(node: Sexp, head: str | None = None) -> SList:
    if not isinstance(node, SList) or not node.items:
        raise _fail(node, f"expected a ({head or '...'} ...) form")
    if head is not None:
        first = node.items[0]
        if not isinstance(first, SAtom) or first.text != head:
            raise _fail(node, f"expected a ({head} ...) form")
    return node


def _expect_string(node: Sexp, what: str) -> str:
    if not isinstance(node, SString):
        raise _fail(node, f"expected a quoted {what}")
    return node.text


def _head_of(node: SList) -> str:
    first = node.items[0]
    return first.text if isinstance(first, SAtom) else ""


_KEYWORD = {
    Const: "const", Free: "free", Schematic: "schematic", Bound: "bound", Lambda: "abs", App: "app",
}


def _term(node: Sexp | STerm) -> STerm:
    """The reduced term form at `node`.  A term form the reader could not
    reduce raises its first fault: the first a recursive descent meets,
    each form checked before its children and an abs binder after its body,
    as when the form is built."""
    if isinstance(node, STerm):
        return node
    todo: list = [node]
    while todo:
        item = todo.pop()
        if type(item) is tuple:  # an abs form, its body done
            raise _fail(item[0], "names must be non-empty strings")
        form = _expect_list(item)
        head = _head_of(form)
        rest = form.items[1:]
        if head in ("const", "free", "schematic"):
            if len(rest) != 1:
                raise _fail(form, f"({head} ...) takes one name")
            if not _expect_string(rest[0], "name"):
                raise _fail(form, "names must be non-empty strings")
        elif head == "bound":
            if len(rest) != 1 or not isinstance(rest[0], SAtom) or not rest[0].text.isdigit():
                raise _fail(form, "(bound ...) takes one natural number")
            try:
                int(rest[0].text)
            except ValueError as exc:
                raise _fail(form, str(exc)) from exc
        elif head == "abs":
            if len(rest) != 2:
                raise _fail(form, "(abs ...) takes a binder name and a body")
            if not _expect_string(rest[0], "binder name"):
                todo.append((form,))
            todo.append(rest[1])
        elif head == "app":
            if len(rest) != 2:
                raise _fail(form, "(app ...) takes two terms")
            todo.append(rest[1])
            todo.append(rest[0])
        else:
            raise _fail(form, f"unknown term keyword '{head}'")
    raise AssertionError(f"{node.line}:{node.col}: a term form that did not reduce has no fault")


def parse_term_sexp(text: str) -> Term:
    try:
        node = read_case(text, TermTable())
    except SexpError as exc:
        raise CaseError(str(exc)) from exc
    return _term(node).term


def render_term_sexp(term: Term) -> str:
    parts: list[str] = []
    todo: list = [term]  # terms still to write, and text to write as it is
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, App):
            parts.append("(app ")
            todo += (")", item.arg, " ", item.fun)
        elif isinstance(item, Lambda):
            parts.append(f"(abs {quote_string(item.binder)} ")
            todo += (")", item.body)
        elif isinstance(item, Bound):
            parts.append(f"(bound {item.index})")
        elif isinstance(item, (Const, Free, Schematic)):
            parts.append(f"({_KEYWORD[type(item)]} {quote_string(item.name)})")
        else:
            raise TypeError(f"not a term: {item!r}")
    return "".join(parts)


def _checked_term(node: Sexp | STerm, where: str) -> Term:
    reduced = _term(node)
    if not reduced.closed:
        raise _fail(node, f"{where}: bound index escapes its binders")
    return reduced.term


def _parse_goal(form: SList, table: TermTable) -> Goal:
    subgoals: list[Term] = []
    for entry in form.items[1:]:
        sub = _expect_list(entry, "subgoal")
        if len(sub.items) != 2:
            raise _fail(sub, "(subgoal ...) takes one term")
        subgoals.append(_checked_term(sub.items[1], "subgoal"))
    if not subgoals:
        raise _fail(form, "a goal needs at least one subgoal")
    return Goal(tuple(subgoals), table)


def _parse_clauses(form: SList, name: str) -> tuple[ClausePattern, ...]:
    clauses: list[ClausePattern] = []
    for entry in form.items[1:]:
        clause = _expect_list(entry, "clause")
        params: list[ParamPattern] = []
        for tag in clause.items[1:]:
            if not isinstance(tag, SAtom) or tag.text not in ("var", "constructor"):
                raise _fail(tag, "clause entries are 'var' or 'constructor'")
            params.append(ParamPattern(tag.text))
        clauses.append(ClausePattern(tuple(params)))
    if not clauses:
        raise _fail(form, f"(clauses ...) of '{name}' lists no clause")
    return tuple(clauses)


def _parse_defn(form: SList) -> Definition:
    items = form.items
    if len(items) < 3:
        raise _fail(form, "(defn ...) takes a name, a recursive flag, and optional clauses")
    name = _expect_string(items[1], "constant name")
    rec_form = _expect_list(items[2], "recursive")
    if (
        len(rec_form.items) != 2
        or not isinstance(rec_form.items[1], SAtom)
        or rec_form.items[1].text not in ("true", "false")
    ):
        raise _fail(rec_form, "(recursive ...) takes true or false")
    recursive = rec_form.items[1].text == "true"
    clauses: tuple[ClausePattern, ...] = ()
    if len(items) > 4:
        raise _fail(form, f"unexpected extra forms in (defn {quote_string(name)} ...)")
    if len(items) == 4:
        clauses = _parse_clauses(_expect_list(items[3], "clauses"), name)
    try:
        return Definition(name, recursive, clauses)
    except ValueError as exc:
        raise _fail(form, str(exc)) from exc


def _parse_rule(form: SList) -> RuleRecord:
    if len(form.items) != 3:
        raise _fail(form, "(rule ...) takes a name and a (derived-from ...) form")
    name = _expect_string(form.items[1], "rule name")
    derived = _expect_list(form.items[2], "derived-from")
    if len(derived.items) != 2:
        raise _fail(derived, "(derived-from ...) takes one constant name")
    try:
        return RuleRecord(name, _expect_string(derived.items[1], "constant name"))
    except ValueError as exc:
        raise _fail(form, str(exc)) from exc


def _parse_context(form: SList) -> Context:
    definitions: dict[str, Definition] = {}
    rules: dict[str, RuleRecord] = {}
    for entry in form.items[1:]:
        if isinstance(entry, STerm):
            raise _fail(entry, f"unknown context entry '{_KEYWORD[type(entry.term)]}'")
        sub = _expect_list(entry)
        head = _head_of(sub)
        if head == "defn":
            defn = _parse_defn(sub)
            if defn.constant_name in definitions:
                raise _fail(sub, f"duplicate definition of '{defn.constant_name}'")
            definitions[defn.constant_name] = defn
        elif head == "rule":
            rule = _parse_rule(sub)
            if rule.rule_name in rules:
                raise _fail(sub, f"duplicate rule '{rule.rule_name}'")
            rules[rule.rule_name] = rule
        else:
            raise _fail(sub, f"unknown context entry '{head}'")
    try:
        return Context(definitions, rules)
    except ValueError as exc:
        raise _fail(form, str(exc)) from exc


def _parse_args(form: SList, context: Context) -> tuple[str, InductArgs]:
    if len(form.items) != 5:
        raise _fail(form, "(args ...) takes an id and (on ...) (arbitrary ...) (rule ...) forms")
    args_id = _expect_string(form.items[1], "argument-set id")
    on_form = _expect_list(form.items[2], "on")
    arb_form = _expect_list(form.items[3], "arbitrary")
    rule_form = _expect_list(form.items[4], "rule")
    on = tuple(_checked_term(t, "induction term") for t in on_form.items[1:])
    arbitrary = tuple(_checked_term(t, "arbitrary term") for t in arb_form.items[1:])
    rule_names: list[str] = []
    for entry in rule_form.items[1:]:
        rule_name = _expect_string(entry, "rule name")
        if rule_name not in context.rules:
            raise _fail(entry, f"argument set '{args_id}' names unknown rule '{rule_name}'")
        rule_names.append(rule_name)
    return args_id, InductArgs(on, arbitrary, tuple(rule_names))


def parse_case_file(text: str) -> CorpusCase:
    table = TermTable()
    try:
        form = read_case(text, table)
    except SexpError as exc:
        raise CaseError(str(exc)) from exc
    case = _expect_list(form, "case")
    if len(case.items) < 4:
        raise _fail(case, "(case ...) takes an id, a goal, a context, and argument sets")
    case_id = _expect_string(case.items[1], "case id")
    goal = _parse_goal(_expect_list(case.items[2], "goal"), table)
    context = _parse_context(_expect_list(case.items[3], "context"))
    arg_sets: dict[str, InductArgs] = {}
    for entry in case.items[4:]:
        args_form = _expect_list(entry, "args")
        args_id, args = _parse_args(args_form, context)
        if args_id in arg_sets:
            raise _fail(args_form, f"duplicate argument set '{args_id}'")
        arg_sets[args_id] = args
    return CorpusCase(case_id, goal, context, arg_sets)


def load_case_file(path: str | Path) -> CorpusCase:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CaseError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_case_file(text)
    except CaseError as exc:
        raise CaseError(f"{path}: {exc}") from exc


def load_corpus_dir(path: str | Path) -> list[CorpusCase]:
    """All *.case files under a directory, sorted by case id."""
    path = Path(path)
    if not path.is_dir():
        raise CaseError(f"not a corpus directory: {path}")
    cases = [load_case_file(p) for p in sorted(path.glob("*.case"))]
    by_id: dict[str, CorpusCase] = {}
    for case in cases:
        if case.case_id in by_id:
            raise CaseError(f"duplicate case id '{case.case_id}' in {path}")
        by_id[case.case_id] = case
    return [by_id[k] for k in sorted(by_id)]


def bundled_corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"
