"""Reference case reader: the one lifter shipped before case text was read
straight into hash-consed term ids.

It reads the whole text into an s-expression tree with `oracle_sexp`,
builds each term form into frozen Terms in a second walk, and checks bound
indices in a third.  It is kept only as the oracle `tests/test_ingest.py`
compares `lifter.ingest.parse_case_file` against: an equal CorpusCase, or
a CaseError with the same message.  Do not optimise it.
"""

from __future__ import annotations

from lifter.ingest import CaseError, CorpusCase
from lifter.sexp import SexpError, quote_string
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
    ParamPattern,
    RuleRecord,
    Schematic,
    Term,
)
from oracle_sexp import SAtom, Sexp, SList, SString, parse_sexp


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


_LEAF_KINDS = {"const": Const, "free": Free, "schematic": Schematic}


def _term_from_sexp(node: Sexp) -> Term:
    """The term a form spells.  Forms are checked in the order a recursive
    descent visits them, so the first fault in the text is the one reported,
    but an explicit stack stands in for the recursion: a term may nest as
    deep as memory allows."""
    built: list[Term] = []
    # Forms still to read, and (form, binder) steps that pop the terms built
    # for a form's children and build its App (binder None) or Lambda.
    todo: list = [node]
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            form, binder = item
            last = built.pop()
            try:
                built.append(App(built.pop(), last) if binder is None else Lambda(binder, last))
            except ValueError as exc:
                raise _fail(form, str(exc)) from exc
            continue
        form = _expect_list(item)
        head = _head_of(form)
        rest = form.items[1:]
        try:
            if head in _LEAF_KINDS:
                if len(rest) != 1:
                    raise _fail(form, f"({head} ...) takes one name")
                built.append(_LEAF_KINDS[head](_expect_string(rest[0], "name")))
            elif head == "bound":
                if len(rest) != 1 or not isinstance(rest[0], SAtom) or not rest[0].text.isdigit():
                    raise _fail(form, "(bound ...) takes one natural number")
                built.append(Bound(int(rest[0].text)))
            elif head == "abs":
                if len(rest) != 2:
                    raise _fail(form, "(abs ...) takes a binder name and a body")
                todo.append((form, _expect_string(rest[0], "binder name")))
                todo.append(rest[1])
            elif head == "app":
                if len(rest) != 2:
                    raise _fail(form, "(app ...) takes two terms")
                todo.append((form, None))
                todo.append(rest[1])
                todo.append(rest[0])
            else:
                raise _fail(form, f"unknown term keyword '{head}'")
        except ValueError as exc:
            raise _fail(form, str(exc)) from exc
    return built[0]


def _checked_term(node: Sexp, where: str) -> Term:
    term = _term_from_sexp(node)
    if not is_well_formed(term):
        raise _fail(node, f"{where}: bound index escapes its binders")
    return term


def _parse_goal(form: SList) -> Goal:
    subgoals: list[Term] = []
    for entry in form.items[1:]:
        sub = _expect_list(entry, "subgoal")
        if len(sub.items) != 2:
            raise _fail(sub, "(subgoal ...) takes one term")
        subgoals.append(_checked_term(sub.items[1], "subgoal"))
    if not subgoals:
        raise _fail(form, "a goal needs at least one subgoal")
    return Goal(tuple(subgoals))


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
    try:
        form = parse_sexp(text)
    except SexpError as exc:
        raise CaseError(str(exc)) from exc
    case = _expect_list(form, "case")
    if len(case.items) < 4:
        raise _fail(case, "(case ...) takes an id, a goal, a context, and argument sets")
    case_id = _expect_string(case.items[1], "case id")
    goal = _parse_goal(_expect_list(case.items[2], "goal"))
    context = _parse_context(_expect_list(case.items[3], "context"))
    arg_sets: dict[str, InductArgs] = {}
    for entry in case.items[4:]:
        args_form = _expect_list(entry, "args")
        args_id, args = _parse_args(args_form, context)
        if args_id in arg_sets:
            raise _fail(args_form, f"duplicate argument set '{args_id}'")
        arg_sets[args_id] = args
    return CorpusCase(case_id, goal, context, arg_sets)


def parse_term_sexp(text: str) -> Term:
    try:
        return _term_from_sexp(parse_sexp(text))
    except SexpError as exc:
        raise CaseError(str(exc)) from exc
