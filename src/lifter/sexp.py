"""Small s-expression reader with line/column error reporting.

Supports lists, double-quoted strings (with \\" and \\\\ escapes), bare
atoms, and ';' comments running to end of line.  Every node remembers where
it started so later validation can point at the offending form.

One compiled pattern splits the text into tokens in a single `re.finditer`
pass, and an explicit stack of open lists builds the tree, so nesting depth
is bounded by memory rather than by Python's recursion limit.  A node keeps
the text and its offset in it; the line and column are counted from the
offset only when a diagnostic asks for them.

The same token loop reads case files (`read_case`), with a pattern that
also takes a whole leaf form such as (const "x"), and an opener such as
(app or (abs "y", as one token.  There every term form -- (const "s"),
(free "s"), (schematic "s"), (bound N), (app T T) and (abs "s" T) -- is
reduced on the reader's stack as its ')' closes: it becomes the id of its
key in a TermTable, so each distinct term is built once, as its canonical
Term, and no term is built as a list.  Any other layout (line breaks,
comments inside a form, "(app(") takes the general tokens and reduces the
same way.  Each bound index is checked against the number of abs forms
around it as it is read.  A term form that does not reduce is read again
as a plain list if ingest asks for its items, to diagnose it.
"""

from __future__ import annotations

import re

from .errors import PositionedError
from .terms import App, Bound, Const, Free, Lambda, Schematic, Term, TermTable


class SexpError(PositionedError):
    """S-expression text that does not read."""


class _Node:
    """Where a node starts in the text it was read from."""

    __slots__ = ("source", "offset")

    @property
    def line(self) -> int:
        return _position(self.source, self.offset)[0]

    @property
    def col(self) -> int:
        return _position(self.source, self.offset)[1]


class SAtom(_Node):
    __slots__ = ("text",)

    def __init__(self, text: str, source: str, offset: int):
        self.text = text
        self.source = source
        self.offset = offset


class SString(_Node):
    __slots__ = ("text",)

    def __init__(self, text: str, source: str, offset: int):
        self.text = text
        self.source = source
        self.offset = offset


class SList(_Node):
    __slots__ = ("items",)

    def __init__(self, items: tuple["Sexp", ...], source: str, offset: int):
        self.items = items
        self.source = source
        self.offset = offset


class STerm(_Node):
    """A term form of a case, reduced to its canonical Term.  `closed` is
    False when a bound index in it escapes its binders."""

    __slots__ = ("term", "closed")

    def __init__(self, term: Term, closed: bool, source: str, offset: int):
        self.term = term
        self.closed = closed
        self.source = source
        self.offset = offset


class _Unreduced(SList):
    """A term form of a case that did not reduce: a plain list, read again
    from its text the first time its items are asked for.  A form inside
    another that fails too is never asked, so no text is read twice."""

    __slots__ = ("end",)

    def __init__(self, source: str, offset: int, end: int):
        self.source = source
        self.offset = offset
        self.end = end

    def __getattr__(self, name: str):
        if name != "items":
            raise AttributeError(name)
        self.items = _read(self.source, None, self.offset, self.end).items
        return self.items


Sexp = SAtom | SString | SList

# Token groups, numbered alike in both patterns: 1 ')'; 2, 3, 4 the name of
# a whole (const ...), (free ...) or (schematic ...) form; 5 the index of a
# whole (bound ...) form; 6 an (app opener; 7 the binder of an (abs "y"
# opener; 8 any other '('; 9 blank; 10 string body and 11 its closing quote
# (empty when the string is unterminated); 12 an atom.  Groups 2-7 match
# only names without escapes and indices of at most nine digits, and only
# when reading a case.  Every character starts some token and each token
# takes the blanks after it, so the matches tile the text.  `\s` matches
# exactly what `str.isspace` accepts.
_WHOLE_FORMS = (
    r'const\s*"([^"\\]+)"\s*\)|free\s*"([^"\\]+)"\s*\)|schematic\s*"([^"\\]+)"\s*\)'
    r'|bound\s+([0-9]{1,9})\s*\)|(app)(?=[\s()";])|abs\s*"([^"\\]+)"'
)
_GENERAL = r'(\s+|;[^\n]*)|"([^"\\]*(?:\\[\s\S][^"\\]*)*)("?)|([^\s()";]+)'
# Both are compiled on first use, and then found in `re`'s cache.
_CASE_TOKEN = rf"(?:(\))|\(\s*(?:{_WHOLE_FORMS}|())|{_GENERAL})\s*"
_PLAIN_TOKEN = rf"(?:(\))|\(\s*(?:(?!)(?:{_WHOLE_FORMS})|())|{_GENERAL})\s*"
_ESCAPE = re.compile(r"\\([\s\S])")

# What an open list is, as far as its items so far tell: a plain list, one
# whose head is yet to come, or a term form (ABS_BINDER is an abs form
# still waiting for its binder).  A term form whose items break its shape
# becomes FAILED.  Kinds from APP on hold terms; CONST, FREE and SCHEMATIC
# are also the token groups of their whole forms.
LIST, PENDING, CONST, FREE, SCHEMATIC, FAILED, BOUND, ABS_BINDER, APP, ABS = range(10)
_KEYWORDS = {
    "const": CONST, "free": FREE, "schematic": SCHEMATIC,
    "bound": BOUND, "abs": ABS_BINDER, "app": APP,
}
_LEAVES = (None, None, Const, Free, Schematic)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`; only '\\n' ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(message: str, text: str, offset: int) -> SexpError:
    return SexpError(message, *_position(text, offset))


def _unescape(text: str, body: str, offset: int) -> str:
    """A string body, starting at `offset` in `text`, with its escapes undone."""
    for esc in _ESCAPE.finditer(body):
        if esc.group(1) not in ('"', "\\"):
            raise _error(f"unknown escape '\\{esc.group(1)}'", text, offset + esc.start())
    return _ESCAPE.sub(r"\1", body)


def parse_sexp(text: str) -> Sexp:
    """Read exactly one s-expression; trailing content is an error."""
    return _read(text, None, 0, len(text))


def read_case(text: str, table: TermTable) -> Sexp | STerm:
    """Read exactly one s-expression, with every term form in it that
    reduces given as an STerm whose term is interned in `table`."""
    return _read(text, table, 0, len(text))


def _read(text: str, table: TermTable | None, pos: int, endpos: int) -> Sexp | STerm:
    """The one form in text[pos:endpos].  Each open list is a frame: its
    items, its kind, where it starts, how many abs forms enclose its items
    inside one term, and the escape count when it opened.  A term form
    whose items are not all reduced terms fails, so a term that reduces
    has abs forms around each of its bound indices just as counted, and is
    closed when no escape was counted while it was read.  (A bound index
    outside any term form is an STerm of its own, never closed.)"""
    if table is None:
        tokens, keywords = re.compile(_PLAIN_TOKEN).finditer(text, pos, endpos), {}
    else:
        tokens, keywords = re.compile(_CASE_TOKEN).finditer(text, pos, endpos), _KEYWORDS
        ids, add, terms = table.ids, table.add, table.terms
    stack: list[tuple[list, int, int, int, int]] = []
    items: list = []  # of the innermost open list, or the top-level form
    kind, start, binders, mark = LIST, pos, 0, 0
    escapes = 0  # bound indices read so far that escape their binders
    for token in tokens:
        k = token.lastindex
        if not stack:  # at the top level
            if items and k != 9:
                raise _error("trailing content after form", text, token.start())
            if k == 1:
                raise _error("unexpected ')'", text, token.start())
        if k == 1:  # ')': the closing list becomes a term id (tid), or a node
            key = node = None
            if kind == APP:
                if len(items) == 2:
                    key = (App, items[0], items[1])
            elif kind <= PENDING:
                node = SList(tuple(items), text, start)
            elif kind == ABS and len(items) == 2 and items[0]:
                key = (Lambda, items[0], items[1])
            elif CONST <= kind <= SCHEMATIC and len(items) == 1 and items[0]:
                key = (_LEAVES[kind], items[0])
            elif kind == BOUND and len(items) == 1 and items[0].isdigit():
                try:
                    index = int(items[0])
                except ValueError:  # a digit that is not a decimal one, or too many
                    pass
                else:
                    escapes += index >= binders
                    key = (Bound, index)
            tid = None
            if key is not None:
                tid = ids.get(key)
                if tid is None:
                    tid = add(key)
            closed, list_start = escapes == mark, start
            enclosing, kind, start, binders, mark = stack.pop()
            if tid is not None and kind >= APP:
                enclosing.append(tid)
            elif kind <= PENDING:
                if tid is not None:
                    node = STerm(terms[tid], closed, text, list_start)
                elif node is None:  # a term form that did not reduce
                    node = _Unreduced(text, list_start, token.start() + 1)
                enclosing.append(node)
                kind = LIST
            else:
                kind = FAILED
            items = enclosing
        elif k <= 5:  # a whole leaf or bound form
            if k == 5:
                index = int(token.group(5))
                escapes += index >= binders
                key = (Bound, index)
            else:
                key = (_LEAVES[k], token.group(k))
            tid = ids.get(key)
            if tid is None:
                tid = add(key)
            if kind >= APP:
                items.append(tid)
            elif kind <= PENDING:
                items.append(STerm(terms[tid], k != 5, text, token.start()))
                kind = LIST
            else:
                kind = FAILED
        elif k <= 8:  # an opener: (app, (abs "y", or a '(' whose head is yet to come
            if kind >= APP:
                inner = binders
            else:
                inner, kind = 0, LIST if kind <= PENDING else FAILED
            stack.append((items, kind, start, binders, mark))
            start, mark = token.start(), escapes
            if k == 6:
                items, kind, binders = [], APP, inner
            elif k == 7:
                items, kind, binders = [token.group(7)], ABS, inner + 1
            else:
                items, kind, binders = [], PENDING, inner
        elif k == 12:  # an atom
            atom = token.group(12)
            if kind == PENDING:
                kind = keywords.get(atom, LIST)
                if kind == LIST:
                    items.append(SAtom(atom, text, token.start()))
                elif kind == ABS_BINDER:
                    binders += 1
            elif kind == LIST:
                items.append(SAtom(atom, text, token.start()))
            elif kind == BOUND:
                items.append(atom)
            else:
                kind = FAILED
        elif k == 11:  # a string
            body = token.group(10)
            if "\\" in body:
                body = _unescape(text, body, token.start(10))
            if not token.group(11):
                raise _error("unterminated string", text, token.start())
            if kind <= PENDING:
                items.append(SString(body, text, token.start()))
                kind = LIST
            elif CONST <= kind <= SCHEMATIC:
                items.append(body)
            elif kind == ABS_BINDER:
                items.append(body)
                kind = ABS
            else:
                kind = FAILED
    if stack:
        raise _error("unbalanced parenthesis", text, start)
    if not items:
        raise _error("unexpected end of input", text, endpos)
    return items[0]


def quote_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
