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
also takes a whole leaf form such as (const "x") or (bound 0), and an
opener such as (app or (abs "y", as one token.  Term forms in that layout,
the one `ingest.render_term_sexp` prints, are reduced on the reader's stack
as their ')' closes: each becomes the id of its key in a TermTable, so each
distinct term is built once, as its canonical Term.  Blanks and comments
may stand around subterms.  Each bound index is checked against the number
of abs forms around it as it is read.  Any other term form (a comment
inside a leaf form, a name with an escape, an item that is not a reduced
term) is an _Unreduced: a plain list, read again from its text if ingest
asks for its items.
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
    """A term form of a case that the reader did not reduce: a plain list,
    read again from its text the first time its items are asked for.  A
    form inside another that is not reduced either is never asked, so no
    text is read twice."""

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
# opener; 8 the '(' of any other term form, one whose head is a term
# keyword; 9 any other '('; 10 blank; 11 string body and 12 its closing
# quote (empty when the string is unterminated); 13 an atom.  Groups 2-8
# match only when reading a case, and groups 2-7 only names without
# escapes and indices of at most nine digits.  Every character starts some
# token and each token takes the blanks after it, so the matches tile the
# text.  `\s` matches exactly what `str.isspace` accepts.
_TERM_FORMS = (
    r'const\s*"([^"\\]+)"\s*\)|free\s*"([^"\\]+)"\s*\)|schematic\s*"([^"\\]+)"\s*\)'
    r'|bound\s+([0-9]{1,9})\s*\)|(app)(?=[\s()";])|abs\s*"([^"\\]+)"'
    r'|(?=(?:;[^\n]*\n\s*)*(?:const|free|schematic|bound|app|abs)(?![^\s()";]))()'
)
_GENERAL = r'(\s+|;[^\n]*)|"([^"\\]*(?:\\[\s\S][^"\\]*)*)("?)|([^\s()";]+)'
# Both are compiled on first use, and then found in `re`'s cache.
_CASE_TOKEN = rf"(?:(\))|\(\s*(?:{_TERM_FORMS}|())|{_GENERAL})\s*"
_PLAIN_TOKEN = rf"(?:(\))|\(\s*(?:(?!)(?:{_TERM_FORMS})|())|{_GENERAL})\s*"
_ESCAPE = re.compile(r"\\([\s\S])")

# What an open list is: a plain list, a term form that may still reduce,
# or one that will not (FAILED), whose items are not kept.  Only a plain
# list holds nodes; APP and ABS hold term ids.
LIST, FAILED, APP, ABS = range(4)
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
    inside one term (none in a plain list, which is never inside a term),
    and the escape count when it opened.  A term form reduces only when
    it is written as the case tokens take it, and then only when its items
    are all reduced terms, so a term that reduces has abs forms around
    each of its bound indices just as counted, and is closed when no
    escape was counted while it was read.  (A bound index outside any term
    form is an STerm of its own, never closed.)  Any other term form is an
    _Unreduced, for ingest to read."""
    if table is None:
        tokens = re.compile(_PLAIN_TOKEN).finditer(text, pos, endpos)
    else:
        tokens = re.compile(_CASE_TOKEN).finditer(text, pos, endpos)
        ids, add, terms = table.ids, table.add, table.terms
    stack: list[tuple[list, int, int, int, int]] = []
    items: list = []  # of the innermost open list, or the top-level form
    kind, start, binders, mark = LIST, pos, 0, 0
    escapes = 0  # bound indices read so far that escape their binders
    for token in tokens:
        k = token.lastindex
        if not stack:  # at the top level
            if items and k != 10:
                raise _error("trailing content after form", text, token.start())
            if k == 1:
                raise _error("unexpected ')'", text, token.start())
        if k == 1:  # ')': the closing list becomes a term id (tid), or a node
            tid = node = None
            if kind >= APP and len(items) == 2:
                key = (App if kind == APP else Lambda, items[0], items[1])
                tid = ids.get(key)
                if tid is None:
                    tid = add(key)
            elif kind == LIST:
                node = SList(tuple(items), text, start)
            closed, list_start = escapes == mark, start
            items, kind, start, binders, mark = stack.pop()
            if tid is not None and kind >= APP:
                items.append(tid)
            elif kind == LIST:
                if tid is not None:
                    node = STerm(terms[tid], closed, text, list_start)
                elif node is None:  # a term form that did not reduce
                    node = _Unreduced(text, list_start, token.start() + 1)
                items.append(node)
            else:
                kind = FAILED
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
            elif kind == LIST:
                items.append(STerm(terms[tid], k != 5, text, token.start()))
        elif k <= 7:  # an (app or (abs "y" opener
            stack.append((items, kind, start, binders, mark))
            start, mark, items = token.start(), escapes, []
            if kind == FAILED:  # a form inside a failed one fails too
                continue
            if k == 6:
                kind = APP
            else:
                items, kind = [token.group(7)], ABS
                binders += 1
        elif k <= 9:  # any other '(': a plain list, or a term form that will not reduce
            if kind >= APP:  # a term form's items are terms
                kind = FAILED
            stack.append((items, kind, start, binders, mark))
            start, items = token.start(), []
            if k == 8:
                kind = FAILED
        elif k == 13:  # an atom
            if kind == LIST:
                items.append(SAtom(token.group(13), text, token.start()))
            else:
                kind = FAILED
        elif k == 12:  # a string
            body = token.group(11)
            if "\\" in body:
                body = _unescape(text, body, token.start(11))
            if not token.group(12):
                raise _error("unterminated string", text, token.start())
            if kind == LIST:
                items.append(SString(body, text, token.start()))
            else:
                kind = FAILED
    if stack:
        raise _error("unbalanced parenthesis", text, start)
    if not items:
        raise _error("unexpected end of input", text, endpos)
    return items[0]


def quote_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
