"""Small s-expression reader with line/column error reporting.

Supports lists, double-quoted strings (with \\" and \\\\ escapes), bare
atoms, and ';' comments running to end of line.  Every node remembers where
it started so later validation can point at the offending form.

One compiled pattern splits the text into tokens in a single `re.finditer`
pass, and an explicit stack of open lists builds the tree, so nesting depth
is bounded by memory rather than by Python's recursion limit.  A node keeps
the text and its offset in it; the line and column are counted from the
offset only when a diagnostic asks for them.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import LifterError


class SexpError(LifterError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


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


Sexp = Union[SAtom, SString, SList]

# Groups: 1 blank, 2 '(', 3 ')', 4 string body, 5 closing quote (empty when
# the string is unterminated); an atom matches no group.  Every character
# starts some token, so the matches tile the text.  `\s` matches exactly the
# characters `str.isspace` accepts.
_TOKEN = re.compile(r'(\s+|;[^\n]*)|(\()|(\))|"([^"\\]*(?:\\[\s\S][^"\\]*)*)("?)|[^\s()";]+')
_ESCAPE = re.compile(r"\\([\s\S])")


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
    open_lists: list[tuple[list[Sexp], int]] = []  # (enclosing items, offset of '(')
    items: list[Sexp] = []  # of the innermost open list, or the top-level form
    for token in _TOKEN.finditer(text):
        kind = token.lastindex
        if kind == 1:
            continue
        start = token.start()
        if items and not open_lists:
            raise _error("trailing content after form", text, start)
        if kind is None:
            items.append(SAtom(token.group(), text, start))
        elif kind == 2:
            open_lists.append((items, start))
            items = []
        elif kind == 3:
            if not open_lists:
                raise _error("unexpected ')'", text, start)
            enclosing, list_start = open_lists.pop()
            enclosing.append(SList(tuple(items), text, list_start))
            items = enclosing
        else:
            body = token.group(4)
            if "\\" in body:
                body = _unescape(text, body, token.start(4))
            if not token.group(5):
                raise _error("unterminated string", text, start)
            items.append(SString(body, text, start))
    if open_lists:
        raise _error("unbalanced parenthesis", text, open_lists[-1][1])
    if not items:
        raise _error("unexpected end of input", text, len(text))
    return items[0]


def quote_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
