"""Reference s-expression reader: the one lifter shipped before its reader
became a single regex pass over an explicit stack.

It reads one character at a time and recurses once per nesting level, so
it raises RecursionError on deeply nested text.  It is kept only as the
oracle `tests/test_sexp.py` compares `lifter.sexp.parse_sexp` against:
the same tree, with the same line and column on every node, or the same
`SexpError`.  It is the old reader unchanged but for one fix: an unknown
escape is reported at its backslash, where the old reader gave a column
of -1 when the escaped character was a newline.  Do not optimise it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from lifter.sexp import SexpError


@dataclass(frozen=True)
class SAtom:
    text: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SString:
    text: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SList:
    items: tuple["Sexp", ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Sexp = Union[SAtom, SString, SList]

_DELIMS = set('()";')


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_blank(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch.isspace():
                self._advance()
            elif ch == ";":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def read(self) -> Sexp:
        self.skip_blank()
        if self.pos >= len(self.text):
            raise SexpError("unexpected end of input", self.line, self.col)
        line, col = self.line, self.col
        ch = self._peek()
        if ch == "(":
            self._advance()
            items: list[Sexp] = []
            while True:
                self.skip_blank()
                if self.pos >= len(self.text):
                    raise SexpError("unbalanced parenthesis", line, col)
                if self._peek() == ")":
                    self._advance()
                    return SList(tuple(items), line, col)
                items.append(self.read())
        if ch == ")":
            raise SexpError("unexpected ')'", line, col)
        if ch == '"':
            return self._read_string(line, col)
        return self._read_atom(line, col)

    def _read_string(self, line: int, col: int) -> SString:
        self._advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise SexpError("unterminated string", line, col)
            ch = self._advance()
            if ch == '"':
                return SString("".join(chars), line, col)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise SexpError("unterminated string", line, col)
                at, esc = (self.line, self.col - 1), self._advance()
                if esc not in ('"', "\\"):
                    raise SexpError(f"unknown escape '\\{esc}'", *at)
                chars.append(esc)
            else:
                chars.append(ch)

    def _read_atom(self, line: int, col: int) -> SAtom:
        chars: list[str] = []
        while self.pos < len(self.text):
            ch = self._peek()
            if ch.isspace() or ch in _DELIMS:
                break
            chars.append(self._advance())
        return SAtom("".join(chars), line, col)


def parse_sexp(text: str) -> Sexp:
    """Read exactly one s-expression; trailing content is an error."""
    reader = _Reader(text)
    form = reader.read()
    reader.skip_blank()
    if reader.pos < len(reader.text):
        raise SexpError("trailing content after form", reader.line, reader.col)
    return form
