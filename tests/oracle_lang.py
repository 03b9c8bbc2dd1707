"""Reference assertion lexer: the one lifter shipped before its lexer became
one compiled token pattern run in a loop.

It reads one character at a time through a nested `step` closure that
moves the line and column along with every character.  It is kept only as
the oracle `tests/test_lang.py` compares `lifter.lang._lex` against: the
same tokens (kind, text, line, col), or the same `ParseError` (message,
line, col).  It is the old lexer unchanged.  Do not optimise it.
"""

from __future__ import annotations

from lifter.lang import ParseError, Token


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line, col = 1, 1

    def step(n: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(n):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < len(text):
        ch = text[i]
        if ch.isspace():
            step()
            continue
        if text.startswith("(*", i):
            start_line, start_col = line, col
            depth = 0
            while i < len(text):
                if text.startswith("(*", i):
                    depth += 1
                    step(2)
                elif text.startswith("*)", i):
                    depth -= 1
                    step(2)
                    if depth == 0:
                        break
                else:
                    step()
            if depth != 0:
                raise ParseError("unterminated comment", start_line, start_col)
            continue
        if ch in "():.,":
            tokens.append(Token(ch, ch, line, col))
            step()
            continue
        if text.startswith("->", i):
            tokens.append(Token("->", "->", line, col))
            step(2)
            continue
        if text.startswith("/\\", i):
            tokens.append(Token("/\\", "/\\", line, col))
            step(2)
            continue
        if text.startswith("\\/", i):
            tokens.append(Token("\\/", "\\/", line, col))
            step(2)
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            step(j - i)
            tokens.append(Token("word", word, start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
