"""The assertion language: concrete syntax, AST, sorts, and rendering.

Grammar (whitespace-insensitive; "(*" ... "*)" comments nest):

    assertion := imp
    imp    := or ( '->' or )*                       right-associative
    or     := and ( '\\/' and )*
    and    := unary ( '/\\' unary )*
    unary  := 'Not' unary | 'True' | 'False' | quant | atomic | '(' assertion ')'
    quant  := ('EX' | 'ALL') IDENT ':' dom '.' assertion
    dom    := 'number' | 'rule' | 'term' | 'term_occurrence'
            | 'term' 'IN' ('induction_term' | 'arbitrary_term')
            | 'induction_term' | 'arbitrary_term'          sugar for the line above
            | 'term_occurrence' 'IN' IDENT ':' 'term'
    atomic := IDENT INFIX IDENT | PREFIX IDENT
            | CALL '(' arg ( ',' arg )* ')'        arg := IDENT | pattern literal

A quantifier body extends as far right as possible; parentheses cut it off.
Parentheses and quantifiers nest at most MAX_NESTING (100) deep; a deeper
one is a ParseError at its '(' or EX/ALL.  Chains of Not, ->, \\/ and /\\
may be of any length.
Variables range over one of four sorts fixed by the quantifier's domain:
numbers, rule names, terms, or term occurrences.  `sort_check` rejects any
use of a variable at the wrong sort and any unbound variable.

The lexer runs one compiled token pattern in a loop: each match skips
blanks and takes one token, a comment opener "(*", a word, a punctuation
mark or connective, or any other character, which is an error.  A word is
a run of letters, digits and "_" whose first character is a letter or "_".
No token spans a line, so the line and column come from counting the
newlines in what each match skips.  Nested comments are not regular: at a
"(*" token, a short scan over the "(*" and "*)" marks from there counts
the depth down to zero, and the next match starts after the closing mark.
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import LifterError, PositionedError
from .record import Record, set_field


class ParseError(PositionedError):
    """Assertion text that does not lex or parse."""


class SortError(LifterError):
    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        if pos is not None:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)
        self.pos = pos


class Sort(Enum):
    NUMBER = "number"
    RULE = "rule"
    TERM = "term"
    OCCURRENCE = "term_occurrence"


class Pattern(Enum):
    ALL_ONLY_VAR = "all_only_var"
    ALL_CONSTRUCTOR = "all_constructor"
    MIXED = "mixed"


class Modifier(Enum):
    INDUCTION = "induction_term"
    ARBITRARY = "arbitrary_term"


class QuantKind(Enum):
    EXISTS = "EX"
    FORALL = "ALL"


class AllNumbers(Record):
    __slots__ = ()


class AllRules(Record):
    __slots__ = ()


class AllTerms(Record):
    __slots__ = ()


class AllOccs(Record):
    __slots__ = ()


class TermsIn(Record):
    __slots__ = __match_args__ = _fields = ("modifier",)

    def __init__(self, modifier: Modifier):
        set_field(self, "modifier", modifier)


class OccsOf(Record):
    __slots__ = __match_args__ = _fields = ("term_var",)

    def __init__(self, term_var: str):
        set_field(self, "term_var", term_var)


DomainSpec = AllNumbers | AllRules | AllTerms | AllOccs | TermsIn | OccsOf


class AtomicName(Enum):
    IS_RULE_OF = "is_rule_of"
    TERM_OCCURRENCE_IS_OF_TERM = "term_occurrence_is_of_term"
    ARE_SAME_TERM = "are_same_term"
    IS_IN_TERM_OCCURRENCE = "is_in_term_occurrence"
    IS_ATOMIC = "is_atomic"
    IS_CONSTANT = "is_constant"
    IS_RECURSIVE_CONSTANT = "is_recursive_constant"
    IS_VARIABLE = "is_variable"
    IS_FREE_VARIABLE = "is_free_variable"
    IS_BOUND_VARIABLE = "is_bound_variable"
    IS_LAMBDA = "is_lambda"
    IS_APPLICATION = "is_application"
    IS_AN_ARGUMENT_OF = "is_an_argument_of"
    IS_NTH_ARGUMENT_OF = "is_nth_argument_of"
    IS_NTH_INDUCTION_TERM = "is_nth_induction_term"
    IS_NTH_ARBITRARY_TERM = "is_nth_arbitrary_term"
    PATTERN_IS = "pattern_is"
    IS_AT_DEEPEST = "is_at_deepest"


# Argument sorts per atomic; the Pattern class itself marks the one slot
# that takes a pattern literal instead of a variable.
SIGNATURES: dict[AtomicName, tuple] = {
    AtomicName.IS_RULE_OF: (Sort.RULE, Sort.OCCURRENCE),
    AtomicName.TERM_OCCURRENCE_IS_OF_TERM: (Sort.OCCURRENCE, Sort.TERM),
    AtomicName.ARE_SAME_TERM: (Sort.TERM, Sort.TERM),
    AtomicName.IS_IN_TERM_OCCURRENCE: (Sort.OCCURRENCE, Sort.OCCURRENCE),
    AtomicName.IS_ATOMIC: (Sort.OCCURRENCE,),
    AtomicName.IS_CONSTANT: (Sort.OCCURRENCE,),
    AtomicName.IS_RECURSIVE_CONSTANT: (Sort.OCCURRENCE,),
    AtomicName.IS_VARIABLE: (Sort.OCCURRENCE,),
    AtomicName.IS_FREE_VARIABLE: (Sort.OCCURRENCE,),
    AtomicName.IS_BOUND_VARIABLE: (Sort.OCCURRENCE,),
    AtomicName.IS_LAMBDA: (Sort.OCCURRENCE,),
    AtomicName.IS_APPLICATION: (Sort.OCCURRENCE,),
    AtomicName.IS_AN_ARGUMENT_OF: (Sort.OCCURRENCE, Sort.OCCURRENCE),
    AtomicName.IS_NTH_ARGUMENT_OF: (Sort.OCCURRENCE, Sort.NUMBER, Sort.OCCURRENCE),
    AtomicName.IS_NTH_INDUCTION_TERM: (Sort.TERM, Sort.NUMBER),
    AtomicName.IS_NTH_ARBITRARY_TERM: (Sort.TERM, Sort.NUMBER),
    AtomicName.PATTERN_IS: (Sort.NUMBER, Sort.OCCURRENCE, Pattern),
    AtomicName.IS_AT_DEEPEST: (Sort.OCCURRENCE,),
}

# Each atomic's syntax follows from its signature: one-argument atomics are
# written prefix, the names in CALL_NAMES as calls, and the other
# two-argument atomics infix.
CALL_NAMES = frozenset(
    {AtomicName.ARE_SAME_TERM, AtomicName.IS_NTH_ARGUMENT_OF, AtomicName.PATTERN_IS}
)
PREFIX_NAMES = frozenset(n for n, sig in SIGNATURES.items() if len(sig) == 1)
INFIX_NAMES = frozenset(n for n, sig in SIGNATURES.items() if len(sig) == 2) - CALL_NAMES

Position = tuple[int, int]


class _Node(Record):
    """The base of the assertion classes.  Nodes keep a __dict__, where the
    interpreter caches each node's compiled program; equality, hashing and
    repr read only the fields."""


class BoolLit(_Node):
    __match_args__ = _fields = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


class Not(_Node):
    __match_args__ = _fields = ("body",)

    def __init__(self, body: Assertion):
        set_field(self, "body", body)


class _Binary(_Node):
    __match_args__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: Assertion, rhs: Assertion):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Imp(_Binary):
    pass


class Quant(_Node):
    """A quantifier; `pos`, where it starts in the text, is not compared."""

    _fields = ("kind", "var", "domain", "body")
    __match_args__ = (*_fields, "pos")

    def __init__(
        self,
        kind: QuantKind,
        var: str,
        domain: DomainSpec,
        body: Assertion,
        pos: Position | None = None,
    ):
        set_field(self, "kind", kind)
        set_field(self, "var", var)
        set_field(self, "domain", domain)
        set_field(self, "body", body)
        set_field(self, "pos", pos)


class Atomic(_Node):
    """An atomic call; `pos`, where it starts in the text, is not compared."""

    _fields = ("name", "args")
    __match_args__ = (*_fields, "pos")

    def __init__(self, name: AtomicName, args: tuple, pos: Position | None = None):
        set_field(self, "name", name)
        set_field(self, "args", args)  # variable names (str) and, for pattern_is, one Pattern
        set_field(self, "pos", pos)


Assertion = BoolLit | Not | And | Or | Imp | Quant | Atomic


_ATOMIC_BY_TEXT = {name.value: name for name in AtomicName}
_PATTERN_BY_TEXT = {p.value: p for p in Pattern}
_KEYWORDS = frozenset(
    {"EX", "ALL", "IN", "Not", "True", "False"}
    | {s.value for s in Sort}
    | {m.value for m in Modifier}
    | set(_PATTERN_BY_TEXT)
)
RESERVED_WORDS = _KEYWORDS | set(_ATOMIC_BY_TEXT)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # one of ( ) : . , -> /\ \/ word eof
        self.text = text
        self.line = line
        self.col = col


# Blanks, then one token: 1 the "(*" that opens a comment, 2 a word, 3 a
# punctuation mark or connective, 4 any other character; or the end of the
# text, where no group matches.  \s and \w match what str.isspace() and
# str.isalnum() (or "_") accept.  No token holds a newline.
_TOKEN = re.compile(r"\s*(?:(\(\*)|(\w+)|([():.,]|->|/\\|\\/)|(.)|\Z)")
_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    # The current token's line, the offset that line starts at, and the
    # offset up to which newlines have been counted.
    line, line_start, counted = 1, 0, 0
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastindex
        start = m.start(kind) if kind else m.end()
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        col = start - line_start + 1
        if kind is None:
            tokens.append(Token("eof", "", line, col))
            return tokens
        if kind == 1:
            depth = 0
            for mark in _COMMENT_MARK.finditer(text, start):
                depth += 1 if mark[0] == "(*" else -1
                if depth == 0:
                    break
            else:
                raise ParseError("unterminated comment", line, col)
            pos = mark.end()
            continue
        token = m[kind]
        if kind == 3:
            tokens.append(Token(token, token, line, col))
        elif kind == 2 and (token[0].isalpha() or token[0] == "_"):
            tokens.append(Token("word", token, line, col))
        else:
            raise ParseError(f"unexpected character {token[0]!r}", line, col)
        pos = m.end()


# Far deeper than any real heuristic, and shallow enough that parsing (about
# five Python frames per level), compiling and evaluating stay well inside
# Python's default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    """Recursive descent, with a loop for each chain of one connective.
    Only parentheses and quantifiers recurse, and `nest` bounds how deep."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0  # parentheses and quantifiers open around the current token

    @property
    def cur(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.index += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.cur.kind != kind:
            raise self.error(f"expected {what or kind!r}")
        return self.advance()

    def at_word(self, text: str) -> bool:
        return self.cur.kind == "word" and self.cur.text == text

    def error(self, message: str) -> ParseError:
        tok = self.cur
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(f"{message}, found {found}", tok.line, tok.col)

    def nest(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"parentheses and quantifiers nest deeper than {MAX_NESTING} levels",
                tok.line,
                tok.col,
            )

    def ident(self) -> str:
        tok = self.cur
        if tok.kind != "word":
            raise self.error("expected a variable name")
        if tok.text in RESERVED_WORDS:
            raise self.error(f"reserved word '{tok.text}' cannot name a variable")
        self.advance()
        return tok.text

    def imp(self) -> Assertion:
        parts = [self.or_()]
        while self.cur.kind == "->":
            self.advance()
            parts.append(self.or_())
        node = parts.pop()
        while parts:
            node = Imp(parts.pop(), node)
        return node

    def or_(self) -> Assertion:
        node = self.and_()
        while self.cur.kind == "\\/":
            self.advance()
            node = Or(node, self.and_())
        return node

    def and_(self) -> Assertion:
        node = self.unary()
        while self.cur.kind == "/\\":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Assertion:
        tok = self.cur
        if tok.kind == "(":
            self.nest(tok)
            self.advance()
            node = self.imp()
            self.expect(")", "')'")
            self.depth -= 1
            return node
        if tok.kind != "word":
            raise self.error("expected an assertion")
        if tok.text == "Not":
            # A run of Not is read in a loop, so its length costs no stack.
            nots = 0
            while self.cur.kind == "word" and self.cur.text == "Not":
                self.advance()
                nots += 1
            node = self.unary()
            for _ in range(nots):
                node = Not(node)
            return node
        if tok.text == "True":
            self.advance()
            return BoolLit(True)
        if tok.text == "False":
            self.advance()
            return BoolLit(False)
        if tok.text in ("EX", "ALL"):
            return self.quant()
        name = _ATOMIC_BY_TEXT.get(tok.text)
        if name in PREFIX_NAMES:
            self.advance()
            return Atomic(name, (self.ident(),), (tok.line, tok.col))
        if name in CALL_NAMES:
            self.advance()
            return self.call_atomic(name, tok)
        if name is not None:
            raise self.error(f"'{tok.text}' is written infix between two variables")
        if tok.text in RESERVED_WORDS:
            raise self.error(f"unexpected '{tok.text}'")
        return self.infix_atomic()

    def quant(self) -> Assertion:
        tok = self.advance()
        self.nest(tok)
        kind = QuantKind.EXISTS if tok.text == "EX" else QuantKind.FORALL
        var = self.ident()
        self.expect(":", "':'")
        domain = self.domain()
        self.expect(".", "'.'")
        body = self.imp()
        self.depth -= 1
        return Quant(kind, var, domain, body, (tok.line, tok.col))

    def domain(self) -> DomainSpec:
        tok = self.cur
        if tok.kind != "word":
            raise self.error("expected a quantifier domain")
        if tok.text == "number":
            self.advance()
            return AllNumbers()
        if tok.text == "rule":
            self.advance()
            return AllRules()
        if tok.text in ("induction_term", "arbitrary_term"):
            self.advance()
            return TermsIn(Modifier(tok.text))
        if tok.text == "term":
            self.advance()
            if not self.at_word("IN"):
                return AllTerms()
            self.advance()
            mod = self.cur
            if mod.kind != "word" or mod.text not in ("induction_term", "arbitrary_term"):
                raise self.error("expected induction_term or arbitrary_term")
            self.advance()
            return TermsIn(Modifier(mod.text))
        if tok.text == "term_occurrence":
            self.advance()
            if not self.at_word("IN"):
                return AllOccs()
            self.advance()
            term_var = self.ident()
            self.expect(":", "':'")
            if not self.at_word("term"):
                raise self.error("expected 'term'")
            self.advance()
            return OccsOf(term_var)
        raise self.error("expected a quantifier domain")

    def call_atomic(self, name: AtomicName, tok: Token) -> Assertion:
        self.expect("(", "'('")
        args: list = [self.call_arg()]
        while self.cur.kind == ",":
            self.advance()
            args.append(self.call_arg())
        self.expect(")", "')'")
        want = len(SIGNATURES[name])
        if len(args) != want:
            raise ParseError(
                f"{name.value} takes {want} arguments, got {len(args)}", tok.line, tok.col
            )
        return Atomic(name, tuple(args), (tok.line, tok.col))

    def call_arg(self):
        tok = self.cur
        if tok.kind == "word" and tok.text in _PATTERN_BY_TEXT:
            self.advance()
            return _PATTERN_BY_TEXT[tok.text]
        return self.ident()

    def infix_atomic(self) -> Assertion:
        first = self.ident()
        tok = self.cur
        name = _ATOMIC_BY_TEXT.get(tok.text) if tok.kind == "word" else None
        if name not in INFIX_NAMES:
            raise self.error(f"expected an infix atomic after '{first}'")
        self.advance()
        second = self.ident()
        return Atomic(name, (first, second), (tok.line, tok.col))


def parse_assertion(text: str) -> Assertion:
    parser = _Parser(_lex(text))
    node = parser.imp()
    if parser.cur.kind != "eof":
        raise parser.error("trailing input after assertion")
    return node


def domain_sort(domain: DomainSpec) -> Sort:
    match domain:
        case AllNumbers():
            return Sort.NUMBER
        case AllRules():
            return Sort.RULE
        case AllTerms() | TermsIn():
            return Sort.TERM
        case AllOccs() | OccsOf():
            return Sort.OCCURRENCE
    raise TypeError(f"not a domain: {domain!r}")


def sort_check(assertion: Assertion) -> Assertion:
    """Verify every variable is bound and used at its binding sort.

    Nodes are checked left to right, depth first, from an explicit stack,
    so a long chain of connectives takes no Python stack per link."""
    todo: list[tuple[Assertion, dict[str, Sort]]] = [(assertion, {})]
    while todo:
        node, env = todo.pop()
        _check(node, env, todo)
    return assertion


def _check(node: Assertion, env: dict[str, Sort], todo: list) -> None:
    """Check one node; its subformulas go on `todo`, leftmost last."""
    while isinstance(node, Not):
        node = node.body
    match node:
        case BoolLit():
            pass
        case And(lhs, rhs) | Or(lhs, rhs) | Imp(lhs, rhs):
            todo += ((rhs, env), (lhs, env))
        case Quant(_, var, domain, body):
            if isinstance(domain, OccsOf):
                bound = env.get(domain.term_var)
                if bound is None:
                    raise SortError(f"unbound variable '{domain.term_var}'", node.pos)
                if bound is not Sort.TERM:
                    raise SortError(
                        f"'{domain.term_var}' bound at {bound.value}, used at term position",
                        node.pos,
                    )
            todo.append((body, {**env, var: domain_sort(domain)}))
        case Atomic(name, args):
            for slot, arg in zip(SIGNATURES[name], args):
                if slot is Pattern:
                    if not isinstance(arg, Pattern):
                        raise SortError(
                            f"{name.value} needs a pattern literal here", node.pos
                        )
                    continue
                if isinstance(arg, Pattern):
                    raise SortError(
                        f"pattern literal used at {slot.value} position of {name.value}",
                        node.pos,
                    )
                bound = env.get(arg)
                if bound is None:
                    raise SortError(f"unbound variable '{arg}'", node.pos)
                if bound is not slot:
                    raise SortError(
                        f"'{arg}' bound at {bound.value}, used at {slot.value} position",
                        node.pos,
                    )
        case _:
            raise TypeError(f"not an assertion: {node!r}")


def render_domain(domain: DomainSpec) -> str:
    match domain:
        case AllNumbers():
            return "number"
        case AllRules():
            return "rule"
        case AllTerms():
            return "term"
        case AllOccs():
            return "term_occurrence"
        case TermsIn(modifier):
            return f"term IN {modifier.value}"
        case OccsOf(term_var):
            return f"term_occurrence IN {term_var} : term"
    raise TypeError(f"not a domain: {domain!r}")


def render_assertion(assertion: Assertion) -> str:
    """Canonical one-line text; re-parsing yields an equal AST.  The text is
    put together from an explicit stack, so depth costs no Python stack."""
    out: list[str] = []
    # Items are text, or (node, min_level, tail).  Levels: 1 imp, 2 or,
    # 3 and, 4 unary.  `tail` is true when nothing follows to the right, so
    # a quantifier body may run to the end bare.
    todo: list = [(assertion, 1, True)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, min_level, tail = item
        match node:
            case BoolLit(value):
                parts: list = ["True" if value else "False"]
            case Atomic():
                parts = [_render_atomic(node)]
            case Not(body):
                parts = ["Not ( ", (body, 1, True), " )"]
            case Quant(kind, var, domain, body):
                parts = [f"{kind.value} {var} : {render_domain(domain)} . ", (body, 1, True)]
                if not tail:
                    parts = ["( ", *parts, " )"]
            case And(lhs, rhs) | Or(lhs, rhs) | Imp(lhs, rhs):
                level, op, lhs_level, rhs_level = _BINARY_LEVELS[node.__class__]
                wrap = min_level > level
                parts = [(lhs, lhs_level, False), op, (rhs, rhs_level, tail or wrap)]
                if wrap:
                    parts = ["( ", *parts, " )"]
            case _:
                raise TypeError(f"not an assertion: {node!r}")
        todo.extend(reversed(parts))
    return "".join(out)


# A connective's level, its text, and the levels of its two sides.
_BINARY_LEVELS = {And: (3, " /\\ ", 3, 4), Or: (2, " \\/ ", 2, 3), Imp: (1, " -> ", 2, 1)}


def _render_atomic(node: Atomic) -> str:
    def arg_text(arg) -> str:
        return arg.value if isinstance(arg, Pattern) else arg

    if node.name in PREFIX_NAMES:
        return f"{node.name.value} {node.args[0]}"
    if node.name in INFIX_NAMES:
        return f"{node.args[0]} {node.name.value} {node.args[1]}"
    inner = " , ".join(arg_text(a) for a in node.args)
    return f"{node.name.value} ( {inner} )"
