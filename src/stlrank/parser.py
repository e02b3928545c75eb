"""Surface syntax for formulas: parser and printer.

Grammar (loosest binding first):

    formula    := implies
    implies    := or ("->" implies)?                  right associative
    or         := and ("|" and)*
    and        := unary ("&" unary)*
    unary      := "!" unary | ("G"|"F") interval? unary | atom_or_until
    atom_or_until := primary ("U" interval? primary)?  no chaining
    primary    := "(" formula ")" | "true" | "false" | comparison
    comparison := expr ("<"|"<="|">"|">="|"=="|"!=") expr
    expr       := term (("+"|"-") term)*
    term       := factor ("*" factor)*
    factor     := "-" factor | "abs" "(" expr ")" | number
                | ident | "d1" "(" ident ")" | "(" expr ")"
    interval   := "[" number "," (number | "inf") "]"
    number     := ([0-9]+ ("." [0-9]*)? | "." [0-9]+) ([eE] [+-]? [0-9]+)?

Notes: digits are ASCII, so a number reads back every float `print_formula`
writes (`1e-05`, `1e+16`), and one past the float range is an error; an
identifier starts with a letter or `_`; an omitted interval means [0, inf];
`G`, `F`, `U` are case sensitive and, with `true`, `false`, `inf`, `abs`,
reserved; `d1(x)` names the derived channel "d1(x)" as a single variable;
`=` is accepted as an alias for `==`; a minus applied directly to a number
literal folds into a signed constant so that printing and reparsing preserve
structure; comparisons do not chain.

`print_formula` renders with explicit parentheses on operator bodies (the
form shown in the docs, for example `G[0,3](x <= 0)`), and
`parse_formula(print_formula(f))` returns a structurally equal formula.
Equality tolerances are not part of the surface syntax; `parse_formula`
applies its `eq_tolerance` argument to every `==`/`!=` atom it builds.

Nesting is bounded by MAX_DEPTH, so every formula that parses can also be
evaluated and printed within Python's default recursion limit. The parser
recurses only into brackets and reads runs of prefix operators and `->`
chains in loops; the depth of the tree is checked once it is built, over
the child rule of `core.formula.children`, which defines the tree's shape.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

from .core.formula import (
    Abs,
    Add,
    And,
    Atom,
    COMPARISONS,
    Const,
    Eventually,
    FALSE,
    FULL,
    FalseFormula,
    Formula,
    Globally,
    Implies,
    Interval,
    Mul,
    Neg,
    Not,
    Or,
    Predicate,
    Sub,
    TRUE,
    TrueFormula,
    Until,
    Var,
    children,
)

__all__ = ["MAX_DEPTH", "ParseError", "SourceSpan", "parse_formula", "print_formula"]

#: Deepest nesting `parse_formula` accepts: brackets nest at most this deep,
#: and no root-to-leaf path of the result has more formula and term nodes.
MAX_DEPTH = 100

_RESERVED = {"true", "false", "inf", "abs", "G", "F", "U"}

# One token after optional whitespace, or the character no token starts at.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>\w+)|(?P<op>->|<=|>=|==|!=|[<>=!&|+\-*()\[\],])|(?P<bad>\S))"
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = expected
        where = f"at offset {span.start}"
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} {where}{hint}")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(src: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        start, end = m.span(kind)
        # \w+ also starts at a digit that is not ASCII, or at "²"; no token does.
        if kind == "bad" or kind == "ident" and not (src[start].isalpha() or src[start] == "_"):
            raise ParseError(f"unexpected character {src[start]!r}", SourceSpan(start, start + 1))
        toks.append(_Token(kind, src[start:end], start, end))
    toks.append(_Token("eof", "", len(src), len(src)))
    return toks


_OR = {"|": Or}
_AND = {"&": And}
_SUM = {"+": Add, "-": Sub}
_PRODUCT = {"*": Mul}
# `=` is read as `==`; an error lists only the canonical spellings.
_COMPARISON_TEXTS = {*COMPARISONS, "="}
_EXPECTED_COMPARISON = tuple(map(repr, COMPARISONS))


class _Parser:
    def __init__(self, src: str, eq_tolerance: float):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.eq_tolerance = eq_tolerance

    # -- token helpers ---------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect_op(self, text: str) -> _Token:
        if self.at_op(text):
            return self.advance()
        raise self.unexpected(self.peek(), repr(text))

    @staticmethod
    def unexpected(tok: _Token, *expected: str) -> ParseError:
        what = "end of input" if tok.kind == "eof" else f"token {tok.text!r}"
        return ParseError(f"unexpected {what}", tok.span, expected)

    def number(self) -> float:
        """Consume a number token. A literal past the float range is an
        error, not infinity."""
        tok = self.advance()
        value = float(tok.text)
        if math.isinf(value):
            raise ParseError("number out of range", tok.span)
        return value

    def bracketed(self, inner):
        """Read "(" inner ")", with brackets nested at most MAX_DEPTH deep."""
        tok = self.expect_op("(")
        if self.depth == MAX_DEPTH:
            raise ParseError(f"brackets nest deeper than {MAX_DEPTH} levels", tok.span)
        self.depth += 1
        result = inner()
        self.expect_op(")")
        self.depth -= 1
        return result

    def _left_chain(self, operand, ops):
        """Read `operand (op operand)*`, folded left by the node types in `ops`."""
        e = operand()
        while (tok := self.peek()).kind == "op" and tok.text in ops:
            self.advance()
            e = ops[tok.text](e, operand())
        return e

    # -- grammar ---------------------------------------------------------

    def parse(self) -> Formula:
        f = self.implies()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.unexpected(tok)
        if _height(f) > MAX_DEPTH:
            raise ParseError(
                f"formula nests deeper than {MAX_DEPTH} levels", SourceSpan(0, len(self.src))
            )
        return f

    def implies(self) -> Formula:
        operands = [self.or_()]
        while self.at_op("->"):
            self.advance()
            operands.append(self.or_())
        f = operands.pop()
        for left in reversed(operands):
            f = Implies(left, f)
        return f

    def or_(self) -> Formula:
        return self._left_chain(self.and_, _OR)

    def and_(self) -> Formula:
        return self._left_chain(self.unary, _AND)

    def unary(self) -> Formula:
        prefixes = []
        while True:
            tok = self.peek()
            if self.at_op("!"):
                self.advance()
                prefixes.append(Not)
            elif tok.kind == "ident" and tok.text in ("G", "F"):
                self.advance()
                op = Globally if tok.text == "G" else Eventually
                prefixes.append(partial(op, self.interval_opt()))
            else:
                break
        f = self.atom_or_until()
        for wrap in reversed(prefixes):
            f = wrap(f)
        return f

    def atom_or_until(self) -> Formula:
        left = self.primary()
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "U":
            self.advance()
            interval = self.interval_opt()
            right = self.primary()
            return Until(interval, left, right)
        return left

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "true":
            self.advance()
            return TRUE
        if tok.kind == "ident" and tok.text == "false":
            self.advance()
            return FALSE
        if self.at_op("("):
            # Could open a subformula or a parenthesized arithmetic term;
            # try the formula reading and fall back to a comparison,
            # keeping whichever error got further into the input.
            mark = self.pos, self.depth
            try:
                return self.bracketed(self.implies)
            except ParseError as formula_err:
                self.pos, self.depth = mark
                try:
                    return self.comparison()
                except ParseError as cmp_err:
                    raise cmp_err if cmp_err.span.start >= formula_err.span.start else formula_err
        return self.comparison()

    def comparison(self) -> Formula:
        lhs = self.expr()
        tok = self.peek()
        if tok.kind != "op" or tok.text not in _COMPARISON_TEXTS:
            raise self.unexpected(tok, *_EXPECTED_COMPARISON)
        self.advance()
        op = "==" if tok.text == "=" else tok.text
        rhs = self.expr()
        if op in ("==", "!="):
            return Atom(Predicate(lhs, op, rhs, self.eq_tolerance))
        return Atom(Predicate(lhs, op, rhs))

    def expr(self):
        return self._left_chain(self.term, _SUM)

    def term(self):
        return self._left_chain(self.factor, _PRODUCT)

    def factor(self):
        signs = 0
        while self.at_op("-"):
            self.advance()
            signs += 1
        e = self.operand()
        for _ in range(signs):
            # Fold a sign applied directly to a literal so that printed
            # negative constants reparse to the same node.
            e = Const(-e.value) if isinstance(e, Const) else Neg(e)
        return e

    def operand(self):
        tok = self.peek()
        if self.at_op("("):
            return self.bracketed(self.expr)
        if tok.kind == "num":
            return Const(self.number())
        if tok.kind == "ident":
            if tok.text == "abs":
                self.advance()
                return Abs(self.bracketed(self.expr))
            if tok.text == "d1":
                self.advance()
                self.expect_op("(")
                inner = self.peek()
                if inner.kind != "ident" or inner.text in _RESERVED:
                    raise self.unexpected(inner, "channel name")
                self.advance()
                self.expect_op(")")
                return Var(f"d1({inner.text})")
            if tok.text in _RESERVED:
                raise ParseError(
                    f"reserved word {tok.text!r} cannot name a channel", tok.span
                )
            self.advance()
            return Var(tok.text)
        raise self.unexpected(tok, "number", "channel name", "'('")

    def interval_opt(self) -> Interval:
        if not self.at_op("["):
            return FULL
        open_tok = self.advance()
        lo_tok = self.peek()
        if lo_tok.kind != "num":
            raise self.unexpected(lo_tok, "number")
        lo = self.number()
        self.expect_op(",")
        hi_tok = self.peek()
        if hi_tok.kind == "num":
            hi = self.number()
        elif hi_tok.kind == "ident" and hi_tok.text == "inf":
            self.advance()
            hi = math.inf
        else:
            raise self.unexpected(hi_tok, "number", "'inf'")
        close_tok = self.expect_op("]")
        if not lo < hi:
            raise ParseError(
                f"non-singular interval required (lo < hi), got [{lo_tok.text},{hi_tok.text}]",
                SourceSpan(open_tok.start, close_tok.end),
            )
        return Interval(lo, hi)


def _height(f: Formula) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    best = 0
    stack = [(f, 1)]
    while stack:
        node, h = stack.pop()
        best = max(best, h)
        stack.extend((c, h + 1) for c in children(node))
    return best


def parse_formula(src: str, *, eq_tolerance: float = 1e-9) -> Formula:
    """Parse the surface syntax into a formula.

    eq_tolerance is attached to every equality or inequality atom built from
    the source (the syntax itself carries no tolerance).
    """
    return _Parser(src, eq_tolerance).parse()


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------

def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_interval(interval: Interval) -> str:
    if interval.lo == 0.0 and interval.unbounded:
        return ""
    hi = "inf" if interval.unbounded else _fmt_num(interval.hi)
    return f"[{_fmt_num(interval.lo)},{hi}]"


def _expr_str(e, level: int = 0) -> str:
    # levels: 0 = sum, 1 = product, 2 = factor
    if isinstance(e, Const):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Abs):
        return f"abs({_expr_str(e.operand, 0)})"
    if isinstance(e, Neg):
        return _wrap_expr(f"-{_expr_str(e.operand, 2)}", level, 2)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        text = f"{_expr_str(e.left, 0)} {op} {_expr_str(e.right, 1)}"
        return _wrap_expr(text, level, 0)
    if isinstance(e, Mul):
        text = f"{_expr_str(e.left, 1)} * {_expr_str(e.right, 2)}"
        return _wrap_expr(text, level, 1)
    raise TypeError(f"not a term: {e!r}")


def _wrap_expr(text: str, want: int, have: int) -> str:
    return f"({text})" if have < want else text


def _formula_str(f: Formula, level: int) -> str:
    # levels: 0 = implies, 1 = or, 2 = and, 3 = unary, 4 = primary
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, FalseFormula):
        return "false"
    if isinstance(f, Atom):
        p = f.predicate
        text = f"{_expr_str(p.lhs)} {p.op} {_expr_str(p.rhs)}"
        return f"({text})" if level >= 4 else text
    if isinstance(f, Implies):
        text = f"{_formula_str(f.left, 1)} -> {_formula_str(f.right, 0)}"
        return f"({text})" if level >= 1 else text
    if isinstance(f, Or):
        text = f"{_formula_str(f.left, 1)} | {_formula_str(f.right, 2)}"
        return f"({text})" if level >= 2 else text
    if isinstance(f, And):
        text = f"{_formula_str(f.left, 2)} & {_formula_str(f.right, 3)}"
        return f"({text})" if level >= 3 else text
    if isinstance(f, Not):
        return f"!({_formula_str(f.operand, 0)})"
    if isinstance(f, Eventually):
        return f"F{_fmt_interval(f.interval)}({_formula_str(f.operand, 0)})"
    if isinstance(f, Globally):
        return f"G{_fmt_interval(f.interval)}({_formula_str(f.operand, 0)})"
    if isinstance(f, Until):
        text = (
            f"({_formula_str(f.left, 0)}) U{_fmt_interval(f.interval)}"
            f" ({_formula_str(f.right, 0)})"
        )
        return f"({text})" if level >= 4 else text
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Render a formula; parsing the result reproduces the same structure."""
    return _formula_str(f, 0)
