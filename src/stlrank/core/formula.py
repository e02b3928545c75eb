"""Formula syntax: arithmetic terms, predicates, and temporal operators.

Nodes are frozen dataclasses, so formulas compare and hash structurally and
are safe to share across threads and processes. `desugar` rewrites a formula
into the minimal core connectives; the evaluators accept both forms.

`children` is the one child rule, walked by `channels_of`, `operator_count`,
the parser's depth bound and the channel renaming of expansion. A new node
type adds one entry there plus one case in each evaluator and printer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union, get_args


class FormulaError(ValueError):
    """A formula, term, or interval violates a construction invariant."""


@dataclass(frozen=True)
class Interval:
    """A closed time window [lo, hi] with lo finite and hi possibly inf.

    Temporal operators additionally require lo < hi (non-singular); that
    check lives in the operator constructors so plain intervals can still
    describe degenerate ranges elsewhere.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise FormulaError("interval bounds must not be NaN")
        if not math.isfinite(self.lo):
            raise FormulaError("interval lower bound must be finite")
        if self.lo < 0 or self.hi < 0:
            raise FormulaError(f"interval bounds must be non-negative: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise FormulaError(f"interval lower bound exceeds upper: [{self.lo}, {self.hi}]")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)


#: The default window: all of the future including now.
FULL = Interval(0.0, math.inf)


def _require_nonsingular(interval: Interval, op: str) -> None:
    if not interval.lo < interval.hi:
        raise FormulaError(
            f"{op} needs a non-singular interval (lo < hi), got [{interval.lo}, {interval.hi}]"
        )


# ---------------------------------------------------------------------------
# Arithmetic terms over channel values at the evaluation time.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise FormulaError(f"constant must be finite, got {self.value}")


@dataclass(frozen=True)
class Var:
    """A channel reference, for example "x" or the derived channel "d1(x)"."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise FormulaError("channel name must be non-empty")


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Abs:
    operand: "Expr"


Expr = Union[Const, Var, Neg, Add, Sub, Mul, Abs]

_EXPR_TYPES = get_args(Expr)

COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass(frozen=True)
class Predicate:
    """lhs op rhs, where op is one of < <= > >= == !=.

    Equality and inequality compare with an absolute tolerance:
    lhs == rhs holds when |lhs - rhs| <= eq_tolerance, and != is its negation.
    """

    lhs: Expr
    op: str
    rhs: Expr
    eq_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise FormulaError(f"unknown comparison {self.op!r}")
        if not isinstance(self.lhs, _EXPR_TYPES) or not isinstance(self.rhs, _EXPR_TYPES):
            raise FormulaError("predicate sides must be arithmetic terms")
        object.__setattr__(self, "eq_tolerance", float(self.eq_tolerance))
        if not (self.eq_tolerance >= 0.0 and math.isfinite(self.eq_tolerance)):
            raise FormulaError("eq_tolerance must be a finite non-negative real")


# ---------------------------------------------------------------------------
# Formulas.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class FalseFormula:
    pass


@dataclass(frozen=True)
class Atom:
    predicate: Predicate

    def __post_init__(self) -> None:
        if not isinstance(self.predicate, Predicate):
            raise FormulaError(f"atom needs a predicate, got {self.predicate!r}")


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Until:
    """left holds from now through the witness time at which right holds.

    The witness is quantified over the days in the shifted window; the
    default semantics require left at the witness time itself (see the
    semantics module for the strict variant).
    """

    interval: Interval
    left: "Formula"
    right: "Formula"

    def __post_init__(self) -> None:
        _require_nonsingular(self.interval, "U")


@dataclass(frozen=True)
class Eventually:
    interval: Interval
    operand: "Formula"

    def __post_init__(self) -> None:
        _require_nonsingular(self.interval, "F")


@dataclass(frozen=True)
class Globally:
    interval: Interval
    operand: "Formula"

    def __post_init__(self) -> None:
        _require_nonsingular(self.interval, "G")


Formula = Union[
    TrueFormula, FalseFormula, Atom, Not, And, Or, Implies, Until, Eventually, Globally
]

TRUE = TrueFormula()
FALSE = FalseFormula()


def children(node) -> tuple:
    """Direct subformulas and terms of a node, in field order (an `Atom`
    has the two sides of its comparison): the one child rule."""
    if isinstance(node, (TrueFormula, FalseFormula, Const, Var)):
        return ()
    if isinstance(node, Atom):
        return (node.predicate.lhs, node.predicate.rhs)
    if isinstance(node, (Not, Neg, Abs, Eventually, Globally)):
        return (node.operand,)
    if isinstance(node, (And, Or, Implies, Until, Add, Sub, Mul)):
        return (node.left, node.right)
    raise FormulaError(f"not a formula or term: {node!r}")


def _walk(node):
    """`node` and every node below it, parents first, without recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def channels_of(f: Formula) -> frozenset[str]:
    """All channel names a formula or term mentions."""
    return frozenset(node.name for node in _walk(f) if isinstance(node, Var))


def operator_count(f: Formula) -> int:
    """Number of boolean connectives and temporal operators; atoms are free."""
    ops = (Not, And, Or, Implies, Until, Eventually, Globally)
    return sum(isinstance(node, ops) for node in _walk(f))


def desugar(f: Formula) -> Formula:
    """Rewrite into the core fragment {true, Atom(< or <=), Not, And, Until}.

    The rewrites follow the usual dual definitions:
    false = !true, a | b = !(!a & !b), a -> b = !a | b,
    p > q = !(p <= q), p >= q = !(p < q),
    p == q = (p - q <= tol) & (q - p <= tol), p != q = !(p == q),
    F_I f = true U_I f, G_I f = !F_I !f.
    Structure is preserved rather than simplified, so double negations from
    the dual forms remain.
    """
    if isinstance(f, TrueFormula):
        return f
    if isinstance(f, FalseFormula):
        return Not(TRUE)
    if isinstance(f, Atom):
        p = f.predicate
        if p.op in ("<", "<="):
            return f
        if p.op == ">":
            return Not(Atom(Predicate(p.lhs, "<=", p.rhs, p.eq_tolerance)))
        if p.op == ">=":
            return Not(Atom(Predicate(p.lhs, "<", p.rhs, p.eq_tolerance)))
        tol = Const(p.eq_tolerance)
        eq = And(
            Atom(Predicate(Sub(p.lhs, p.rhs), "<=", tol, p.eq_tolerance)),
            Atom(Predicate(Sub(p.rhs, p.lhs), "<=", tol, p.eq_tolerance)),
        )
        return eq if p.op == "==" else Not(eq)
    if isinstance(f, Not):
        return Not(desugar(f.operand))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Implies):
        return desugar(Or(Not(f.left), f.right))
    if isinstance(f, Until):
        return Until(f.interval, desugar(f.left), desugar(f.right))
    if isinstance(f, Eventually):
        return Until(f.interval, TRUE, desugar(f.operand))
    if isinstance(f, Globally):
        return Not(Until(f.interval, TRUE, Not(desugar(f.operand))))
    raise FormulaError(f"not a formula: {f!r}")
