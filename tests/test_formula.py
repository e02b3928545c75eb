import math
from typing import get_args

import pytest
from hypothesis import given, settings

from stlrank import (
    Abs,
    Add,
    And,
    Atom,
    Const,
    Eventually,
    FALSE,
    FalseFormula,
    Formula,
    FormulaError,
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
    channels_of,
    desugar,
    operator_count,
)
from stlrank.core.formula import FULL, Expr, children
from gen_support import st_formulas


def atom(op="<", name="x", c=0.0):
    return Atom(Predicate(Var(name), op, Const(c)))


def test_interval_validation():
    assert Interval(0, math.inf) == FULL
    with pytest.raises(FormulaError):
        Interval(-1, 2)
    with pytest.raises(FormulaError):
        Interval(3, 2)
    with pytest.raises(FormulaError):
        Interval(math.inf, math.inf)
    with pytest.raises(FormulaError, match="^interval bounds must not be NaN$"):
        Interval(math.nan, 1)


def test_temporal_operators_reject_singular_windows():
    body = atom()
    with pytest.raises(FormulaError):
        Globally(Interval(1, 1), body)
    with pytest.raises(FormulaError):
        Eventually(Interval(0, 0), body)
    with pytest.raises(FormulaError):
        Until(Interval(2, 2), body, body)
    # lo < hi is fine even when no integer falls inside
    Globally(Interval(0.25, 0.75), body)


def test_const_rejects_nonfinite():
    with pytest.raises(FormulaError):
        Const(math.nan)
    with pytest.raises(FormulaError):
        Const(math.inf)


def test_predicate_validation():
    with pytest.raises(FormulaError):
        Predicate(Var("x"), "~", Const(0.0))
    with pytest.raises(FormulaError):
        Predicate(Var("x"), "==", Const(0.0), eq_tolerance=-1.0)
    with pytest.raises(FormulaError, match="^predicate sides must be arithmetic terms$"):
        Predicate(TRUE, "<", Const(1))
    with pytest.raises(FormulaError, match="^channel name must be non-empty$"):
        Var("")


def test_channels_of_walks_both_sides():
    f = And(
        Atom(Predicate(Var("x"), "<", Var("d1(x)"))),
        Eventually(FULL, atom(name="y")),
    )
    assert channels_of(f) == {"x", "d1(x)", "y"}
    assert channels_of(TRUE) == set()


def test_operator_count_ignores_atoms():
    assert operator_count(atom()) == 0
    assert operator_count(TRUE) == 0
    f = Eventually(FULL, And(atom(), Eventually(Interval(0, 2), atom())))
    assert operator_count(f) == 3
    assert operator_count(Not(Or(atom(), atom()))) == 2


def test_children_is_the_one_child_rule():
    """Each node's children are its node-valued fields in field order (an
    Atom's are its comparison sides); every node type has an entry."""
    x, c, p, q = Var("x"), Const(2.0), atom(), atom(">", "y")
    expected = {
        Const(1.0): (), x: (), Neg(x): (x,), Abs(c): (c,),
        Add(x, c): (x, c), Sub(c, x): (c, x), Mul(x, c): (x, c),
        TRUE: (), FALSE: (), Atom(Predicate(c, "<", x)): (c, x), Not(p): (p,),
        And(p, q): (p, q), Or(q, p): (q, p), Implies(p, q): (p, q),
        Until(FULL, q, p): (q, p), Eventually(FULL, p): (p,), Globally(FULL, q): (q,),
    }
    assert {type(node) for node in expected} == set(get_args(Formula) + get_args(Expr))
    for node, kids in expected.items():
        assert children(node) == kids


def test_walks_reject_what_is_not_a_node():
    for junk in ("x", 3.0, FULL, Predicate(Var("x"), "<", Const(0.0))):
        with pytest.raises(FormulaError, match="not a formula or term"):
            children(junk)
    for walk in (channels_of, operator_count):
        with pytest.raises(FormulaError):
            walk(Not("x < 0"))
        with pytest.raises(FormulaError):
            walk(Atom(Predicate(Neg("x"), "<", Const(0.0))))
    assert channels_of(Sub(Var("x"), Abs(Var("d1(x)")))) == {"x", "d1(x)"}


def test_atom_needs_a_predicate():
    for junk in ("x < 0", Var("x"), None, atom()):
        with pytest.raises(FormulaError, match="^atom needs a predicate, got "):
            Atom(junk)


# Recursive definitions of the two walks, as oracles.

def oracle_channels_of_expr(e):
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, (Neg, Abs)):
        return oracle_channels_of_expr(e.operand)
    return oracle_channels_of_expr(e.left) | oracle_channels_of_expr(e.right)


def oracle_channels_of(f):
    if isinstance(f, Atom):
        return oracle_channels_of_expr(f.predicate.lhs) | oracle_channels_of_expr(f.predicate.rhs)
    if isinstance(f, (TrueFormula, FalseFormula)):
        return frozenset()
    if isinstance(f, (Not, Eventually, Globally)):
        return oracle_channels_of(f.operand)
    return oracle_channels_of(f.left) | oracle_channels_of(f.right)


def oracle_operator_count(f):
    if isinstance(f, (TrueFormula, FalseFormula, Atom)):
        return 0
    if isinstance(f, (Not, Eventually, Globally)):
        return 1 + oracle_operator_count(f.operand)
    return 1 + oracle_operator_count(f.left) + oracle_operator_count(f.right)


@settings(max_examples=200, deadline=None)
@given(f=st_formulas(["x", "d1(x)", "y"], until=True))
def test_walks_match_the_recursive_definitions(f):
    assert channels_of(f) == oracle_channels_of(f)
    assert operator_count(f) == oracle_operator_count(f)


def test_desugar_reaches_core_fragment():
    """Desugared formulas contain only true, atoms with < or <=, negation,
    conjunction, and until."""
    f = Implies(
        Or(atom(">="), Not(atom("!="))),
        Globally(Interval(0, 3), Eventually(FULL, atom("=="))),
    )
    core = desugar(f)

    def walk(g):
        assert not isinstance(g, (FalseFormula, Or, Implies, Eventually, Globally))
        if isinstance(g, Atom):
            assert g.predicate.op in ("<", "<=")
        for fld in getattr(g, "__dataclass_fields__", ()):
            v = getattr(g, fld)
            if hasattr(v, "__dataclass_fields__") and not isinstance(v, (Interval, Predicate)):
                walk(v)

    walk(core)


def test_desugar_is_idempotent():
    f = Globally(Interval(0, 2), Or(atom(">"), FALSE))
    assert desugar(desugar(f)) == desugar(f)
