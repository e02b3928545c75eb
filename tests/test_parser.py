import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stlrank import (
    Abs,
    Add,
    And,
    Atom,
    Const,
    Eventually,
    FALSE,
    Globally,
    Implies,
    Interval,
    Mul,
    Neg,
    Not,
    Or,
    ParseError,
    Predicate,
    Sub,
    TRUE,
    Until,
    Var,
    eval_fast,
    eval_naive,
    parse_formula,
    print_formula,
    traceset_from_positions,
)
from stlrank.core.formula import COMPARISONS
from stlrank.parser import MAX_DEPTH
from gen_support import random_formula


def test_parse_flat_window_example():
    f = parse_formula("G[0,3](abs(d1(x)) < 1)")
    assert f == Globally(
        Interval(0, 3),
        Atom(Predicate(Abs(Var("d1(x)")), "<", Const(1.0))),
    )


def test_parse_reach_shape():
    f = parse_formula("G((x < 10) -> F(x == 1))")
    inf = float("inf")
    assert f == Globally(
        Interval(0, inf),
        Implies(
            Atom(Predicate(Var("x"), "<", Const(10.0))),
            Eventually(Interval(0, inf), Atom(Predicate(Var("x"), "==", Const(1.0)))),
        ),
    )


def test_omitted_interval_is_unbounded():
    assert parse_formula("F(x < 0)") == parse_formula("F[0,inf](x < 0)")
    assert parse_formula("G(x < 0)") == parse_formula("G[0,inf](x < 0)")


def test_derivative_channel_is_one_variable():
    f = parse_formula("d1(x) <= -10")
    assert f == Atom(Predicate(Var("d1(x)"), "<=", Const(-10.0)))


def test_equals_sign_is_an_alias():
    assert parse_formula("x = -1") == parse_formula("x == -1")


def test_eq_tolerance_is_applied_to_equality_atoms():
    f = parse_formula("x == 1", eq_tolerance=0.5)
    assert f == Atom(Predicate(Var("x"), "==", Const(1.0), 0.5))
    g = parse_formula("x != 1", eq_tolerance=0.5)
    assert g.predicate.eq_tolerance == 0.5


def test_precedence_layers():
    f = parse_formula("x < 1 & y < 2 | z < 3 -> x < 0")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.left, And)
    # implication associates to the right
    g = parse_formula("x < 1 -> y < 2 -> z < 3")
    assert isinstance(g, Implies) and isinstance(g.right, Implies)


def test_arithmetic_precedence():
    f = parse_formula("x + 2 * y - 3 < abs(x - y)")
    printed = print_formula(f)
    assert printed == "x + 2 * y - 3 < abs(x - y)"
    assert parse_formula(printed) == f


def test_negative_literal_folds_into_constant():
    f = parse_formula("d1(x) < -10")
    assert f.predicate.rhs == Const(-10.0)
    # but negation of a variable stays symbolic
    g = parse_formula("-x < 1")
    from stlrank import Neg

    assert g.predicate.lhs == Neg(Var("x"))


def test_until_parses_and_prints_with_parens():
    f = parse_formula("(true) U[1,2] (x < 2)")
    assert f == Until(Interval(1, 2), TRUE, Atom(Predicate(Var("x"), "<", Const(2.0))))
    assert print_formula(f) == "(true) U[1,2] (x < 2)"


def test_print_examples():
    assert print_formula(parse_formula("G[0,3](x<=0)")) == "G[0,3](x <= 0)"
    assert (
        print_formula(parse_formula("F((d1(x)>10) & F[0,2](d1(x)< -10))"))
        == "F(d1(x) > 10 & F[0,2](d1(x) < -10))"
    )


def test_truncated_interval_reports_offset_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_formula("G[0,")
    assert err.value.span.start == 4
    assert err.value.expected == ("number", "'inf'")


def test_singular_interval_is_rejected_at_parse_time():
    with pytest.raises(ParseError) as err:
        parse_formula("G[3,1](x < 0)")
    assert "non-singular" in str(err.value)
    with pytest.raises(ParseError):
        parse_formula("F[2,2](x < 0)")


def test_reserved_words_cannot_be_variables():
    for src in ("G < 1", "true < 1", "inf < 1", "abs < 1"):
        with pytest.raises(ParseError):
            parse_formula(src)


def test_unexpected_character_is_reported():
    with pytest.raises(ParseError) as err:
        parse_formula("x < $1")
    assert err.value.span.start == 4


@pytest.mark.parametrize("src, offset, char", [
    ("x < ²", 4, "²"),  # a digit to str.isdigit, but no number
    ("x < ١", 4, "١"),  # an Arabic-Indic one, which float() would read
    ("x < 5²", 5, "²"),
    ("²x < 1", 0, "²"),
])
def test_digits_are_ascii(src, offset, char):
    with pytest.raises(ParseError) as err:
        parse_formula(src)
    assert str(err.value) == f"unexpected character {char!r} at offset {offset}"


def test_numbers_take_an_exponent():
    assert parse_formula("x < 1e-5") == parse_formula("x < 0.00001")
    assert parse_formula("G[0,2E+1](x >= .5e1)") == parse_formula("G[0,20](x >= 5)")
    assert print_formula(parse_formula("x < 1e-5")) == "x < 1e-05"
    # without digits after it, the "e" is an identifier of its own
    with pytest.raises(ParseError, match="unexpected token 'e' at offset 5"):
        parse_formula("x < 1e")


@pytest.mark.parametrize("src, offset", [
    ("x < 1e309", 4),
    ("x < 1" + "0" * 400, 4),
    ("G[0,1e400](x < 1)", 4),  # not the unbounded [0,inf]
    ("F[1e999,inf](x < 1)", 2),
], ids=["1e309", "401-digits", "window-hi", "window-lo"])
def test_number_past_the_float_range_is_an_error(src, offset):
    with pytest.raises(ParseError) as err:
        parse_formula(src)
    assert str(err.value) == f"number out of range at offset {offset}"


def test_comparison_chaining_is_rejected():
    with pytest.raises(ParseError):
        parse_formula("0 < x < 1")


def test_roundtrip_on_random_asts():
    """print then parse reproduces the exact AST, including interval
    bounds, channel names, and operator nesting."""
    rng = np.random.default_rng(404)
    channels = ["x", "d1(x)", "load"]
    for _ in range(300):
        f = random_formula(rng, channels, depth=4)
        text = print_formula(f)
        assert parse_formula(text) == f, text


def test_roundtrip_on_source_text():
    sources = [
        "G[0,3](abs(d1(x)) < 1)",
        "G[0,3](d1(x) <= 0) & F[0,3](d1(x) < 0)",
        "F[0,3](G(abs(d1(x)) < 1))",
        "G((x < 10) -> F(x == 1))",
        "F((d1(x) > 10) & F[0,2](d1(x) < -10))",
        "!(G[0,3](x == -1))",
        "G((x == -1) -> F[0,3](!(x == -1)))",
        "(x < 1) U[0.5,4.5] (y >= 2)",
    ]
    for src in sources:
        f = parse_formula(src)
        assert parse_formula(print_formula(f)) == f


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def st_any_float_terms():
    """Terms over every finite constant; a minus is never put directly on a
    constant, as the parser folds it into the constant."""
    leaves = st.one_of(FINITE.map(Const), st.sampled_from(["x", "d1(x)"]).map(Var))
    return st.recursive(leaves, lambda t: st.one_of(
        st.builds(Add, t, t), st.builds(Sub, t, t), st.builds(Mul, t, t), st.builds(Abs, t),
        t.filter(lambda e: not isinstance(e, Const)).map(Neg),
    ), max_leaves=3)


@st.composite
def st_any_float_intervals(draw):
    bound = st.floats(min_value=0.0, allow_infinity=False)
    lo, hi = sorted((draw(bound), draw(st.one_of(bound, st.just(math.inf)))))
    assume(lo < hi)
    return Interval(lo, hi)


def st_any_float_formulas():
    atoms = st.builds(Predicate, st_any_float_terms(), st.sampled_from(COMPARISONS),
                      st_any_float_terms()).map(Atom)
    return st.recursive(st.one_of(st.just(TRUE), st.just(FALSE), atoms), lambda f: st.one_of(
        st.builds(Not, f), st.builds(And, f, f), st.builds(Or, f, f), st.builds(Implies, f, f),
        st.builds(Eventually, st_any_float_intervals(), f),
        st.builds(Globally, st_any_float_intervals(), f),
        st.builds(Until, st_any_float_intervals(), f, f),
    ), max_leaves=5)


def x_below(value):
    return Atom(Predicate(Var("x"), "<", Const(value)))


@settings(max_examples=300, deadline=None)
@given(f=st_any_float_formulas())
@example(f=Globally(Interval(1e-05, 2.0), x_below(1e-05)))
@example(f=Eventually(Interval(0.0, 1e+16), x_below(-1e+16)))
@example(f=Until(Interval(5e-324, 1.0), TRUE, x_below(5e-324)))
@example(f=Globally(Interval(1.0, 1.7976931348623157e+308), x_below(1.7976931348623157e+308)))
def test_roundtrip_keeps_every_finite_float(f):
    """Constants and window bounds print in exponent form where repr uses
    it, and the lexer reads them back to the same floats."""
    assert parse_formula(print_formula(f)) == f


@pytest.mark.parametrize(
    "nest",
    [
        # An Atom over a Var and a Const is two levels of the tree.
        lambda k: "!" * (k - 2) + "x < 1",
        lambda k: "G[0,1]" * (k - 2) + "(x < 1)",
        lambda k: "x < " + "-" * (k - 2) + "x",
        lambda k: " & ".join(["x < 1"] * (k - 1)),
        lambda k: "x < 1 -> " * (k - 2) + "x < 1",
        lambda k: "(" * k + "x < 1" + ")" * k,
        lambda k: "(" * k + "x" + ")" * k + " < 1",
        lambda k: "abs(" * (k - 2) + "x" + ")" * (k - 2) + " < 1",
    ],
)
def test_nesting_is_bounded(nest):
    """A formula at MAX_DEPTH parses, evaluates, prints and reparses; one
    level deeper, or thousands, is a ParseError instead of a RecursionError."""
    w = traceset_from_positions([3.0, 2.0, 1.0])
    f = parse_formula(nest(MAX_DEPTH))
    assert eval_fast(f, w).satisfied == eval_naive(f, w)
    assert parse_formula(print_formula(f)) == f
    for k in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError) as err:
            parse_formula(nest(k))
        assert f"deeper than {MAX_DEPTH} levels" in str(err.value)


_ANY_OPERAND = ("number", "channel name", "'('")
_DEEP = MAX_DEPTH + 1


@pytest.mark.parametrize("src, text, span, expected", [
    pytest.param("(x < 1", "unexpected end of input at offset 6 (expected ')')",
                 (6, 6), ("')'",), id="closing-bracket"),
    pytest.param("x < 1 )", "unexpected token ')' at offset 6", (6, 7), (), id="trailing-token"),
    pytest.param("x + 1", "unexpected end of input at offset 5 (expected '<', '<=', '>', '>=', "
                 "'==', '!=')", (5, 5), ("'<'", "'<='", "'>'", "'>='", "'=='", "'!='"),
                 id="comparison"),
    pytest.param("d1(G) < 1", "unexpected token 'G' at offset 3 (expected channel name)",
                 (3, 4), ("channel name",), id="d1-channel"),
    pytest.param("x < *", "unexpected token '*' at offset 4 (expected number, channel name, '(')",
                 (4, 5), _ANY_OPERAND, id="operand"),
    pytest.param("G[x,1](x < 1)", "unexpected token 'x' at offset 2 (expected number)",
                 (2, 3), ("number",), id="window-lo"),
    pytest.param("G[0,](x < 1)", "unexpected token ']' at offset 4 (expected number, 'inf')",
                 (4, 5), ("number", "'inf'"), id="window-hi"),
    pytest.param("abs x < 1", "unexpected token 'x' at offset 4 (expected '(')",
                 (4, 5), ("'('",), id="abs-bracket"),
    pytest.param("(" * _DEEP + "x < 1" + ")" * _DEEP,
                 "brackets nest deeper than 100 levels at offset 100", (100, 101), (),
                 id="depth-formula"),
    pytest.param("x < " + "(" * _DEEP + "1" + ")" * _DEEP,
                 "brackets nest deeper than 100 levels at offset 104", (104, 105), (),
                 id="depth-term"),
    pytest.param("x < " + "abs(" * _DEEP + "x" + ")" * _DEEP,
                 "brackets nest deeper than 100 levels at offset 407", (407, 408), (),
                 id="depth-abs"),
    pytest.param("x < 1 |", "unexpected end of input at offset 7 (expected number, channel name, "
                 "'(')", (7, 7), _ANY_OPERAND, id="or-operand"),
    pytest.param("x < 1 & ", "unexpected end of input at offset 8 (expected number, channel "
                 "name, '(')", (8, 8), _ANY_OPERAND, id="and-operand"),
    pytest.param("x + < 1", "unexpected token '<' at offset 4 (expected number, channel name, "
                 "'(')", (4, 5), _ANY_OPERAND, id="sum-operand"),
    pytest.param("x * < 1", "unexpected token '<' at offset 4 (expected number, channel name, "
                 "'(')", (4, 5), _ANY_OPERAND, id="product-operand"),
])
def test_each_error_site_keeps_its_text(src, text, span, expected):
    """The full message, span and expectations of every `unexpected` error,
    the bracket depth error in each bracketed form, and a missing operand at
    each left-associative level."""
    with pytest.raises(ParseError) as err:
        parse_formula(src)
    assert str(err.value) == text
    assert (err.value.span.start, err.value.span.end) == span
    assert err.value.expected == expected
