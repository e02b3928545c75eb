import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlrank import (
    Abs,
    Add,
    And,
    Atom,
    Const,
    EvaluationError,
    Eventually,
    FALSE,
    Globally,
    Implies,
    Interval,
    Mul,
    Neg,
    Not,
    Or,
    Predicate,
    SampleTimeError,
    Sub,
    TRUE,
    Trace,
    TraceSet,
    UnknownChannelError,
    Until,
    Var,
    desugar,
    eval_fast,
    eval_naive,
    eval_rows,
    evaluation_grid,
    position_channels,
)
from stlrank.core.formula import COMPARISONS
from gen_support import random_formula, random_traceset, st_positions

FULL = Interval(0, float("inf"))


def xtrace(values):
    return TraceSet([Trace("x", range(len(values)), values)])


def cmp(op, c, name="x"):
    return Atom(Predicate(Var(name), op, Const(float(c))))


def per_time(f, w, **kw):
    return [bool(b) for b in eval_fast(f, w, **kw).per_time]


def naive_per_time(f, w, **kw):
    grid = evaluation_grid(f, w)
    return [eval_naive(f, w, int(t), **kw) for t in grid]


def test_atom_and_boolean_connectives():
    w = xtrace([5.0, -1.0, 0.0])
    assert per_time(cmp("<", 0), w) == [False, True, False]
    assert per_time(cmp("<=", 0), w) == [False, True, True]
    assert per_time(cmp(">", 0), w) == [True, False, False]
    assert per_time(cmp("==", 0), w) == [False, False, True]
    assert per_time(Not(cmp("==", 0)), w) == [True, True, False]
    assert per_time(And(cmp(">", -2), cmp("<", 1)), w) == [False, True, True]
    assert per_time(Or(cmp(">", 1), cmp("<", -0.5)), w) == [True, True, False]
    assert per_time(Implies(cmp(">", 0), cmp(">", 4)), w) == [True, True, True]
    assert per_time(TRUE, w) == [True, True, True]
    assert per_time(FALSE, w) == [False, False, False]


def test_equality_uses_absolute_tolerance():
    w = xtrace([1.0000000004, 1.1])
    assert per_time(Atom(Predicate(Var("x"), "==", Const(1.0))), w) == [True, False]
    loose = Atom(Predicate(Var("x"), "==", Const(1.0), 0.2))
    assert per_time(loose, w) == [True, True]


def test_until_holds_through_the_witness():
    """On x = 5, 3, 1: the witness day for x < 2 is day 2, and the left
    operand must hold on days 0..2 inclusive."""
    w = xtrace([5.0, 3.0, 1.0])
    assert eval_naive(Until(Interval(0, 2), cmp(">", 0), cmp("<", 2)), w, 0)
    assert not eval_naive(Until(Interval(0, 2), cmp(">", 2), cmp("<", 2)), w, 0)


def test_strict_until_releases_the_witness_time():
    w = xtrace([5.0, 3.0, 1.0])
    f = Until(Interval(0, 2), cmp(">", 2), cmp("<", 2))
    assert not eval_fast(f, w).satisfied
    assert eval_fast(f, w, until_strict=True).satisfied
    assert eval_naive(f, w, 0, until_strict=True)


def test_until_window_is_shifted_by_the_interval():
    # witness must fall at least 2 days out
    w = xtrace([0.0, 0.0, 5.0, 0.0])
    f = Until(Interval(2, 3), cmp(">=", 0), cmp(">", 1))
    assert per_time(f, w) == [True, False, False, False]


def test_empty_windows_are_quantifier_identities():
    """A shifted window that captures no sample day makes an eventuality
    false and an invariant vacuously true."""
    w = xtrace([9.0, 9.0])
    assert not eval_fast(Eventually(Interval(0.25, 0.75), cmp(">", 0)), w).satisfied
    assert eval_fast(Globally(Interval(0.25, 0.75), cmp("<", 0)), w).satisfied
    assert not eval_fast(Until(Interval(0.25, 0.75), TRUE, TRUE), w).satisfied


def test_fractional_interval_bounds_are_closed_comparisons():
    # [0.5, 2] from day 0 captures days 1 and 2, nothing is snapped
    w = xtrace([0.0, 1.0, 2.0, 3.0])
    f = Eventually(Interval(0.5, 2), cmp("==", 1))
    assert per_time(f, w) == [True, False, False, False]
    g = Globally(Interval(0.5, 2), cmp(">=", 2))
    assert per_time(g, w) == [False, True, True, True]


def test_unbounded_eventually_and_globally():
    w = xtrace([0.0, 0.0, 7.0, 0.0])
    assert per_time(Eventually(FULL, cmp(">", 5)), w) == [True, True, True, False]
    assert per_time(Globally(FULL, cmp("<", 5)), w) == [False, False, False, True]


def test_whole_trace_verdict_is_first_grid_time():
    w = xtrace([1.0, -1.0])
    v = eval_fast(cmp(">", 0), w)
    assert v.satisfied is True
    assert v.at(0) is True and v.at(1) is False and v.at(1.0) is False
    for t in (-1, 2, 5, 0.5):
        with pytest.raises(SampleTimeError):
            v.at(t)


def test_mixed_grids_evaluate_on_the_intersection():
    """A formula over both channels uses only the days both carry."""
    w = TraceSet(
        [
            Trace("x", [0, 1, 2, 3], [10.0, 20.0, 30.0, 40.0]),
            Trace("d1(x)", [0, 1, 2], [10.0, 10.0, 10.0]),
        ]
    )
    f = And(cmp(">", 0, "x"), cmp("==", 10, "d1(x)"))
    assert list(evaluation_grid(f, w)) == [0, 1, 2]
    assert per_time(f, w) == [True, True, True]
    assert list(evaluation_grid(cmp(">", 0, "x"), w)) == [0, 1, 2, 3]


def test_unknown_channel_raises():
    w = xtrace([1.0])
    with pytest.raises(UnknownChannelError):
        eval_fast(cmp(">", 0, "y"), w)
    with pytest.raises(UnknownChannelError):
        eval_naive(cmp(">", 0, "y"), w, 0)


def test_no_channels_to_evaluate_on_raises():
    with pytest.raises(EvaluationError, match="no channels to evaluate on"):
        eval_rows(TRUE, {})


@pytest.mark.parametrize(
    "channels, message",
    [
        ({"x": np.zeros((3, 5)), "y": np.zeros((4, 5))}, "leading shapes"),
        ({"x": np.zeros(5), "y": np.zeros((1, 5))}, "leading shapes"),
        ({"x": np.array(1.0), "y": np.zeros(3)}, "has no days"),
        ({"x": np.zeros((3, 0)), "y": np.zeros((3, 2))}, "has no days"),
        ({"x": [[1.0, 2.0], [3.0]], "y": np.zeros((2, 2))}, "channel 'x'"),
        ({"x": ["a", "b"], "y": np.zeros(2)}, "channel 'x'"),
        ({"x": [[1.0, np.nan, 2.0]], "y": np.zeros((1, 3))}, "channel 'x': values must be finite"),
        ({"x": np.zeros((1, 3)), "y": [[1.0, np.inf, 2.0]]}, "channel 'y': values must be finite"),
    ],
)
def test_malformed_row_channels_raise_evaluation_error(channels, message):
    f = Eventually(Interval(0, 2), And(cmp(">", 0, "x"), cmp("<", 1, "y")))
    with pytest.raises(EvaluationError, match=message):
        eval_rows(f, channels)


def test_row_channels_may_be_nested_lists():
    f = Eventually(Interval(0, 1), cmp(">", 2, "x"))
    got = eval_rows(f, {"x": [[1.0, 3.0], [1.0, 2.0]]})
    assert got.tolist() == [True, False]


def test_term_arithmetic():
    """An atom `term == v` holds on exactly the days the term's value is v."""
    w = {"x": np.array([3.0, 4.0]), "y": np.array([10.0, 20.0])}
    from stlrank import Abs, Add, Mul, Neg, Sub

    for term, values in [
        (Add(Var("x"), Var("y")), [13.0, 24.0]),
        (Mul(Var("x"), Const(2.0)), [6.0, 8.0]),
        (Sub(Var("y"), Var("x")), [7.0, 16.0]),
        (Neg(Var("x")), [-3.0, -4.0]),
        (Abs(Sub(Var("x"), Var("y"))), [7.0, 16.0]),
    ]:
        for t, value in enumerate(values):
            f = Atom(Predicate(term, "==", Const(value)))
            assert eval_naive(f, w, t)
            assert per_time(f, w) == [v == value for v in values]
    with pytest.raises(SampleTimeError):
        eval_naive(Atom(Predicate(Var("x"), "==", Const(3.0))), w, 2)


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros(0), "channel 'x' has no days"),
        (np.zeros((1, 2)), "channel 'x': values must be 1-d"),
        ([1.0, np.nan], "channel 'x': values must be finite"),
        ([np.inf, 1.0], "channel 'x': values must be finite"),
        ([1.0, -np.inf], "channel 'x': values must be finite"),
        (["a", "b"], "channel 'x': could not convert"),
    ],
)
def test_malformed_trace_channels_raise_evaluation_error(values, message):
    """The one-trace evaluators check the channels a formula reads as
    `eval_rows` checks its matrices, and also that each is 1-d; they leave
    the others unread."""
    channels = {"x": values, "y": np.zeros(2)}
    f = And(cmp(">", 0, "x"), cmp("<", 1, "y"))
    for evaluate in (eval_fast, eval_naive, evaluation_grid):
        with pytest.raises(EvaluationError, match=message):
            evaluate(f, channels)
    assert per_time(cmp("<", 1, "y"), channels) == [True, True]


def test_naive_rejects_off_grid_time():
    w = xtrace([1.0, 1.0])
    assert eval_naive(cmp(">", 0), w, 1) and eval_naive(cmp(">", 0), w, 1.0)
    for t in (-1, 2, 0.5):
        with pytest.raises(SampleTimeError):
            eval_naive(cmp(">", 0), w, t)


def test_fast_matches_naive_on_random_formulas():
    rng = np.random.default_rng(101)
    channels = ["x", "y"]
    for _ in range(150):
        w = random_traceset(rng, channels, max_len=12)
        f = random_formula(rng, channels, depth=3)
        for strict in (False, True):
            fast = per_time(f, w, until_strict=strict)
            naive = naive_per_time(f, w, until_strict=strict)
            assert fast == naive, (f, w["x"], w["y"], strict)


def test_desugar_preserves_per_time_semantics():
    rng = np.random.default_rng(202)
    channels = ["x", "y"]
    for _ in range(150):
        w = random_traceset(rng, channels, max_len=12)
        f = random_formula(rng, channels, depth=3)
        assert per_time(desugar(f), w) == per_time(f, w)


# Terms over x and d1(x) whose products can overflow to an infinity, so
# that a difference of two of them can be NaN (inf - inf).
ST_HUGE_TERMS = st.recursive(
    st.sampled_from([Const(1e300), Const(-1e300), Const(2.0), Var("x"), Var("d1(x)")]),
    lambda t: st.one_of(st.builds(Add, t, t), st.builds(Sub, t, t), st.builds(Mul, t, t),
                        st.builds(Neg, t), st.builds(Abs, t)),
    max_leaves=4,
)
HUGE = Mul(Mul(Var("x"), Const(1e300)), Const(1e300))


@settings(max_examples=300, deadline=None)
@given(lhs=ST_HUGE_TERMS, op=st.sampled_from(COMPARISONS), rhs=ST_HUGE_TERMS,
       positions=st_positions())
@example(lhs=HUGE, op=">", rhs=HUGE, positions=[5.0, 3.0])
@example(lhs=HUGE, op=">=", rhs=HUGE, positions=[5.0, 3.0])
@example(lhs=HUGE, op="!=", rhs=HUGE, positions=[5.0, 3.0])
def test_desugar_agrees_where_terms_overflow(lhs, op, rhs, positions):
    """Every comparison of a NaN difference is false, in the evaluators and
    in the desugared formula alike, and numpy warns of no overflow."""
    f = Atom(Predicate(lhs, op, rhs, 0.5))
    w = position_channels(np.array(positions))
    assert per_time(desugar(f), w) == per_time(f, w) == naive_per_time(f, w)


def test_globally_eventually_duality():
    rng = np.random.default_rng(303)
    channels = ["x"]
    for _ in range(100):
        w = random_traceset(rng, channels, max_len=12)
        body = random_formula(rng, channels, depth=2)
        from gen_support import random_interval

        ivl = random_interval(rng)
        assert per_time(Globally(ivl, body), w) == per_time(
            Not(Eventually(ivl, Not(body))), w
        )
        assert per_time(Eventually(ivl, body), w) == per_time(
            Until(ivl, TRUE, body), w
        )
