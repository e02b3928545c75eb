"""Differential tests: the array evaluator, the naive oracle and the grounded
propositional expansion must agree on random Until-free formulas over
product traces; the batched evaluator and the dataset entry must agree
with the array evaluator and the oracle on every row of a stack of records,
Until included; and the two value algebras of the evaluator's node walk must
agree with each other and with the oracle on every day (McKeeman,
Differential Testing for Software, 1998)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlrank import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    EvaluationError,
    Eventually,
    GeneratorConfig,
    Globally,
    Implies,
    Interval,
    Not,
    Or,
    Predicate,
    Trace,
    TraceSet,
    Until,
    Var,
    default_library,
    derivative_values,
    eval_fast,
    eval_naive,
    eval_rows,
    evaluate_grounded,
    expand_propositional,
    generate,
    metric_distribution,
    parse_formula,
    position_channels,
    satisfaction_rates,
    traceset_from_positions,
)
from stlrank import analytics
from stlrank.analytics import verdict_matrix
from stlrank.core.semantics import Prefix, Words, _node_on_grid
from gen_support import st_formulas, st_position_rows, st_positions

X_ABOVE_5 = Atom(Predicate(Var("x"), ">", Const(5.0)))
X_BELOW_3 = Atom(Predicate(Var("x"), "<", Const(3.0)))
Y_BELOW_1 = Atom(Predicate(Var("y"), "<", Const(1.0)))


@settings(max_examples=300, deadline=None)
@given(f=st_formulas(["x", "d1(x)"]), positions=st_positions())
# A formula that reads no channel is evaluated on the grid both channels share.
@example(f=Globally(Interval(0.5, 1.0), FALSE), positions=[-1.0, -1.0])
def test_fast_naive_and_grounded_agree(f, positions):
    w = traceset_from_positions(positions)
    verdict = eval_fast(f, w)
    naive = [eval_naive(f, w, int(t)) for t in verdict.times]
    assert verdict.per_time.tolist() == naive

    d1, _ = derivative_values(positions)
    channels = {"x": np.asarray(positions), "d1(x)": d1}
    grounded = evaluate_grounded(expand_propositional(f, len(positions) - 1).root, channels)
    assert verdict.satisfied is naive[0] is grounded


@settings(max_examples=200, deadline=None)
@given(f=st_formulas(["x", "d1(x)"], until=True), rows=st_position_rows())
# The two until variants differ when the left operand fails at the witness.
@example(f=Until(Interval(0.0, 2.0), X_ABOVE_5, X_BELOW_3), rows=[[8.0, 2.0], [8.0, 9.0]])
def test_batched_rows_agree_with_fast_and_naive(f, rows):
    channels = position_channels(rows)
    for strict in (False, True):
        verdicts = eval_rows(f, channels, until_strict=strict)
        assert verdicts.shape == (len(rows),)
        for r, positions in enumerate(rows):
            w = traceset_from_positions(positions)
            fast = eval_fast(f, w, until_strict=strict).satisfied
            assert bool(verdicts[r]) is fast is eval_naive(f, w, until_strict=strict)
            # One trace, (n,) per channel, gives a 0-d verdict.
            one = eval_rows(f, position_channels(positions), until_strict=strict)
            assert one.shape == () and bool(one) is fast


@st.composite
def st_matrix_and_formulas(draw):
    """A (rows, days) position matrix and several formulas over its
    channels; a one-day matrix has no d1(x)."""
    days = draw(st.sampled_from([1, 2, 14]))
    rows = draw(st.sampled_from([0, 1, 3]))
    positions = draw(st.lists(st_positions(days, days), min_size=rows, max_size=rows))
    channels = ["x"] if days == 1 else ["x", "d1(x)"]
    formulas = draw(st.lists(st_formulas(channels, until=True), min_size=2, max_size=4))
    return np.array(positions, dtype=np.float64).reshape(rows, days), formulas


@settings(max_examples=100, deadline=None)
@given(case=st_matrix_and_formulas(), strict=st.booleans())
def test_verdict_matrix_agrees_with_rows_and_naive(case, strict):
    positions, formulas = case
    got = verdict_matrix(positions, formulas, until_strict=strict)
    assert got.shape == (len(positions), len(formulas)) and got.dtype == np.bool_
    for j, f in enumerate(formulas):
        rows = eval_rows(f, position_channels(positions), until_strict=strict)
        assert got[:, j].tolist() == rows.tolist()
        for r, row in enumerate(positions):
            w = traceset_from_positions(row)
            assert bool(got[r, j]) is eval_naive(f, w, until_strict=strict)


@pytest.mark.parametrize("days", [1, 2, 14])
def test_verdict_matrix_of_no_rows_evaluates_nothing(days):
    got = verdict_matrix(np.zeros((0, days)), [Y_BELOW_1, X_ABOVE_5])
    assert got.shape == (0, 2) and got.dtype == np.bool_


def test_verdict_matrix_of_no_formulas_has_no_columns():
    got = verdict_matrix(np.ones((3, 14)), [])
    assert got.shape == (3, 0) and got.dtype == np.bool_
    ds = generate(GeneratorConfig(n_records=6, pattern_mix={"flat": 1.0}, seed=3))
    assert satisfaction_rates(ds, []).to_text() == "category  property  satisfied  total  rate\n"
    assert metric_distribution(ds, []).to_csv_text() == "property,group,metric,count,mean\n"


def test_verdict_matrix_checks_its_channels():
    ds = generate(GeneratorConfig(n_records=6, pattern_mix={"flat": 1.0}, seed=3))
    ds.positions[2, 5] = np.nan
    formulas = [spec.formula for spec in default_library()]
    with pytest.raises(EvaluationError) as rows:
        eval_rows(formulas[0], position_channels(ds.positions))
    with pytest.raises(EvaluationError) as matrix:
        verdict_matrix(ds.positions, formulas)
    assert str(matrix.value) == str(rows.value) == "channel 'x': values must be finite"


@pytest.mark.parametrize("block", [7, 23])
def test_verdict_matrix_blocks_agree_with_rows(block, monkeypatch):
    """Rows evaluated in blocks, the last one short, give the verdicts of
    one `eval_rows` pass over all rows, and a bad value in a later block is
    still reported."""
    mix = {"flat": 0.2, "cold": 0.2, "warm": 0.2, "spiky": 0.2, "missing": 0.2}
    ds = generate(GeneratorConfig(n_records=60, pattern_mix=mix, noise_sigma=0.5, seed=8))
    formulas = [spec.formula for spec in default_library()] + [
        parse_formula("(x > 20) U[0,6] (d1(x) < -2)"),
        parse_formula("G((x == -1) -> F[0.5,3.5](x > 0))"),
    ]
    monkeypatch.setattr(analytics, "_BLOCK", block)
    for strict in (False, True):
        got = verdict_matrix(ds.positions, formulas, until_strict=strict)
        for j, f in enumerate(formulas):
            rows = eval_rows(f, position_channels(ds.positions), until_strict=strict)
            assert got[:, j].tolist() == rows.tolist()
    ds.positions[-1, 3] = np.inf
    with pytest.raises(EvaluationError, match="channel 'x': values must be finite"):
        verdict_matrix(ds.positions, formulas)


@pytest.mark.parametrize("lead", [(), (0,), (2, 3)])
def test_eval_rows_keeps_the_leading_shape_on_short_grids(lead):
    """A grid of 14 days, evaluated as words, gives one verdict per trace:
    0-d for one trace, (0,) for no rows, (2, 3) for a (2, 3) stack."""
    rng = np.random.default_rng(5)
    x = rng.integers(-3, 4, size=lead + (14,)).astype(np.float64)
    f = Until(Interval(1.0, 4.5), X_BELOW_3, Eventually(Interval(0.0, 2.0), X_ABOVE_5))
    got = eval_rows(f, {"x": x})
    assert got.shape == lead and got.dtype == np.bool_
    for idx in np.ndindex(*lead):
        w = TraceSet([Trace("x", np.arange(14), x[idx])])
        assert bool(got[idx]) is eval_naive(f, w)


def st_wide_intervals():
    """Windows on grids of up to 70 days: integral and fractional bounds
    from the first day to past the last, and unbounded windows."""
    lo = st.integers(0, 72).flatmap(lambda d: st.sampled_from([d, d + 0.5]))
    width = st.sampled_from([0.5, 1.0, 2.5, 6.0, 40.0, math.inf])
    return st.builds(lambda a, w: Interval(a, a + w), lo, width)


X_POS = Atom(Predicate(Var("x"), ">", Const(0.0)))
Y_NEG = Atom(Predicate(Var("y"), "<", Const(0.0)))
# Every operator, with windows inside the grid, across its end and past it.
EVERY_OPERATOR = Or(
    Until(Interval(1.0, 5.5), X_POS, Not(Y_NEG)),
    And(
        Globally(Interval(0.5, math.inf), Implies(X_POS, Eventually(Interval(7.0, 63.5), Y_NEG))),
        Eventually(Interval(62.0, 66.0), Until(Interval(0.0, math.inf), TRUE, Not(FALSE))),
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 70),
    f=st_formulas(["x", "y"], until=True, intervals=st_wide_intervals()),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8, f=EVERY_OPERATOR, seed=1)
@example(n=16, f=EVERY_OPERATOR, seed=2)
@example(n=32, f=EVERY_OPERATOR, seed=3)
@example(n=63, f=EVERY_OPERATOR, seed=4)
@example(n=64, f=EVERY_OPERATOR, seed=5)
@example(n=65, f=EVERY_OPERATOR, seed=6)
def test_word_and_prefix_algebras_agree_on_every_day(n, f, seed):
    """The node walk over `Prefix` (any n) and over `Words` (n <= 64) gives
    the same value on every day of (R, n) channels, and so does the oracle."""
    rng = np.random.default_rng(seed)
    channels = {name: rng.integers(-3, 4, size=(2, n)).astype(np.float64) for name in ("x", "y")}
    grid = np.arange(n, dtype=np.int64)
    algebras = [Prefix((2,), n)] + ([Words((2,), n)] if n <= 64 else [])
    for strict in (False, True):
        days = [alg.days(_node_on_grid(f, alg, channels.__getitem__, grid, strict, {}))
                for alg in algebras]
        for got in days:
            assert got.shape == (2, n) and got.dtype == np.bool_
            assert np.array_equal(got, days[0])
        for r in range(2):
            w = TraceSet([Trace(name, grid, values[r]) for name, values in channels.items()])
            naive = [eval_naive(f, w, t, until_strict=strict) for t in range(n)]
            assert days[0][r].tolist() == naive


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 70),
    longer=st.sampled_from(["x", "y", None]),
    f=st_formulas(["x", "y"], until=True, intervals=st_wide_intervals()),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, longer="y", f=EVERY_OPERATOR, seed=7)
@example(n=65, longer=None, f=EVERY_OPERATOR, seed=8)
def test_a_trace_set_evaluates_as_its_channel_map(n, longer, f, seed):
    """A plain channel map and the `TraceSet` of equal `Trace`s give the
    same verdict on every day in `eval_fast` and `eval_naive`, and day 0 is
    what `eval_rows` gives on the one-row stack. Either channel may be one
    day longer than the other."""
    rng = np.random.default_rng(seed)
    channels = {name: rng.integers(-3, 4, size=n + int(name == longer)).astype(np.float64)
                for name in ("x", "y")}
    w = TraceSet([Trace(name, np.arange(values.size), values)
                  for name, values in channels.items()])
    stack = {name: values[np.newaxis] for name, values in channels.items()}
    for strict in (False, True):
        fast = eval_fast(f, channels, until_strict=strict)
        assert np.array_equal(fast.times, eval_fast(f, w, until_strict=strict).times)
        assert fast.per_time.tolist() == eval_fast(f, w, until_strict=strict).per_time.tolist()
        for t in fast.times.tolist():
            naive = eval_naive(f, channels, t, until_strict=strict)
            assert naive is eval_naive(f, w, t, until_strict=strict) is bool(fast.per_time[t])
        assert eval_rows(f, stack, until_strict=strict).tolist() == [fast.satisfied]
