"""Differential tests: the array evaluator, the naive oracle and the grounded
propositional expansion must agree on random Until-free formulas over
product traces, and the batched evaluator and the dataset entry must agree
with the array evaluator and the oracle on every row of a stack of records,
Until included (McKeeman, Differential Testing for Software, 1998)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stlrank import (
    FALSE,
    Atom,
    Const,
    EvaluationError,
    GeneratorConfig,
    Globally,
    Interval,
    Predicate,
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
    position_channels,
    traceset_from_positions,
)
from stlrank.analytics import verdict_matrix
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


def test_verdict_matrix_checks_its_channels():
    ds = generate(GeneratorConfig(n_records=6, pattern_mix={"flat": 1.0}, seed=3))
    ds.positions[2, 5] = np.nan
    formulas = [spec.formula for spec in default_library()]
    with pytest.raises(EvaluationError) as rows:
        eval_rows(formulas[0], position_channels(ds.positions))
    with pytest.raises(EvaluationError) as matrix:
        verdict_matrix(ds.positions, formulas)
    assert str(matrix.value) == str(rows.value) == "channel 'x': values must be finite"
