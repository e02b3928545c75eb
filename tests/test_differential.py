"""Differential tests: the array evaluator, the naive oracle and the grounded
propositional expansion must agree on random Until-free formulas over
product traces, and the batched evaluator must agree with the array
evaluator and the oracle on every row of a stack of records, Until included
(McKeeman, Differential Testing for Software, 1998)."""

import numpy as np
from hypothesis import example, given, settings

from stlrank import (
    FALSE,
    Atom,
    Const,
    Globally,
    Interval,
    Predicate,
    Until,
    Var,
    derivative_values,
    eval_fast,
    eval_naive,
    eval_rows,
    evaluate_grounded,
    expand_propositional,
    position_channels,
    traceset_from_positions,
)
from gen_support import st_formulas, st_position_rows, st_positions

X_ABOVE_5 = Atom(Predicate(Var("x"), ">", Const(5.0)))
X_BELOW_3 = Atom(Predicate(Var("x"), "<", Const(3.0)))


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
