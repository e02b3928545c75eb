"""Differential test: the array evaluator, the naive oracle and the grounded
propositional expansion must agree on random Until-free formulas over
product traces (McKeeman, Differential Testing for Software, 1998)."""

import numpy as np
from hypothesis import example, given, settings

from stlrank import (
    FALSE,
    Globally,
    Interval,
    derivative_values,
    eval_fast,
    eval_naive,
    evaluate_grounded,
    expand_propositional,
    traceset_from_positions,
)
from gen_support import st_formulas, st_positions


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
