"""Boolean evaluation of formulas over finite traces.

Semantics
---------
Quantifiers range over sample times only. A shifted window t + [lo, hi] picks
up exactly the sample times t' with t + lo <= t' <= t + hi (closed real
comparison, no snapping), so an "exists" over an empty window is False and a
"for all" is True; in particular, at the last sample G[a,b] with a > 0 holds
and F[a,b] with a > 0 does not.

`until` requires its left operand from the current time through the witness
time inclusive: w,t |= f1 U_I f2 iff some sample t' in t + I satisfies f2 and
f1 holds at every sample of [t, t'], including t' itself. That inclusive
endpoint is the default everywhere; passing until_strict=True to either
evaluator excludes the witness time (f1 on [t, t') only), which differs
exactly when f1 fails at the witness sample. F/G are unaffected because
their (true U ...) desugaring trivially satisfies the extra obligation.

The evaluation grid of a formula is the intersection of the day grids of the
channels it mentions (all channels, for channel-free formulas); a trace set
whose channels share one grid evaluates on exactly that grid. A whole-trace
verdict is satisfaction at the first grid time.

Evaluators
----------
`eval_naive` is a direct recursive transcription of the definitions above
and serves as the correctness oracle. It re-enumerates windows per time, so
it costs O(n^2) per temporal operator and is only meant for short traces.

`eval_fast` computes one boolean array per subformula, bottom-up. Bounded
and unbounded F/G windows become one sliding-window any/all pass over the
array, and U becomes one run-length plus next-witness scan, so every
operator costs O(n) on a day grid (Donze, Ferrere & Maler, CAV 2013) and
the whole evaluation O(n * |formula|). The array passes live in `kernels`.
Both evaluators agree bit for bit at every sample time.

`eval_rows` runs the same pass over R traces on days 0..n-1 at once, each
node an (R, n) array whose window bounds serve all rows; datasets are
evaluated this way.

Both evaluators, and the grounded evaluator of propositional expansion, read
terms through `eval_term` and comparisons through `eval_predicate`; numpy
arithmetic treats a channel's whole grid and a single sample alike, so the
term and comparison semantics are defined once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .formula import (
    Abs,
    Add,
    And,
    Atom,
    Const,
    Eventually,
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
    TrueFormula,
    Until,
    Var,
    channels_of,
)
from .trace import TraceSet


class EvaluationError(Exception):
    """Base class for evaluation failures."""


class UnknownChannelError(EvaluationError):
    """The formula mentions a channel the trace set does not carry."""


class SampleTimeError(EvaluationError):
    """The requested time is not a sample time of the evaluation grid."""


@dataclass(frozen=True)
class Verdict:
    """Whole-trace outcome plus the per-sample-time satisfaction signal."""

    satisfied: bool
    times: np.ndarray
    per_time: np.ndarray

    def at(self, t: int) -> bool:
        i = int(np.searchsorted(self.times, t))
        if i >= self.times.size or int(self.times[i]) != int(t):
            raise SampleTimeError(f"t={t} is not on the evaluation grid")
        return bool(self.per_time[i])


def evaluation_grid(f: Formula, w: TraceSet) -> np.ndarray:
    """Sample times a formula is evaluated on: see the module docstring."""
    chans = channels_of(f)
    for name in sorted(chans):
        if name not in w:
            raise UnknownChannelError(f"formula mentions unknown channel {name!r}")
    try:
        return w.common_times(sorted(chans) if chans else None)
    except Exception as exc:
        raise EvaluationError(str(exc)) from exc


def _values_on_grid(w: TraceSet, name: str, grid: np.ndarray) -> np.ndarray:
    if name not in w:
        raise UnknownChannelError(f"unknown channel {name!r}")
    tr = w[name]
    if tr.times.size == grid.size and bool(np.array_equal(tr.times, grid)):
        return tr.values
    pos = np.searchsorted(tr.times, grid)
    if bool(np.any(pos >= tr.times.size)) or not bool(np.array_equal(tr.times[pos], grid)):
        raise SampleTimeError(f"channel {name!r} is not sampled on the whole grid")
    return tr.values[pos]


def eval_term(e, value_of):
    """Value of an arithmetic term. `value_of(name)` gives a channel's value,
    a float at one sample time or an array over a grid; a term that
    mentions no channel comes out as a float."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return value_of(e.name)
    if isinstance(e, Neg):
        return -eval_term(e.operand, value_of)
    if isinstance(e, Abs):
        return abs(eval_term(e.operand, value_of))
    left = eval_term(e.left, value_of)
    right = eval_term(e.right, value_of)
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    if isinstance(e, Mul):
        return left * right
    raise FormulaError(f"not a term: {e!r}")


def eval_predicate(p: Predicate, value_of):
    """Truth of `lhs op rhs`, a bool or a boolean array like `eval_term`;
    == and != compare |lhs - rhs| with the predicate's tolerance."""
    diff = eval_term(p.lhs, value_of) - eval_term(p.rhs, value_of)
    if p.op == "<":
        return diff < 0.0
    if p.op == "<=":
        return diff <= 0.0
    if p.op == ">":
        return diff > 0.0
    if p.op == ">=":
        return diff >= 0.0
    if p.op == "==":
        return abs(diff) <= p.eq_tolerance
    return abs(diff) > p.eq_tolerance


def _node_on_grid(
    f: Formula, value_of, grid: np.ndarray, shape: tuple, strict: bool
) -> np.ndarray:
    """Satisfaction of `f` at every grid position, of `shape` (n,) or
    (R, n), as are the channel values `value_of(name)` gives."""
    args = (value_of, grid, shape, strict)
    if isinstance(f, TrueFormula):
        return np.ones(shape, dtype=np.bool_)
    if isinstance(f, FalseFormula):
        return np.zeros(shape, dtype=np.bool_)
    if isinstance(f, Atom):
        out = eval_predicate(f.predicate, value_of)
        # Only a comparison between constants comes out as a single bool.
        return out if isinstance(out, np.ndarray) else np.full(shape, out)
    if isinstance(f, Not):
        return ~_node_on_grid(f.operand, *args)
    if isinstance(f, And):
        return _node_on_grid(f.left, *args) & _node_on_grid(f.right, *args)
    if isinstance(f, Or):
        return _node_on_grid(f.left, *args) | _node_on_grid(f.right, *args)
    if isinstance(f, Implies):
        return ~_node_on_grid(f.left, *args) | _node_on_grid(f.right, *args)
    if isinstance(f, (Eventually, Globally, Until)):
        # Inclusive index bounds of t + I around every grid position.
        lo, hi = kernels.shift_bounds(grid, f.interval.lo, f.interval.hi)
        if isinstance(f, Eventually):
            return kernels.window_any(_node_on_grid(f.operand, *args), lo, hi)
        if isinstance(f, Globally):
            return kernels.window_all(_node_on_grid(f.operand, *args), lo, hi)
        left, right = _node_on_grid(f.left, *args), _node_on_grid(f.right, *args)
        return kernels.until_scan(left, right, lo, hi, strict)
    raise FormulaError(f"not a formula: {f!r}")


def eval_fast(f: Formula, w: TraceSet, *, until_strict: bool = False) -> Verdict:
    """Evaluate at every grid time in one bottom-up pass; O(n * |formula|)."""
    grid = evaluation_grid(f, w)
    per_time = _node_on_grid(
        f, lambda name: _values_on_grid(w, name, grid), grid, grid.shape, until_strict
    )
    return Verdict(satisfied=bool(per_time[0]), times=grid, per_time=per_time)


def eval_rows(f: Formula, channels, *, until_strict: bool = False) -> np.ndarray:
    """(R,) array: entry r is `eval_fast(f, w_r).satisfied` for the traces
    of row r. `channels` maps each name to an (R, n_c) matrix on days
    0..n_c-1, so the evaluation grid is days 0..n-1 for the shortest channel
    the formula mentions (of all channels, if it mentions none). Channels of
    one trace, (n_c,) each, give a 0-d verdict."""
    names = channels_of(f) or frozenset(channels)
    for name in sorted(names):
        if name not in channels:
            raise UnknownChannelError(f"formula mentions unknown channel {name!r}")
    n = min(channels[c].shape[-1] for c in names)
    shape = channels[next(iter(names))].shape[:-1] + (n,)
    grid = np.arange(n, dtype=np.int64)
    per_time = _node_on_grid(f, lambda name: channels[name][..., :n], grid, shape, until_strict)
    return per_time[..., 0]


# ---------------------------------------------------------------------------
# Reference evaluator.
# ---------------------------------------------------------------------------

def _value_at(w: TraceSet, name: str, t: int) -> float:
    if name not in w:
        raise UnknownChannelError(f"unknown channel {name!r}")
    tr = w[name]
    if not tr.has_time(t):
        raise SampleTimeError(f"channel {name!r} has no sample at t={t}")
    return tr.value_at(t)


def eval_expr(e, w: TraceSet, t: int) -> float:
    """Value of a term at sample time t (t must be sampled by every channel
    the term mentions)."""
    return eval_term(e, lambda name: _value_at(w, name, t))


def _window_slice(grid: np.ndarray, t: int, interval: Interval):
    lo = int(np.searchsorted(grid, t + interval.lo, side="left"))
    hi = int(np.searchsorted(grid, t + interval.hi, side="right"))
    return lo, hi  # half-open index range


def _naive(f: Formula, w: TraceSet, grid: np.ndarray, i: int, strict: bool) -> bool:
    t = int(grid[i])
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Atom):
        return eval_predicate(f.predicate, lambda name: _value_at(w, name, t))
    if isinstance(f, Not):
        return not _naive(f.operand, w, grid, i, strict)
    if isinstance(f, And):
        return _naive(f.left, w, grid, i, strict) and _naive(f.right, w, grid, i, strict)
    if isinstance(f, Or):
        return _naive(f.left, w, grid, i, strict) or _naive(f.right, w, grid, i, strict)
    if isinstance(f, Implies):
        return (not _naive(f.left, w, grid, i, strict)) or _naive(f.right, w, grid, i, strict)
    if isinstance(f, Eventually):
        lo, hi = _window_slice(grid, t, f.interval)
        return any(_naive(f.operand, w, grid, j, strict) for j in range(lo, hi))
    if isinstance(f, Globally):
        lo, hi = _window_slice(grid, t, f.interval)
        return all(_naive(f.operand, w, grid, j, strict) for j in range(lo, hi))
    if isinstance(f, Until):
        lo, hi = _window_slice(grid, t, f.interval)
        for j in range(lo, hi):
            if not _naive(f.right, w, grid, j, strict):
                continue
            upto = j if strict else j + 1
            if all(_naive(f.left, w, grid, k, strict) for k in range(i, upto)):
                return True
        return False
    raise FormulaError(f"not a formula: {f!r}")


def eval_naive(
    f: Formula, w: TraceSet, t: int | None = None, *, until_strict: bool = False
) -> bool:
    """Reference evaluator: recursive transcription of the semantics at one
    sample time of the formula's evaluation grid (the first when t is
    omitted, matching Verdict.satisfied)."""
    grid = evaluation_grid(f, w)
    if t is None:
        i = 0
    else:
        i = int(np.searchsorted(grid, t))
        if i >= grid.size or int(grid[i]) != int(t):
            raise SampleTimeError(f"t={t} is not on the evaluation grid")
    return _naive(f, w, grid, i, until_strict)
