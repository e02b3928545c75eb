"""Boolean evaluation of formulas over finite traces.

Semantics
---------
Quantifiers range over the days of the evaluation grid only. A shifted
window t + [lo, hi] picks up exactly the days t' with t + lo <= t' <= t + hi
(closed real comparison, no snapping), so an "exists" over an empty window
is False and a "for all" is True; in particular, on the last day G[a,b] with
a > 0 holds and F[a,b] with a > 0 does not.

`until` requires its left operand from the current time through the witness
time inclusive: w,t |= f1 U_I f2 iff some day t' in t + I satisfies f2 and
f1 holds on every day of [t, t'], including t' itself. That inclusive
endpoint is the default everywhere; passing until_strict=True to either
evaluator excludes the witness time (f1 on [t, t') only), which differs
exactly when f1 fails on the witness day. F/G are unaffected because
their (true U ...) desugaring trivially satisfies the extra obligation.

Every channel is sampled on days 0..n_c-1 (see `trace`). A formula is
evaluated on days 0..n-1, n the length of the shortest channel it mentions,
or of all channels if it mentions none; so anything reading d1(x) stops one
day before x does. A whole-trace verdict is satisfaction at day 0.

Evaluators
----------
`eval_naive` is a direct recursive transcription of the definitions above
and serves as the correctness oracle. It re-enumerates windows per time, so
it costs O(n^2) per temporal operator and is only meant for short traces.

`eval_fast` computes the value of each subformula on every day, bottom-up,
in one walk over the formula, `_node_on_grid`. Bounded and unbounded F/G
windows become one sliding-window any/all pass over the operand's value, and
U one pass over its two operands, so every operator costs O(n) on the day
grid (Donze, Ferrere & Maler, CAV 2013) and the whole evaluation
O(n * |formula|). Both evaluators agree bit for bit at every day.

The walk is written once over a value algebra: how a node's value is held,
and the operations atom, const, neg, any, all and until on it (and/or are
numpy's & and |). There are two, with their kernels in `kernels`:

* `Prefix` holds a node as a boolean array over the days, the window passes
  reading prefix sums;
* `Words` holds a node as one unsigned machine word per trace, bit k for
  day k, the window passes being whole-word shifts, ANDs and ORs.

A grid of n <= 64 days takes `Words`, a longer one `Prefix`; the choice
follows from n alone, and both give the same verdicts. The walk keeps each
node's value in a cache keyed by the node, so a subformula shared by several
formulas on the same channels, such as an atom, is evaluated once.

One core, `_evaluate`, runs the walk for `eval_fast` and for `eval_rows`.
`eval_rows` takes R traces at once: a node's value holds all R rows, and
one window's day offsets serve them all. It checks its channels
(`_checked`) first; the dataset entry, `analytics.verdict_matrix`, checks
them once per block of rows for all formulas, which share one cache.

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
from .trace import TraceSet, is_day


class EvaluationError(Exception):
    """Base class for evaluation failures."""


class UnknownChannelError(EvaluationError):
    """The formula mentions a channel the trace set does not carry."""


class SampleTimeError(EvaluationError):
    """The requested time is not a day of the evaluation grid."""


@dataclass(frozen=True)
class Verdict:
    """Whole-trace outcome plus the per-sample-time satisfaction signal."""

    satisfied: bool
    times: np.ndarray
    per_time: np.ndarray

    def at(self, t: int) -> bool:
        if not is_day(t, self.per_time.size):
            raise SampleTimeError(f"t={t} is not on the evaluation grid")
        return bool(self.per_time[int(t)])


def _grid_length(f: Formula, lengths: dict[str, int]) -> int:
    """n of the days 0..n-1 `f` is evaluated on (see the module docstring);
    `lengths` gives each channel's length."""
    names = channels_of(f) or lengths
    if not names:
        raise EvaluationError("no channels to evaluate on")
    for name in sorted(names):
        if name not in lengths:
            raise UnknownChannelError(f"formula mentions unknown channel {name!r}")
    return min(lengths[name] for name in names)


def evaluation_grid(f: Formula, w: TraceSet) -> np.ndarray:
    """Days a formula is evaluated on: see the module docstring."""
    return np.arange(_grid_length(f, {tr.channel: len(tr) for tr in w}), dtype=np.int64)


def eval_term(e, value_of):
    """Value of an arithmetic term. `value_of(name)` gives a channel's value,
    a float on one day or an array over a grid; a term that
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


class Prefix:
    """Node values as boolean arrays (..., n), day k at [..., k], with the
    prefix-sum kernels; for grids of any length."""

    def __init__(self, lead: tuple, n: int) -> None:
        self.shape, self.n = lead + (n,), n

    def atom(self, days: np.ndarray) -> np.ndarray:
        return days

    def const(self, value: bool) -> np.ndarray:
        return np.full(self.shape, value)

    def neg(self, v: np.ndarray) -> np.ndarray:
        return ~v

    def any(self, v, a: int, b: int):
        return kernels.window_any(v, a, b)

    def all(self, v, a: int, b: int):
        return kernels.window_all(v, a, b)

    def until(self, f1, f2, a: int, b: int, strict: bool):
        return kernels.until_scan(f1, f2, a, b, strict)

    def day0(self, v: np.ndarray) -> np.ndarray:
        return v[..., 0]

    def days(self, v: np.ndarray) -> np.ndarray:
        return v


class Words:
    """Node values as one unsigned word per trace (...), bit k for day k,
    with the word kernels; for grids of n <= 64 days."""

    def __init__(self, lead: tuple, n: int) -> None:
        self.lead, self.n, self.mask = lead, n, kernels.word_mask(n)

    def atom(self, days: np.ndarray) -> np.ndarray:
        return kernels.pack_words(days)

    def const(self, value: bool) -> np.ndarray:
        return np.full(self.lead, self.mask if value else 0, self.mask.dtype)

    def neg(self, v: np.ndarray) -> np.ndarray:
        return v ^ self.mask

    def any(self, v, a: int, b: int):
        return kernels.words_any(v, a, b, self.n)

    def all(self, v, a: int, b: int):
        return kernels.words_all(v, a, b, self.n)

    def until(self, f1, f2, a: int, b: int, strict: bool):
        return kernels.words_until(f1, f2, a, b, strict, self.n)

    def day0(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v & 1, dtype=np.bool_)

    def days(self, v: np.ndarray) -> np.ndarray:
        return kernels.unpack_words(v, self.n)


def _node_on_grid(
    f: Formula, alg: Prefix | Words, value_of, grid: np.ndarray, strict: bool, cache: dict
):
    """Value of `f` in the algebra `alg` (`Prefix` or `Words`) on the days
    `grid`, the channel values `value_of(name)` giving (..., n) arrays.
    `cache` holds the value of each node already evaluated on this grid."""
    # The grid length is part of the key: a formula that reads d1(x) cuts
    # x to one day less than one that reads x alone.
    key = (f, alg.n, strict)
    if key in cache:
        return cache[key]
    args = (alg, value_of, grid, strict, cache)
    if isinstance(f, (TrueFormula, FalseFormula)):
        out = alg.const(isinstance(f, TrueFormula))
    elif isinstance(f, Atom):
        days = eval_predicate(f.predicate, value_of)
        # Only a comparison between constants comes out as a single bool.
        out = alg.atom(days) if isinstance(days, np.ndarray) else alg.const(bool(days))
    elif isinstance(f, Not):
        out = alg.neg(_node_on_grid(f.operand, *args))
    elif isinstance(f, And):
        out = _node_on_grid(f.left, *args) & _node_on_grid(f.right, *args)
    elif isinstance(f, Or):
        out = _node_on_grid(f.left, *args) | _node_on_grid(f.right, *args)
    elif isinstance(f, Implies):
        out = alg.neg(_node_on_grid(f.left, *args)) | _node_on_grid(f.right, *args)
    elif isinstance(f, (Eventually, Globally, Until)):
        # Day offsets of t + I: the window of day k is days k + a .. k + b.
        a, b = kernels.shift_bounds(grid, f.interval.lo, f.interval.hi)
        if isinstance(f, Eventually):
            out = alg.any(_node_on_grid(f.operand, *args), a, b)
        elif isinstance(f, Globally):
            out = alg.all(_node_on_grid(f.operand, *args), a, b)
        else:
            left, right = _node_on_grid(f.left, *args), _node_on_grid(f.right, *args)
            out = alg.until(left, right, a, b, strict)
    else:
        raise FormulaError(f"not a formula: {f!r}")
    cache[key] = out
    return out


def _evaluate(f: Formula, arrays: dict[str, np.ndarray], strict: bool, cache: dict):
    """(grid, algebra, value) of `f` on the days 0..n-1 of its grid, for
    channels of one leading shape, each (..., n_c) on days 0..n_c-1. A grid
    of n <= 64 days takes `Words`, a longer one `Prefix`. `cache` is as for
    `_node_on_grid` and may serve several formulas on the same channels.
    `eval_fast` keeps the grid as `Verdict.times`: a second arange per call
    shows on long traces."""
    n = _grid_length(f, {name: values.shape[-1] for name, values in arrays.items()})
    lead = next(iter(arrays.values())).shape[:-1]
    alg = (Words if n <= 64 else Prefix)(lead, n)
    grid = np.arange(n, dtype=np.int64)
    return grid, alg, _node_on_grid(f, alg, lambda name: arrays[name][..., :n], grid, strict, cache)


def eval_fast(f: Formula, w: TraceSet, *, until_strict: bool = False) -> Verdict:
    """Evaluate at every day of the grid in one bottom-up pass; O(n * |formula|)."""
    times, alg, value = _evaluate(f, {tr.channel: tr.values for tr in w}, until_strict, {})
    per_time = alg.days(value)
    return Verdict(satisfied=bool(per_time[0]), times=times, per_time=per_time)


def _checked(channels) -> dict[str, np.ndarray]:
    """`channels` as float arrays, checked as `eval_rows` states."""
    arrays = {}
    for name, values in channels.items():
        try:
            arrays[name] = values = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise EvaluationError(f"channel {name!r}: {exc}") from None
        if values.ndim == 0 or values.shape[-1] == 0:
            raise EvaluationError(f"channel {name!r} has no days")
        if not np.isfinite(values).all():
            raise EvaluationError(f"channel {name!r}: values must be finite")
    shapes = {values.shape[:-1] for values in arrays.values()}
    if len(shapes) > 1:
        raise EvaluationError(f"channels differ in their leading shapes: {sorted(shapes)}")
    return arrays


def eval_rows(f: Formula, channels, *, until_strict: bool = False) -> np.ndarray:
    """(R,) array: entry r is `eval_fast(f, w_r).satisfied` for the traces
    of row r. `channels` maps each name to an (R, n_c) matrix on days
    0..n_c-1; the evaluation grid is as for `eval_fast`. Channels of one
    trace, (n_c,) each, give a 0-d verdict. A channel that is not numeric,
    has no day or a value that is not finite (as `Trace` requires), or
    channels whose leading shapes differ, raise EvaluationError."""
    _, alg, value = _evaluate(f, _checked(channels), until_strict, {})
    return alg.day0(value)


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
    """Value of a term at day t (t must be a day of every channel the term
    mentions)."""
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
    day of the formula's evaluation grid (day 0 when t is omitted, matching
    Verdict.satisfied)."""
    grid = evaluation_grid(f, w)
    if t is None:
        t = 0
    elif not is_day(t, grid.size):
        raise SampleTimeError(f"t={t} is not on the evaluation grid")
    return _naive(f, w, grid, int(t), until_strict)
