"""Random generators shared by the oracle-equivalence tests: seeded numpy
generators, and Hypothesis strategies for the differential tests.

Formulas built by the seeded generators round-trip through the printer and
parser as equal ASTs, so they avoid the one shape the parser normalizes
away: a negation applied directly to a constant (folded into a signed
constant).
"""

import numpy as np
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
    Predicate,
    Sub,
    TRUE,
    Trace,
    TraceSet,
    Until,
    Var,
)
from stlrank.core.formula import COMPARISONS


def random_const(rng):
    if rng.random() < 0.5:
        return Const(float(rng.integers(-9, 10)))
    return Const(round(float(rng.uniform(-10.0, 10.0)), 2))


def random_expr(rng, channels, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return random_const(rng)
        return Var(str(rng.choice(channels)))
    kind = rng.integers(0, 5)
    if kind == 0:
        return Add(random_expr(rng, channels, depth - 1), random_expr(rng, channels, depth - 1))
    if kind == 1:
        return Sub(random_expr(rng, channels, depth - 1), random_expr(rng, channels, depth - 1))
    if kind == 2:
        return Mul(random_expr(rng, channels, depth - 1), random_expr(rng, channels, depth - 1))
    if kind == 3:
        # The parser folds -<const>, so negate anything but a bare constant.
        inner = random_expr(rng, channels, depth - 1)
        if isinstance(inner, Const):
            inner = Var(str(rng.choice(channels)))
        return Neg(inner)
    return Abs(random_expr(rng, channels, depth - 1))


def random_predicate(rng, channels):
    op = str(rng.choice(COMPARISONS))
    return Predicate(
        random_expr(rng, channels, 1), op, random_expr(rng, channels, 1)
    )


def random_interval(rng):
    lo = float(rng.integers(0, 4))
    if rng.random() < 0.25:
        return Interval(lo, float("inf"))
    if rng.random() < 0.2:
        # Fractional bounds: the window is compared on the real line, the
        # samples stay integral.
        return Interval(lo + 0.5, lo + 0.5 + float(rng.integers(1, 4)))
    return Interval(lo, lo + float(rng.integers(1, 5)))


def random_formula(rng, channels, depth):
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            return TRUE
        if roll < 0.2:
            return FALSE
        return Atom(random_predicate(rng, channels))
    kind = rng.integers(0, 7)
    if kind == 0:
        return Not(random_formula(rng, channels, depth - 1))
    if kind == 1:
        return And(random_formula(rng, channels, depth - 1), random_formula(rng, channels, depth - 1))
    if kind == 2:
        return Or(random_formula(rng, channels, depth - 1), random_formula(rng, channels, depth - 1))
    if kind == 3:
        return Implies(random_formula(rng, channels, depth - 1), random_formula(rng, channels, depth - 1))
    if kind == 4:
        return Eventually(random_interval(rng), random_formula(rng, channels, depth - 1))
    if kind == 5:
        return Globally(random_interval(rng), random_formula(rng, channels, depth - 1))
    return Until(
        random_interval(rng),
        random_formula(rng, channels, depth - 1),
        random_formula(rng, channels, depth - 1),
    )


def random_values(rng, n):
    if rng.random() < 0.5:
        return rng.integers(-3, 4, size=n).astype(np.float64)
    return np.round(rng.uniform(-10.0, 10.0, size=n), 1)


def random_traceset(rng, channels, max_len=20):
    """Channels of mixed lengths, each on days 0..n-1, so a formula's
    evaluation grid is the shortest channel it mentions."""
    traces = []
    for name in channels:
        n = int(rng.integers(1, max_len + 1))
        traces.append(Trace(name, np.arange(n), random_values(rng, n)))
    return TraceSet(traces)


# ---------------------------------------------------------------------------
# Hypothesis strategies.
# ---------------------------------------------------------------------------

def st_terms(channels):
    consts = st.one_of(
        st.integers(-9, 9).map(float),
        st.integers(-100, 100).map(lambda v: v / 4),
    ).map(Const)
    leaves = st.one_of(consts, st.sampled_from(channels).map(Var))
    return st.recursive(
        leaves,
        lambda t: st.one_of(
            st.builds(Add, t, t),
            st.builds(Sub, t, t),
            st.builds(Mul, t, t),
            st.builds(Neg, t),
            st.builds(Abs, t),
        ),
        max_leaves=3,
    )


def st_predicates(channels):
    return st.builds(
        Predicate,
        st_terms(channels),
        st.sampled_from(COMPARISONS),
        st_terms(channels),
        st.sampled_from([1e-9, 0.5, 1.0, 3.0]),
    )


@st.composite
def st_intervals(draw):
    """Integral, half-offset fractional and unbounded windows."""
    lo = draw(st.integers(0, 3)) + draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        return Interval(lo, float("inf"))
    return Interval(lo, lo + draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])))


def st_formulas(channels, until=False, intervals=None):
    """Formulas over the channels; Until-free unless `until` is set, as
    propositional expansion can only ground Until-free formulas. Windows
    come from `intervals`, `st_intervals()` by default."""
    intervals = st_intervals() if intervals is None else intervals
    leaves = st.one_of(st.just(TRUE), st.just(FALSE), st_predicates(channels).map(Atom))

    def extend(f):
        return st.one_of(
            st.builds(Not, f),
            st.builds(And, f, f),
            st.builds(Or, f, f),
            st.builds(Implies, f, f),
            st.builds(Eventually, intervals, f),
            st.builds(Globally, intervals, f),
            *([st.builds(Until, intervals, f, f)] if until else []),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def st_positions(max_len=10, min_len=2):
    """Daily positions with unranked (-1) days, as `traceset_from_positions`
    takes them."""
    day = st.one_of(
        st.just(-1.0),
        st.integers(1, 12).map(float),
        st.integers(2, 24).map(lambda v: v / 2),
    )
    return st.lists(day, min_size=min_len, max_size=max_len)


def st_position_rows(max_rows=5, max_len=10):
    """Records of one common length, as a dataset holds them."""
    return st.integers(2, max_len).flatmap(
        lambda n: st.lists(st_positions(n, n), min_size=1, max_size=max_rows)
    )
