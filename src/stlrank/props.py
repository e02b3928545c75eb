"""The ranking-behaviour property library.

Nine named properties over a daily ranking-position channel `x` (smaller is
better, -1 marks a missing day) and its one-day difference channel `d1(x)`:

    flat_start(w, epsilon)   G[0,w](|d1(x)| < epsilon)
    cold_start(w)            G[0,w](d1(x) <= 0) & F[0,w](d1(x) < 0)
    warm_start(w)            G[0,w](d1(x) >= 0) & F[0,w](d1(x) > 0)
    steady_state(w, epsilon) F[0,w] G(|d1(x)| < epsilon)
    reach(s, r)              G((x < s) -> F(x = r))
    ditch(d, w)              F((d1(x) > d) & F[0,w](d1(x) < -d))
    spike(d, w)              F((d1(x) < -d) & F[0,w](d1(x) > d))
    no_init_miss(w)          !(G[0,w] x = -1)
    no_long_miss(w)          G((x = -1) -> F[0,w] !(x = -1))

cold_start reads "only gains positions early on" because a position gain is
a decrease of the position number; ditch is a one-day loss of more than d
positions followed within w days by a comparable rebound, and spike is its
mirror image (ditch on the sign-flipped difference signal).

Window parameters w for flat/cold/warm start and the two miss properties
must be non-negative integers (days); d, s, r, epsilon and the steady_state,
ditch, and spike windows are reals. Every window must be positive, since a
temporal interval [0, 0] is rejected as singular.

reach compares x to the target rank r with an equality tolerance of 0.5 by
default (the position channel is real valued); the miss tests compare to the
exact -1 sentinel with the standard 1e-9 tolerance. Both can be overridden
with the eq_tolerance parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .core.formula import (
    Abs,
    And,
    Atom,
    Const,
    Eventually,
    Formula,
    Globally,
    Implies,
    Interval,
    Not,
    Predicate,
    Var,
)

__all__ = [
    "PROPERTY_NAMES",
    "PropertyError",
    "PropertyParams",
    "PropertySpec",
    "build",
    "default_library",
    "describe",
]

X = Var("x")
DX = Var("d1(x)")

MISS_TOLERANCE = 1e-9
REACH_TOLERANCE = 0.5

PROPERTY_NAMES = (
    "flat_start",
    "cold_start",
    "warm_start",
    "steady_state",
    "reach",
    "ditch",
    "spike",
    "no_init_miss",
    "no_long_miss",
)

_DEFAULTS: Mapping[str, dict] = {
    "flat_start": {"w": 3, "epsilon": 1.0},
    "cold_start": {"w": 3},
    "warm_start": {"w": 3},
    "steady_state": {"w": 3, "epsilon": 1.0},
    "reach": {"s": 10.0, "r": 1.0},
    "ditch": {"d": 10.0, "w": 2},
    "spike": {"d": 10.0, "w": 2},
    "no_init_miss": {"w": 3},
    "no_long_miss": {"w": 3},
}

_INTEGER_W = {"flat_start", "cold_start", "warm_start", "no_init_miss", "no_long_miss"}


class PropertyError(ValueError):
    """A property name or parameter is missing or invalid."""


@dataclass(frozen=True)
class PropertyParams:
    """Parameter bag; properties read only the fields they use."""

    w: float | None = None
    epsilon: float | None = None
    d: float | None = None
    s: float | None = None
    r: float | None = None
    eq_tolerance: float | None = None


@dataclass(frozen=True)
class PropertySpec:
    """A named property instance: its parameters and the built formula."""

    name: str
    params: PropertyParams
    formula: Formula


def _require(name: str, params: PropertyParams, fld: str) -> float:
    value = getattr(params, fld)
    if value is None:
        raise PropertyError(f"{name}: missing parameter {fld!r}")
    value = float(value)
    if not math.isfinite(value):
        raise PropertyError(f"{name}: parameter {fld!r} must be finite")
    return value


def _window(name: str, params: PropertyParams) -> float:
    w = _require(name, params, "w")
    if w <= 0:
        raise PropertyError(f"{name}: parameter 'w' must be positive, got {w}")
    if name in _INTEGER_W and w != int(w):
        raise PropertyError(f"{name}: parameter 'w' must be an integer day count")
    return w


def _miss() -> Formula:
    return Atom(Predicate(X, "==", Const(-1.0), MISS_TOLERANCE))


def _build_formula(name: str, params: PropertyParams) -> Formula:
    if name == "flat_start":
        w = _window(name, params)
        eps = _require(name, params, "epsilon")
        return Globally(Interval(0, w), Atom(Predicate(Abs(DX), "<", Const(eps))))
    if name == "cold_start":
        w = _window(name, params)
        win = Interval(0, w)
        return And(
            Globally(win, Atom(Predicate(DX, "<=", Const(0.0)))),
            Eventually(win, Atom(Predicate(DX, "<", Const(0.0)))),
        )
    if name == "warm_start":
        w = _window(name, params)
        win = Interval(0, w)
        return And(
            Globally(win, Atom(Predicate(DX, ">=", Const(0.0)))),
            Eventually(win, Atom(Predicate(DX, ">", Const(0.0)))),
        )
    if name == "steady_state":
        w = _window(name, params)
        eps = _require(name, params, "epsilon")
        inner = Globally(Interval(0, math.inf), Atom(Predicate(Abs(DX), "<", Const(eps))))
        return Eventually(Interval(0, w), inner)
    if name == "reach":
        s = _require(name, params, "s")
        r = _require(name, params, "r")
        tol = REACH_TOLERANCE if params.eq_tolerance is None else float(params.eq_tolerance)
        target = Atom(Predicate(X, "==", Const(r), tol))
        return Globally(
            Interval(0, math.inf),
            Implies(
                Atom(Predicate(X, "<", Const(s))),
                Eventually(Interval(0, math.inf), target),
            ),
        )
    if name == "ditch":
        d = _require(name, params, "d")
        w = _window(name, params)
        return Eventually(
            Interval(0, math.inf),
            And(
                Atom(Predicate(DX, ">", Const(d))),
                Eventually(Interval(0, w), Atom(Predicate(DX, "<", Const(-d)))),
            ),
        )
    if name == "spike":
        d = _require(name, params, "d")
        w = _window(name, params)
        return Eventually(
            Interval(0, math.inf),
            And(
                Atom(Predicate(DX, "<", Const(-d))),
                Eventually(Interval(0, w), Atom(Predicate(DX, ">", Const(d)))),
            ),
        )
    if name == "no_init_miss":
        w = _window(name, params)
        return Not(Globally(Interval(0, w), _miss()))
    if name == "no_long_miss":
        w = _window(name, params)
        return Globally(
            Interval(0, math.inf),
            Implies(_miss(), Eventually(Interval(0, w), Not(_miss()))),
        )
    raise PropertyError(f"unknown property {name!r}; expected one of {PROPERTY_NAMES}")


def build(name: str, **overrides) -> PropertySpec:
    """Build a property from its defaults plus keyword overrides (w=...,
    epsilon=..., d=..., s=..., r=..., eq_tolerance=...). Unknown names or
    invalid parameter values raise PropertyError naming the field.
    """
    if name not in _DEFAULTS:
        raise PropertyError(f"unknown property {name!r}; expected one of {PROPERTY_NAMES}")
    for key in overrides:
        if key not in PropertyParams.__dataclass_fields__:
            raise PropertyError(f"{name}: unknown parameter {key!r}")
    params = PropertyParams(**{**_DEFAULTS[name], **overrides})
    return PropertySpec(name=name, params=params, formula=_build_formula(name, params))


def default_library(**overrides) -> list[PropertySpec]:
    """All nine properties at their documented default parameters.

    Keyword overrides are merged into every property's parameter bag; each
    property still reads only the fields it uses, so overriding w also
    changes the jump-rebound windows while epsilon only touches the
    flatness checks.
    """
    return [build(name, **overrides) for name in PROPERTY_NAMES]


def describe(spec: PropertySpec) -> str:
    """Canonical text of the property's formula, parseable by the parser."""
    from .parser import print_formula

    return print_formula(spec.formula)
