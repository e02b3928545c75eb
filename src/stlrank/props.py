"""The ranking-behaviour property library.

Nine named properties over a daily ranking-position channel `x` (smaller is
better, -1 marks a missing day) and its one-day difference channel `d1(x)`.
`_SHAPES` gives each one as formula text in the surface syntax of
`stlrank.parser`, with its parameters as `{field}` placeholders, and their
defaults; `build` fills them in and parses the result.

cold_start reads "only gains positions early on" because a position gain is
a decrease of the position number; ditch is a one-day loss of more than d
positions followed within w days by a comparable rebound, and spike is its
mirror image (ditch on the sign-flipped difference signal).

Window parameters w for flat/cold/warm start and the two miss properties
must be non-negative integers (days); d, s, r, epsilon and the steady_state,
ditch, and spike windows are reals. Every window must be positive, since a
temporal interval [0, 0] is rejected as singular.

reach compares x to the target rank r with an equality tolerance of 0.5 by
default (the position channel is real valued), which the eq_tolerance
parameter, a finite non-negative real, overrides. The miss tests compare to
the exact -1 sentinel with the standard 1e-9 tolerance, whatever
eq_tolerance says.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

from .core.formula import Formula
from .parser import _fmt_num, parse_formula, print_formula

__all__ = [
    "PROPERTY_NAMES",
    "PropertyError",
    "PropertyParams",
    "PropertySpec",
    "build",
    "default_library",
    "describe",
]

MISS_TOLERANCE = 1e-9
REACH_TOLERANCE = 0.5

_SHAPES: Mapping[str, tuple[str, Mapping[str, float]]] = {
    "flat_start": ("G[0,{w}](abs(d1(x)) < {epsilon})", {"w": 3, "epsilon": 1.0}),
    "cold_start": ("G[0,{w}](d1(x) <= 0) & F[0,{w}](d1(x) < 0)", {"w": 3}),
    "warm_start": ("G[0,{w}](d1(x) >= 0) & F[0,{w}](d1(x) > 0)", {"w": 3}),
    "steady_state": ("F[0,{w}](G(abs(d1(x)) < {epsilon}))", {"w": 3, "epsilon": 1.0}),
    "reach": ("G(x < {s} -> F(x == {r}))", {"s": 10.0, "r": 1.0}),
    "ditch": ("F(d1(x) > {d} & F[0,{w}](d1(x) < -{d}))", {"d": 10.0, "w": 2}),
    "spike": ("F(d1(x) < -{d} & F[0,{w}](d1(x) > {d}))", {"d": 10.0, "w": 2}),
    "no_init_miss": ("!(G[0,{w}](x == -1))", {"w": 3}),
    "no_long_miss": ("G(x == -1 -> F[0,{w}](!(x == -1)))", {"w": 3}),
}

PROPERTY_NAMES = tuple(_SHAPES)

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
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf
    except (TypeError, ValueError):
        raise PropertyError(f"{name}: parameter {fld!r} must be a real number, got {value!r}") from None
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


def _build_formula(name: str, params: PropertyParams) -> Formula:
    """Check the fields of `name`'s shape in the order they appear, then
    parse the shape with their values written in."""
    shape = _SHAPES[name][0]
    fields = dict.fromkeys(re.findall(r"\{(\w+)\}", shape))
    values = {
        fld: _fmt_num(_window(name, params) if fld == "w" else _require(name, params, fld))
        for fld in fields
    }
    tol = MISS_TOLERANCE
    if name == "reach":
        tol = REACH_TOLERANCE
        if params.eq_tolerance is not None:
            tol = _require(name, params, "eq_tolerance")
            if tol < 0:
                raise PropertyError(f"{name}: parameter 'eq_tolerance' must be non-negative, got {tol}")
    return parse_formula(shape.format(**values), eq_tolerance=tol)


def build(name: str, **overrides) -> PropertySpec:
    """Build a property from its defaults plus keyword overrides (w=...,
    epsilon=..., d=..., s=..., r=..., eq_tolerance=...). Unknown names or
    invalid parameter values raise PropertyError naming the field.
    """
    if name not in _SHAPES:
        raise PropertyError(f"unknown property {name!r}; expected one of {PROPERTY_NAMES}")
    for key in overrides:
        if key not in PropertyParams.__dataclass_fields__:
            raise PropertyError(f"{name}: unknown parameter {key!r}")
    params = PropertyParams(**{**_SHAPES[name][1], **overrides})
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
    return print_formula(spec.formula)
