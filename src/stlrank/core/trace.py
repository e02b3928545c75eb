"""Traces: named signals sampled on days 0..n-1, and bundles of them.

The evaluators take channel maps (see `semantics`); a `TraceSet` is one.
These types remain only because `perfbench/workloads.py` builds them, and
they go when the benchmark builds channel maps (ROADMAP: "One input type").
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class TraceError(ValueError):
    """A trace or trace set violates a structural invariant."""


class Trace:
    """A finite real-valued signal with one sample on each of days 0..n-1.

    `times` must be exactly 0, 1, ..., n-1. Values must be finite; the
    missing-data sentinel -1.0 is legal and is treated as an ordinary number
    by the evaluators. Instances are immutable: the backing arrays are
    marked read-only.
    """

    __slots__ = ("channel", "times", "values")

    def __init__(self, channel: str, times, values) -> None:
        if not isinstance(channel, str) or not channel:
            raise TraceError("channel name must be a non-empty string")
        v = np.array(values, dtype=np.float64, copy=True)
        if v.ndim != 1:
            raise TraceError(f"channel {channel!r}: values must be 1-d")
        if v.size == 0:
            raise TraceError(f"channel {channel!r}: needs at least one sample")
        days = np.arange(v.size, dtype=np.int64)
        if not bool(np.array_equal(times, days)):
            raise TraceError(f"channel {channel!r}: times must be the days 0..{v.size - 1}")
        if not bool(np.all(np.isfinite(v))):
            raise TraceError(f"channel {channel!r}: values must be finite")
        days.setflags(write=False)
        v.setflags(write=False)
        self.channel = channel
        self.times = days
        self.values = v

    def __repr__(self) -> str:
        return f"Trace({self.channel!r}, n={self.values.size})"


class TraceSet(dict):
    """The channel map of traces with unique channel names: each channel
    name maps to its trace's read-only values.

    Channels may differ in length: the discrete derivative of a 14-day signal
    has 13 days. A formula is evaluated on the days every channel it
    mentions carries, days 0..n-1 of the shortest of them.
    """

    __slots__ = ()

    def __init__(self, traces: Iterable[Trace]) -> None:
        super().__init__()
        for tr in traces:
            if not isinstance(tr, Trace):
                raise TraceError(f"not a Trace: {tr!r}")
            if tr.channel in self:
                raise TraceError(f"duplicate channel {tr.channel!r}")
            self[tr.channel] = tr.values
        if not self:
            raise TraceError("trace set needs at least one trace")
