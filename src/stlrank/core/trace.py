"""Traces: named signals sampled on days 0..n-1, and bundles of them."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class TraceError(ValueError):
    """A trace or trace set violates a structural invariant."""


def is_day(t, n: int) -> bool:
    """Whether t is one of the days 0..n-1; an integral float counts."""
    return 0 <= t < n and t == int(t)


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

    def __len__(self) -> int:
        return int(self.times.size)

    def has_time(self, t: int) -> bool:
        """Whether t is one of the days 0..n-1 of this trace."""
        return is_day(t, len(self))

    def value_at(self, t: int) -> float:
        """Value at day t. Raises TraceError if t is not sampled."""
        if not self.has_time(t):
            raise TraceError(f"channel {self.channel!r}: no sample at t={t}")
        return float(self.values[int(t)])

    def __repr__(self) -> str:
        return f"Trace({self.channel!r}, n={len(self)})"


class TraceSet:
    """A bundle of traces keyed by unique channel name.

    Channels may differ in length: the discrete derivative of a 14-day signal
    has 13 days. A formula is evaluated on the days every channel it
    mentions carries, days 0..n-1 of the shortest of them.
    """

    __slots__ = ("_traces",)

    def __init__(self, traces: Iterable[Trace]) -> None:
        store: dict[str, Trace] = {}
        for tr in traces:
            if not isinstance(tr, Trace):
                raise TraceError(f"not a Trace: {tr!r}")
            if tr.channel in store:
                raise TraceError(f"duplicate channel {tr.channel!r}")
            store[tr.channel] = tr
        if not store:
            raise TraceError("trace set needs at least one trace")
        self._traces = store

    @property
    def channels(self) -> tuple[str, ...]:
        return tuple(self._traces)

    def __contains__(self, channel: str) -> bool:
        return channel in self._traces

    def __getitem__(self, channel: str) -> Trace:
        try:
            return self._traces[channel]
        except KeyError:
            raise TraceError(f"unknown channel {channel!r}") from None

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces.values())

    def __len__(self) -> int:
        return len(self._traces)
