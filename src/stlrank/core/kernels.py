"""Array kernels behind the linear-time evaluator.

Each kernel answers one window query for every position of a boolean array
in a single vectorized pass, along the last axis of one trace (n,) or of
many traces on one grid (R, n). The grid is days 0..n-1, so position i is
day i. Windows arrive as inclusive index bounds lo[i]..hi[i], shared by all
rows, that are non-decreasing in i, because they come from sliding a fixed
real interval along the days.
Empty windows (hi < lo, or lo past the end) produce the quantifier
identity: False for "any", True for "all".

The window queries read a running count off one prefix sum, the boolean
degenerate of a sliding min/max filter (Lemire, arXiv cs/0610046), in O(n).
The until scan combines run lengths of the left operand with next-witness
indices of the right one (reverse running minima), O(n). Window bounds are
index offsets, O(n).

The evaluator calls every kernel as an attribute of this module
(`kernels.window_any(...)`), so a profiler can wrap them here.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "window_any",
    "window_all",
    "until_scan",
    "shift_bounds",
    "active_backend",
]


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# Window queries run over blocks of this many positions with reused buffers,
# and the prefix sum is int32 where it fits: with fresh int64 temporaries of
# a few hundred kilobytes per call, evaluating a formula over 1e5 days cost
# 15-25x as much as over 1e4 (tests/test_acceptance.py::test_linear_scaling).
_BLOCK = 8192


def _any_in_windows(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    n = vals.shape[-1]
    rows = vals.shape[:-1]
    csum = np.zeros(rows + (n + 1,), dtype=np.int32 if n < 2**31 else np.int64)
    np.cumsum(vals, axis=-1, out=csum[..., 1:])
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    m = lo.shape[0]
    out = np.empty(rows + (m,), dtype=np.bool_)
    k = min(m, _BLOCK)
    b = np.empty(k, dtype=np.int64)
    ca, cb = np.empty(rows + (k,), dtype=csum.dtype), np.empty(rows + (k,), dtype=csum.dtype)
    for s in range(0, m, _BLOCK):
        e = min(s + _BLOCK, m)
        w = e - s
        np.add(hi[s:e], 1, out=b[:w])
        # mode="clip" reads indices past either end as 0 or n, which keeps
        # the part of a window inside the array; as csum never decreases, a
        # window with hi < lo counts nothing.
        np.take(csum, lo[s:e], axis=-1, out=ca[..., :w], mode="clip")
        np.take(csum, b[:w], axis=-1, out=cb[..., :w], mode="clip")
        np.greater(cb[..., :w], ca[..., :w], out=out[..., s:e])
    return out


def window_any(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """out[i] = any(vals[lo[i] .. hi[i]]); empty windows give False."""
    return _any_in_windows(np.asarray(vals, dtype=np.bool_), lo, hi)


def window_all(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """out[i] = all(vals[lo[i] .. hi[i]]); empty windows give True."""
    return ~_any_in_windows(~np.asarray(vals, dtype=np.bool_), lo, hi)


def _next_index_at_or_after(mask: np.ndarray) -> np.ndarray:
    """nxt[..., i] = smallest j >= i with mask[..., j], else n; the last
    axis of nxt has n + 1 entries."""
    n = mask.shape[-1]
    nxt = np.full(mask.shape[:-1] + (n + 1,), n, dtype=np.int64)
    np.copyto(nxt[..., :n], np.arange(n), where=mask)
    return np.minimum.accumulate(nxt[..., ::-1], axis=-1)[..., ::-1]


def until_scan(
    f1: np.ndarray, f2: np.ndarray, lo: np.ndarray, hi: np.ndarray, strict: bool = False
) -> np.ndarray:
    """out[i] = exists j in [lo[i], hi[i]] with f2[j] and f1 on i..j.

    With strict=True the f1 obligation stops just before j (f1 on i..j-1).
    """
    f1 = np.asarray(f1, dtype=np.bool_)
    n = f1.shape[-1]
    # reach[i]: last index of the f1-run starting at i (i - 1 when !f1[i]).
    reach = _next_index_at_or_after(~f1)[..., :n] - 1
    nxt2 = _next_index_at_or_after(np.asarray(f2, dtype=np.bool_))
    if strict:
        reach += 1
    # np.maximum/np.minimum in place: np.clip costs microseconds per call on
    # short arrays, and a fresh array on long ones.
    b = np.maximum(np.asarray(hi, dtype=np.int64), -1)
    np.minimum(b, n - 1, out=b)
    np.minimum(reach, b, out=reach)
    a = np.maximum(np.asarray(lo, dtype=np.int64), 0)
    np.minimum(a, n, out=a)
    return (a <= reach) & (np.take(nxt2, a, axis=-1) <= reach)


def shift_bounds(times: np.ndarray, lo_shift: float, hi_shift: float):
    """Inclusive index bounds of the window [t + lo_shift, t + hi_shift]
    around every day t of `times`, the grid 0..n-1; bounds past the ends
    mark empty windows. O(n).
    """
    n = len(times)
    # Days < k + lo_shift number k + ceil(lo_shift) and days <= k + hi_shift
    # number k + floor(hi_shift) + 1, clipped to 0..n.
    k = np.arange(n, dtype=np.int64)
    lo = k + math.ceil(_clamp(float(lo_shift), n))
    np.maximum(lo, 0, out=lo)
    np.minimum(lo, n, out=lo)
    hi = k + math.floor(_clamp(float(hi_shift), n))
    np.maximum(hi, -1, out=hi)
    np.minimum(hi, n - 1, out=hi)
    return lo, hi


def _clamp(shift: float, n: int) -> float:
    """A shift past the whole grid acts like one just past it; this keeps
    infinite shifts out of integer arithmetic."""
    return min(max(shift, -n - 1.0), n + 1.0)
