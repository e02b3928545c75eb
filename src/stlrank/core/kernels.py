"""Array kernels behind the linear-time evaluator, in two forms.

Day arrays
----------
Each kernel answers one window query for every day of a boolean array in a
single vectorized pass, along the last axis of one trace (n,) or of many
traces on one grid (R, n), the days 0..n-1. A window is two day offsets
a <= b + 1, shared by all days and rows: the window of day k holds the days
k + a .. k + b of the grid, and one with none of them gives the quantifier
identity, False for "any" and True for "all".

A per-day array over days 0..n is padded with its end values on both sides,
so that its entries at days k + a and at days k + b + 1 are two slices. The
window queries read a running count off a prefix sum so padded, the
boolean degenerate of a sliding min/max filter (Lemire, arXiv cs/0610046).
The until scan reads next-witness indices of its right operand (reverse
running minima) so padded against the run ends of its left one (Donze,
Ferrere & Maler, CAV 2013). Every kernel is O(n).

Words
-----
A grid of n <= 64 days also fits in one unsigned machine word per trace,
bit k for day k, in the smallest of uint8/16/32/64 that holds n bits
(`word_type`); bits n and up stay 0. `pack_words` shift-ORs the columns of a
day array into words and `unpack_words` reads them back. The word kernels
take the same windows with 0 <= a, so a window query is a few whole-word
shifts, ANDs and ORs (the bit-parallel shift-or of Baeza-Yates & Gonnet,
CACM 1992):

* `words_any` ORs shifted copies of the word, doubling the span they cover,
  O(log(b - a + 1)) word operations; `words_all` is its complement on the
  complement, within the n-bit mask.
* `words_until` makes one pass over the offsets s = 0..min(b, n - 1), with a
  running AND of the left operand shifted by each, O(min(b, n)).

Every shift stays below n, so below the word's width, where numpy's shifts
are defined.

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


def _padded(shape: tuple, a: int, b: int, fill: int):
    """(p, left): a per-day array over days -left .. n + right, all `fill`,
    that holds days k + a and k + b + 1 for every day k < n; int32 where day
    indices fit, for half the memory traffic of int64."""
    n, left, right = shape[-1], max(0, -a), max(0, b)
    p = np.full(shape[:-1] + (left + n + 1 + right,), fill, np.int32 if n < 2**31 else np.int64)
    return p, left


def _window_ends(p: np.ndarray, left: int, a: int, b: int, n: int):
    """Views of `_padded`'s `p` at days k + a and k + b + 1 for days k < n."""
    return p[..., left + a : left + a + n], p[..., left + b + 1 : left + b + 1 + n]


def _any_in_windows(vals: np.ndarray, a: int, b: int) -> np.ndarray:
    n = vals.shape[-1]
    # csum[..., left + j] counts the True days before day j.
    csum, left = _padded(vals.shape, a, b, 0)
    np.cumsum(vals, axis=-1, out=csum[..., left + 1 : left + n + 1])
    csum[..., left + n + 1 :] = csum[..., left + n, None]
    start, stop = _window_ends(csum, left, a, b, n)
    return stop > start


def window_any(vals: np.ndarray, a: int, b: int) -> np.ndarray:
    """out[k] = any(vals[k + a .. k + b]); empty windows give False."""
    return _any_in_windows(np.asarray(vals, dtype=np.bool_), a, b)


def window_all(vals: np.ndarray, a: int, b: int) -> np.ndarray:
    """out[k] = all(vals[k + a .. k + b]); empty windows give True."""
    return ~_any_in_windows(~np.asarray(vals, dtype=np.bool_), a, b)


def _next_index_at_or_after(mask: np.ndarray, a: int = 0, b: int = 0):
    """(nxt, left): nxt[..., left + j] = smallest i >= j with mask[..., i],
    else n, padded as `_padded` for the window (a, b)."""
    n = mask.shape[-1]
    nxt, left = _padded(mask.shape, a, b, n)
    # Day i where mask holds, n elsewhere, and then the running minimum
    # from the right, in place: on long grids a masked copy or a fresh
    # result array costs several times as much as the scan itself.
    days = nxt[..., left : left + n]
    np.multiply(mask, np.arange(-n, 0, dtype=nxt.dtype), out=days)
    days += n
    from_right = nxt[..., ::-1]
    np.minimum.accumulate(from_right, axis=-1, out=from_right)
    return nxt, left


def until_scan(f1: np.ndarray, f2: np.ndarray, a: int, b: int, strict: bool = False) -> np.ndarray:
    """out[k] = exists j in k + a .. k + b with f2[j] and f1 on k..j.

    With strict=True the f1 obligation stops just before j (f1 on k..j-1).
    """
    f1 = np.asarray(f1, dtype=np.bool_)
    n = f1.shape[-1]
    # fail[k]: first day from k on where f1 fails, n if none.
    fail = _next_index_at_or_after(~f1)[0][..., :n]
    nxt2, left = _next_index_at_or_after(np.asarray(f2, dtype=np.bool_), a, b)
    # first[k], the first f2 day from k + a on, is in the window iff it
    # comes before the first f2 day from k + b + 1 on; if any f2 day of the
    # window meets the f1 obligation, first[k] does.
    first, after = _window_ends(nxt2, left, a, b, n)
    return (first < after) & ((first <= fail) if strict else (first < fail))


def shift_bounds(times: np.ndarray, lo_shift: float, hi_shift: float) -> tuple[int, int]:
    """Day offsets (a, b) of the window [t + lo_shift, t + hi_shift] on
    `times`, the grid 0..n-1: the window of day k is days k + a .. k + b.
    O(1).
    """
    n = len(times)
    # A shift past the whole grid acts like one just past it, which keeps
    # infinite shifts out of integer arithmetic. Days >= k + lo start at
    # k + ceil(lo), and days <= k + hi end at k + floor(hi).
    lo, hi = (min(max(float(s), -n - 1.0), n + 1.0) for s in (lo_shift, hi_shift))
    return math.ceil(lo), math.floor(hi)


# ---------------------------------------------------------------------------
# Words.
# ---------------------------------------------------------------------------

_WORD_TYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))


def word_type(n: int) -> np.dtype:
    """The smallest unsigned integer type with n bits, for 1 <= n <= 64."""
    return next(t for t in _WORD_TYPES if t.itemsize * 8 >= n)


def word_mask(n: int):
    """The n low bits, as a `word_type(n)` scalar; Python ints do not
    overflow at n = 64."""
    return word_type(n).type((1 << n) - 1)


def pack_words(days: np.ndarray) -> np.ndarray:
    """Boolean days (..., n), n <= 64, as words (...): bit k is day k."""
    n = days.shape[-1]
    wt = word_type(n)
    out = np.zeros(days.shape[:-1], wt)
    for k in range(n):
        out |= days[..., k].astype(wt) << k
    return out


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """Boolean days (..., n) of words (...): the inverse of `pack_words`."""
    words = np.asarray(words)
    return ((words[..., None] >> np.arange(n, dtype=words.dtype)) & 1).astype(np.bool_)


def words_any(v: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Bit k of the result is any(v bits k + a .. k + b), days past n - 1
    being False; 0 <= a."""
    b = min(b, n - 1)
    if a > b:
        return np.zeros_like(v)
    # Bit j of `out` is any(v bits j .. j + covered - 1).
    out, covered, span = v, 1, b - a + 1
    while covered < span:
        step = min(covered, span - covered)
        out = out | (out >> step)
        covered += step
    return out >> a


def words_all(v: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """Bit k of the result is all(v bits k + a .. k + b) on the n days;
    0 <= a."""
    mask = word_mask(n)
    return words_any(v ^ mask, a, b, n) ^ mask


def words_until(f1: np.ndarray, f2: np.ndarray, a: int, b: int, strict: bool, n: int) -> np.ndarray:
    """Words of `until_scan`: bit k holds iff some j in k + a .. k + b has
    f2 bit j and f1 bits k..j (k..j-1 if strict); 0 <= a."""
    out = np.zeros_like(f2)
    # Bit k of `before` is f1 on days k .. k + s - 1.
    before = np.full_like(f1, word_mask(n))
    for s in range(min(b, n - 1) + 1):
        upto = before & (f1 >> s)
        if s >= a:
            out |= (f2 >> s) & (before if strict else upto)
        before = upto
    return out
