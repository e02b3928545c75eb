"""Window and until kernels against brute-force references."""

import numpy as np
import pytest

from stlrank.core import kernels


def brute_window_any(values, lo, hi):
    n = len(values)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        a, b = lo[i], hi[i]
        out[i] = any(values[j] for j in range(max(a, 0), min(b, n - 1) + 1))
    return out


def brute_window_all(values, lo, hi):
    n = len(values)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        a, b = lo[i], hi[i]
        out[i] = all(values[j] for j in range(max(a, 0), min(b, n - 1) + 1))
    return out


def brute_until(f1, f2, lo, hi, strict):
    n = len(f1)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        for j in range(max(lo[i], 0), min(hi[i], n - 1) + 1):
            hold_end = j if strict else j + 1
            if f2[j] and all(f1[k] for k in range(i, hold_end)):
                out[i] = True
                break
    return out


def stack(brute, rows, lo, hi):
    """A brute-force reference applied to each row of an (R, n) input."""
    return np.stack([brute(row, lo, hi) for row in rows])


def random_bounds(rng, n):
    """Non-decreasing inclusive index windows, as the evaluator produces
    them, with some empty (width -1) and some clipped past the end."""
    width = rng.integers(-1, 5, size=n)
    lo = np.arange(n, dtype=np.int64) + int(rng.integers(0, 3))
    hi = np.maximum.accumulate(lo + width)
    if rng.random() < 0.3:
        hi = np.minimum(hi, n - 1)
    return lo, hi.astype(np.int64)


def test_window_kernels_match_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        values = rng.random(n) < 0.4
        lo, hi = random_bounds(rng, n)
        assert np.array_equal(kernels.window_any(values, lo, hi), brute_window_any(values, lo, hi))
        assert np.array_equal(kernels.window_all(values, lo, hi), brute_window_all(values, lo, hi))
        # (R, n): every row is queried with the same bounds.
        rows = rng.random((3, n)) < 0.4
        assert np.array_equal(kernels.window_any(rows, lo, hi), stack(brute_window_any, rows, lo, hi))
        assert np.array_equal(kernels.window_all(rows, lo, hi), stack(brute_window_all, rows, lo, hi))


@pytest.mark.parametrize("strict", [False, True])
def test_until_kernel_matches_brute_force(strict):
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        f1 = rng.random(n) < 0.6
        f2 = rng.random(n) < 0.3
        lo, hi = random_bounds(rng, n)
        got = kernels.until_scan(f1, f2, lo, hi, strict)
        want = brute_until(f1, f2, lo, hi, strict)
        assert np.array_equal(got, want)
        rows1 = rng.random((3, n)) < 0.6
        rows2 = rng.random((3, n)) < 0.3
        got = kernels.until_scan(rows1, rows2, lo, hi, strict)
        want = np.stack([brute_until(a, b, lo, hi, strict) for a, b in zip(rows1, rows2)])
        assert np.array_equal(got, want)


def test_empty_windows_use_quantifier_identity():
    values = np.array([True, True, True])
    lo = np.array([2, 3, 4], dtype=np.int64)  # all past the end from index 1 on
    hi = np.array([1, 2, 5], dtype=np.int64)  # lo[0] > hi[0]: empty window
    assert list(kernels.window_any(values, lo, hi)) == [False, False, False]
    # window_all over an empty window is vacuously true
    out = kernels.window_all(np.array([False, False, False]), lo, hi)
    assert out[0]


def test_shift_bounds_on_integer_grids_matches_searchsorted():
    # Day grids 0..n-1 under fractional, negative and infinite shifts, and
    # shifts past both ends.
    shifts = [(0.0, 3.0), (0.5, 2.5), (0.5, 1.0), (2.5, 9.5), (7.0, float("inf")),
              (1.0, float("inf")), (-2.5, 1.0), (-float("inf"), float("inf")),
              (4.0, 4.0), (0.5, 0.5), (100.0, 200.0), (-5.0, -1.5), (-200.0, -100.0)]
    for n in range(1, 60):
        times = np.arange(n, dtype=np.int64)
        for lo_shift, hi_shift in shifts:
            lo, hi = kernels.shift_bounds(times, lo_shift, hi_shift)
            tf = times.astype(np.float64)
            assert np.array_equal(lo, np.searchsorted(tf, tf + lo_shift, side="left"))
            assert np.array_equal(hi, np.searchsorted(tf, tf + hi_shift, side="right") - 1)
            assert lo.dtype == np.int64 and hi.dtype == np.int64


def test_window_kernels_across_blocks():
    # Long enough for the window queries to run over several blocks, with
    # windows running past both ends.
    rng = np.random.default_rng(33)
    n = 3 * kernels._BLOCK + 17
    values = rng.random(n) < 0.9
    rows = rng.random((2, n)) < 0.9
    for lo_shift, hi_shift in [(0.0, 5.0), (-3.0, 2.0), (-20.5, -10.0)]:
        lo, hi = kernels.shift_bounds(np.arange(n, dtype=np.int64), lo_shift, hi_shift)
        assert np.array_equal(kernels.window_any(values, lo, hi), brute_window_any(values, lo, hi))
        assert np.array_equal(kernels.window_all(values, lo, hi), brute_window_all(values, lo, hi))
        assert np.array_equal(kernels.window_any(rows, lo, hi), stack(brute_window_any, rows, lo, hi))
        assert np.array_equal(kernels.window_all(rows, lo, hi), stack(brute_window_all, rows, lo, hi))
