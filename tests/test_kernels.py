"""Window and until kernels, on day arrays and on words, against
brute-force references."""

import numpy as np
import pytest

from stlrank.core import kernels


def window(i, a, b, n):
    """Days of the window of day i: i + a .. i + b inside the grid 0..n-1."""
    return range(max(i + a, 0), min(i + b, n - 1) + 1)


def brute_window_any(values, a, b):
    n = len(values)
    return np.array([any(values[j] for j in window(i, a, b, n)) for i in range(n)], dtype=bool)


def brute_window_all(values, a, b):
    n = len(values)
    return np.array([all(values[j] for j in window(i, a, b, n)) for i in range(n)], dtype=bool)


def brute_until(f1, f2, a, b, strict):
    n = len(f1)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        for j in window(i, a, b, n):
            hold_end = j if strict else j + 1
            if f2[j] and all(f1[k] for k in range(i, hold_end)):
                out[i] = True
                break
    return out


def stack(brute, rows, a, b):
    """A brute-force reference applied to each row of an (R, n) input."""
    return np.stack([brute(row, a, b) for row in rows])


def check_windows(values, rows, a, b):
    assert np.array_equal(kernels.window_any(values, a, b), brute_window_any(values, a, b))
    assert np.array_equal(kernels.window_all(values, a, b), brute_window_all(values, a, b))
    # (R, n): every row is queried with the same offsets.
    assert np.array_equal(kernels.window_any(rows, a, b), stack(brute_window_any, rows, a, b))
    assert np.array_equal(kernels.window_all(rows, a, b), stack(brute_window_all, rows, a, b))


def check_until(f1, f2, rows1, rows2, a, b, strict):
    got = kernels.until_scan(f1, f2, a, b, strict)
    assert np.array_equal(got, brute_until(f1, f2, a, b, strict))
    got = kernels.until_scan(rows1, rows2, a, b, strict)
    want = np.stack([brute_until(x, y, a, b, strict) for x, y in zip(rows1, rows2)])
    assert np.array_equal(got, want)


def random_offsets(rng, n):
    """Window offsets as `shift_bounds` gives them: a <= b + 1, both within
    one day past the grid, so that some windows run past an end."""
    a = int(rng.integers(-n - 1, n + 2))
    return a, int(rng.integers(max(a - 1, -n - 1), n + 2))


def test_window_kernels_match_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        a, b = random_offsets(rng, n)
        check_windows(rng.random(n) < 0.4, rng.random((3, n)) < 0.4, a, b)


@pytest.mark.parametrize("strict", [False, True])
def test_until_kernel_matches_brute_force(strict):
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        a, b = random_offsets(rng, n)
        f1, f2 = rng.random(n) < 0.6, rng.random(n) < 0.3
        rows1, rows2 = rng.random((3, n)) < 0.6, rng.random((3, n)) < 0.3
        check_until(f1, f2, rows1, rows2, a, b, strict)


def test_kernels_on_every_offset_pair():
    # Every window shift_bounds can give on short grids: a <= b + 1, each
    # from one day before the grid to one day after it.
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        values, rows = rng.random(n) < 0.5, rng.random((3, n)) < 0.5
        f1, f2 = rng.random(n) < 0.7, rng.random(n) < 0.4
        rows1, rows2 = rng.random((3, n)) < 0.7, rng.random((3, n)) < 0.4
        for a in range(-n - 1, n + 2):
            for b in range(a - 1, n + 2):
                check_windows(values, rows, a, b)
                for strict in (False, True):
                    check_until(f1, f2, rows1, rows2, a, b, strict)


def test_word_kernels_match_brute_force():
    # Offsets as shift_bounds gives them for the non-negative shifts of an
    # Interval, 0 <= a <= b + 1: every pair on grids up to 12 days, random
    # ones on grids that fill a word type or spill into the next.
    rng = np.random.default_rng(19)
    for n in (*range(1, 13), 16, 17, 32, 33, 63, 64):
        rows, rows1, rows2 = rng.random((3, 3, n)) < np.array([0.5, 0.7, 0.4])[:, None, None]
        words, words1, words2 = (kernels.pack_words(r) for r in (rows, rows1, rows2))
        assert words.dtype == kernels.word_type(n) and words.dtype.itemsize * 8 < 2 * max(n, 8)
        assert np.array_equal(kernels.unpack_words(words, n), rows)
        pairs = [(a, b) for a in range(n + 2) for b in range(a - 1, n + 2)]
        if n > 12:
            pairs = [pairs[i] for i in rng.choice(len(pairs), 25, replace=False)]
        for a, b in pairs:
            for kernel, brute in ((kernels.words_any, brute_window_any),
                                  (kernels.words_all, brute_window_all)):
                got = kernels.unpack_words(kernel(words, a, b, n), n)
                assert np.array_equal(got, stack(brute, rows, a, b)), (kernel, n, a, b)
            for strict in (False, True):
                got = kernels.unpack_words(kernels.words_until(words1, words2, a, b, strict, n), n)
                want = np.stack([brute_until(x, y, a, b, strict) for x, y in zip(rows1, rows2)])
                assert np.array_equal(got, want), (n, a, b, strict)


def test_empty_windows_use_quantifier_identity():
    values = np.array([True, True, True])
    # b < a, and a window that lies past the end of the grid.
    for a, b in [(1, 0), (3, 4), (-4, -4)]:
        assert list(kernels.window_any(values, a, b)) == [False, False, False]
        assert list(kernels.window_all(~values, a, b)) == [True, True, True]
        assert list(kernels.until_scan(values, values, a, b)) == [False, False, False]


def test_shift_bounds_on_integer_grids_matches_searchsorted():
    # Day grids 0..n-1 under fractional, negative and infinite shifts, and
    # shifts past both ends.
    shifts = [(0.0, 3.0), (0.5, 2.5), (0.5, 1.0), (2.5, 9.5), (7.0, float("inf")),
              (1.0, float("inf")), (-2.5, 1.0), (-float("inf"), float("inf")),
              (4.0, 4.0), (0.5, 0.5), (100.0, 200.0), (-5.0, -1.5), (-200.0, -100.0)]
    for n in range(1, 60):
        times = np.arange(n, dtype=np.int64)
        tf = times.astype(np.float64)
        for lo_shift, hi_shift in shifts:
            a, b = kernels.shift_bounds(times, lo_shift, hi_shift)
            assert type(a) is int and type(b) is int
            assert -n - 1 <= a <= b + 1 <= n + 2
            # The per-day inclusive index bounds the offsets stand for.
            lo = np.clip(times + a, 0, n)
            hi = np.clip(times + b, -1, n - 1)
            assert np.array_equal(lo, np.searchsorted(tf, tf + lo_shift, side="left"))
            assert np.array_equal(hi, np.searchsorted(tf, tf + hi_shift, side="right") - 1)


def test_kernels_on_a_long_grid():
    # One long grid, with windows running past both ends.
    rng = np.random.default_rng(33)
    n = 30_011
    values = rng.random(n) < 0.9
    rows = rng.random((2, n)) < 0.9
    for lo_shift, hi_shift in [(0.0, 5.0), (-3.0, 2.0), (-20.5, -10.0), (9.5, 21.0)]:
        a, b = kernels.shift_bounds(np.arange(n), lo_shift, hi_shift)
        check_windows(values, rows, a, b)
        # Strict on the windows that start after the day itself.
        check_until(values, ~values, rows, ~rows, a, b, strict=a > 0)
