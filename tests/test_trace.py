import pytest

from stlrank import Trace, TraceError, TraceSet


def test_trace_basic_accessors():
    t = Trace("x", [0, 1, 2], [5.0, 4.0, 3.0])
    assert len(t) == 3
    assert t.channel == "x"
    assert t.has_time(1) and t.has_time(1.0)
    assert not any(t.has_time(d) for d in (-1, 3, 0.5))
    assert t.value_at(2) == 3.0
    for d in (-1, 3, 0.5):
        with pytest.raises(TraceError):
            t.value_at(d)


def test_trace_rejects_bad_shapes():
    with pytest.raises(TraceError):
        Trace("x", [], [])
    with pytest.raises(TraceError):
        Trace("x", [0, 1], [1.0])
    with pytest.raises(TraceError):
        Trace("", [0], [1.0])


def test_trace_rejects_bad_times():
    # Negative, repeated, decreasing, strided, offset, non-integer, too many
    # and 2-d stamps: only the days 0..n-1 are a grid.
    for times in ([-1, 0], [0, 0], [2, 1], [0, 2], [1, 2], [0, 0.5], [0, 1, 2], [[0, 1]]):
        with pytest.raises(TraceError, match=r"times must be the days 0\.\.1$"):
            Trace("x", times, [1.0, 2.0])
    assert list(Trace("x", [0.0, 1.0], [1.0, 2.0]).times) == [0, 1]


def test_trace_rejects_nonfinite_values():
    with pytest.raises(TraceError):
        Trace("x", [0, 1], [1.0, float("nan")])
    with pytest.raises(TraceError):
        Trace("x", [0], [float("inf")])


def test_trace_arrays_are_readonly():
    t = Trace("x", [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError):
        t.values[0] = 9.0


def test_traceset_lookup_and_membership():
    w = TraceSet([Trace("x", [0, 1], [1.0, 2.0]), Trace("y", [0], [0.0])])
    assert set(w.channels) == {"x", "y"}
    assert "x" in w and "z" not in w
    assert w["y"].value_at(0) == 0.0
    with pytest.raises(TraceError):
        w["z"]


def test_traceset_rejects_duplicate_channels():
    with pytest.raises(TraceError):
        TraceSet([Trace("x", [0], [1.0]), Trace("x", [0], [2.0])])

