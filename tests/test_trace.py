import pytest

from stlrank import Trace, TraceError, TraceSet


def test_trace_basic_accessors():
    t = Trace("x", [0, 1, 2], [5.0, 4.0, 3.0])
    assert t.channel == "x"
    assert t.times.tolist() == [0, 1, 2] and t.values.tolist() == [5.0, 4.0, 3.0]
    assert repr(t) == "Trace('x', n=3)"


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
    """A trace set is the channel map of its traces."""
    x, y = Trace("x", [0, 1], [1.0, 2.0]), Trace("y", [0], [0.0])
    w = TraceSet([x, y])
    assert isinstance(w, dict) and tuple(w) == ("x", "y")
    assert "x" in w and "z" not in w
    assert w["x"] is x.values and w["y"].tolist() == [0.0]
    with pytest.raises(KeyError):
        w["z"]


def test_traceset_rejects_duplicate_channels():
    with pytest.raises(TraceError, match="duplicate channel 'x'"):
        TraceSet([Trace("x", [0], [1.0]), Trace("x", [0], [2.0])])
    with pytest.raises(TraceError, match="not a Trace"):
        TraceSet([("x", [1.0])])
    with pytest.raises(TraceError, match="at least one trace"):
        TraceSet([])

