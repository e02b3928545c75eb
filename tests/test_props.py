from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlrank import (
    PROPERTY_NAMES,
    PropertyError,
    PropertyParams,
    build,
    default_library,
    describe,
    eval_fast,
    parse_formula,
    traceset_from_positions,
)
from stlrank.props import _SHAPES

D = 14  # generator day grid


def sat(name, positions, **overrides):
    spec = build(name, **overrides)
    return eval_fast(spec.formula, traceset_from_positions(positions)).satisfied


def test_library_covers_all_names_with_defaults():
    specs = default_library()
    assert [s.name for s in specs] == list(PROPERTY_NAMES)
    by_name = {s.name: s.params for s in specs}
    assert by_name["flat_start"] == PropertyParams(w=3, epsilon=1.0)
    assert by_name["ditch"] == PropertyParams(w=2, d=10.0)
    assert by_name["spike"] == PropertyParams(w=2, d=10.0)
    assert by_name["reach"] == PropertyParams(s=10.0, r=1.0)
    assert by_name["no_long_miss"] == PropertyParams(w=3)


def test_formula_surface_text():
    text = {name: describe(build(name)) for name in PROPERTY_NAMES}
    assert text["flat_start"] == "G[0,3](abs(d1(x)) < 1)"
    assert text["cold_start"] == "G[0,3](d1(x) <= 0) & F[0,3](d1(x) < 0)"
    assert text["warm_start"] == "G[0,3](d1(x) >= 0) & F[0,3](d1(x) > 0)"
    assert text["steady_state"] == "F[0,3](G(abs(d1(x)) < 1))"
    assert text["reach"] == "G(x < 10 -> F(x == 1))"
    assert text["ditch"] == "F(d1(x) > 10 & F[0,2](d1(x) < -10))"
    assert text["spike"] == "F(d1(x) < -10 & F[0,2](d1(x) > 10))"
    assert text["no_init_miss"] == "!(G[0,3](x == -1))"
    assert text["no_long_miss"] == "G(x == -1 -> F[0,3](!(x == -1)))"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_table_shows_each_shape():
    table = README.read_text(encoding="utf-8").split("## Property library", 1)[1]
    rows = [line.split("|") for line in table.split("\n\n", 2)[1].splitlines()[2:]]
    shown = {cells[1].strip(" `"): cells[3].strip(" `") for cells in rows}
    fields = {"w": "w", "epsilon": "eps", "d": "d", "s": "s", "r": "r"}
    assert shown == {name: shape.format(**fields) for name, (shape, _) in _SHAPES.items()}


DAY_COUNT_WINDOWS = {"flat_start", "cold_start", "warm_start", "no_init_miss", "no_long_miss"}


@st.composite
def st_valid_params(draw):
    name = draw(st.sampled_from(PROPERTY_NAMES))
    real = st.floats(allow_nan=False, allow_infinity=False)
    if name in DAY_COUNT_WINDOWS:
        w = draw(st.integers(1, 2**60))
    else:
        w = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    tol = st.none() | st.floats(min_value=0.0, allow_infinity=False)
    return name, dict(w=w, epsilon=draw(real), d=draw(real), s=draw(real), r=draw(real),
                      eq_tolerance=draw(tol))


@settings(max_examples=300, deadline=None)
@given(st_valid_params())
def test_describe_parses_back_to_the_same_formula(name_params):
    name, params = name_params
    spec = build(name, **params)
    tol = 1e-9
    if name == "reach":
        tol = 0.5 if params["eq_tolerance"] is None else params["eq_tolerance"]
    assert parse_formula(describe(spec), eq_tolerance=tol) == spec.formula


def test_eq_tolerance_sets_only_the_reach_target():
    assert build("no_long_miss", eq_tolerance=0.5).formula == build("no_long_miss").formula
    assert build("no_init_miss", eq_tolerance=0.5).formula == build("no_init_miss").formula
    reach = parse_formula("G(x < 10 -> F(x == 1))", eq_tolerance=0.1)
    assert build("reach", eq_tolerance=0.1).formula == reach


def test_parameter_validation():
    with pytest.raises(PropertyError):
        build("flat")
    with pytest.raises(PropertyError, match=r"^ditch: missing parameter 'd'$"):
        build("ditch", d=None)
    with pytest.raises(PropertyError):
        build("flat_start", q=1.0)
    with pytest.raises(PropertyError):
        build("flat_start", w=0)
    with pytest.raises(PropertyError):
        build("ditch", w=-2)
    with pytest.raises(PropertyError):
        build("no_long_miss", w=2.5)
    # fractional windows are fine where the property is not day-counting
    build("ditch", w=1.5)
    # the fields are checked in the order the shape names them
    with pytest.raises(PropertyError, match=r"^ditch: parameter 'd' must be finite$"):
        build("ditch", d=float("nan"), w=0)
    with pytest.raises(PropertyError, match=r"^flat_start: parameter 'w' must be positive, got 0.0$"):
        build("flat_start", w=0, epsilon=float("inf"))
    # every bad value names the property and the field
    for value in ("abc", [1], {}):
        with pytest.raises(PropertyError, match=r"^ditch: parameter 'd' must be a real number, got "):
            build("ditch", d=value)
    with pytest.raises(PropertyError, match=r"^ditch: parameter 'd' must be finite$"):
        build("ditch", d=10**400)
    for value in (float("nan"), float("inf"), 10**400):
        with pytest.raises(PropertyError, match=r"^reach: parameter 'eq_tolerance' must be finite$"):
            build("reach", eq_tolerance=value)
    with pytest.raises(PropertyError, match=r"^reach: parameter 'eq_tolerance' must be non-negative, got -1.0$"):
        build("reach", eq_tolerance=-1)
    with pytest.raises(PropertyError, match=r"^reach: parameter 'eq_tolerance' must be a real number, got 'x'$"):
        build("reach", eq_tolerance="x")


def test_flat_start_window_and_epsilon():
    flat = [50.0] * D
    assert sat("flat_start", flat)
    # a unit step inside the window breaks it, outside does not
    stepped = list(flat)
    stepped[2] = 52.0
    assert not sat("flat_start", stepped)
    late = list(flat)
    late[8] = 80.0
    assert sat("flat_start", late)
    assert not sat("flat_start", late, w=8)
    # epsilon 0 can never hold: the comparison is strict
    assert not sat("flat_start", flat, epsilon=0.0)


def test_cold_and_warm_start():
    falling = [60 - 2 * i for i in range(5)] + [52.0] * (D - 5)
    rising = [20 + 2 * i for i in range(5)] + [28.0] * (D - 5)
    assert sat("cold_start", falling)
    assert not sat("warm_start", falling)
    assert sat("warm_start", rising)
    assert not sat("cold_start", rising)
    # a plateau is neither: the strict day is required
    assert not sat("cold_start", [50.0] * D)
    assert not sat("warm_start", [50.0] * D)


def test_steady_state_stabilizes_after_day_three():
    """Stabilizing at position 2 after day 3 satisfies the property; the
    same signal with a later drop does not."""
    green = [10.0, 7.0, 4.0, 2.0] + [2.0] * (D - 4)
    assert sat("steady_state", green)
    red = list(green)
    red[4] = 12.0
    assert not sat("steady_state", red)


def test_whole_trace_flatness_implies_steady_state():
    rng = np.random.default_rng(31)
    for _ in range(100):
        base = float(rng.uniform(5, 90))
        jitter = rng.uniform(-0.45, 0.45, size=D)
        positions = np.clip(base + np.cumsum(jitter), 1.0, None)
        if sat("flat_start", positions, w=D - 2):
            for w in (1, 2, 3, 6):
                assert sat("steady_state", positions, w=w)


def test_reach_vacuous_and_failing():
    never_enters = [50.0] * D
    assert sat("reach", never_enters)
    enters_never_reaches = [50.0] * 6 + [8.0] * (D - 6)
    assert not sat("reach", enters_never_reaches)
    recovers = [50.0] * 6 + [8.0, 5.0, 1.0] + [1.0] * (D - 9)
    assert sat("reach", recovers)


def test_reach_equality_tolerance_is_half_position():
    hits_near = [50.0] * 6 + [8.0, 1.4] + [1.4] * (D - 8)
    assert sat("reach", hits_near)
    misses = [50.0] * 6 + [8.0, 1.6] + [1.6] * (D - 8)
    assert not sat("reach", misses)


def test_ditch_and_spike_shapes():
    base = [50.0] * D
    up = list(base)
    up[6] = 62.0  # +12 then -12 the next day
    assert sat("ditch", up)
    assert not sat("spike", up)
    down = list(base)
    down[6] = 38.0
    assert sat("spike", down)
    assert not sat("ditch", down)
    shallow = list(base)
    shallow[6] = 58.0  # 8 positions is not deep enough
    assert not sat("ditch", shallow)
    assert not sat("spike", shallow)


def test_ditch_rebound_must_fall_inside_the_window():
    jump = [50.0] * 3 + [64.0] * 4 + [50.0] * (D - 7)
    # up at day 3, back down at day 7: rebound 4 days later
    assert not sat("ditch", jump)
    assert sat("ditch", jump, w=4)


def test_ditch_spike_mirror_symmetry():
    rng = np.random.default_rng(37)
    for _ in range(200):
        positions = np.round(rng.uniform(1.0, 100.0, size=D), 2)
        mirrored = 101.0 - positions
        assert sat("ditch", positions) == sat("spike", mirrored)
        assert sat("spike", positions) == sat("ditch", mirrored)


def test_no_init_miss():
    ok = [-1.0, -1.0, 50.0] + [50.0] * (D - 3)
    assert sat("no_init_miss", ok)
    bad = [-1.0] * 4 + [50.0] * (D - 4)
    assert not sat("no_init_miss", bad)
    # window w means days 0..w must all be missing to violate
    assert sat("no_init_miss", bad, w=4)


def long_miss_reference(positions, w):
    """Violated when a missing run exceeds w days, or the trace ends
    missing (no recovery day exists inside the horizon)."""
    runs = []
    run = 0
    for p in positions:
        if p == -1.0:
            run += 1
        else:
            if run:
                runs.append(run)
            run = 0
    trailing = run > 0
    if run:
        runs.append(run)
    return not (any(r > w for r in runs) or trailing)


def test_no_long_miss_matches_run_length_rule():
    rng = np.random.default_rng(41)
    for _ in range(300):
        positions = np.where(
            rng.random(D) < 0.35, -1.0, rng.uniform(1.0, 99.0, size=D)
        )
        for w in (1, 2, 3, 5):
            assert sat("no_long_miss", positions, w=w) == long_miss_reference(
                positions, w
            ), (positions, w)


def test_no_long_miss_four_day_gap():
    gap = [50.0] * 4 + [-1.0] * 4 + [50.0] * (D - 8)
    assert not sat("no_long_miss", gap)
    shorter = [50.0] * 4 + [-1.0] * 3 + [50.0] * (D - 7)
    assert sat("no_long_miss", shorter)
