import math
import re
import time

import numpy as np
import pytest

from stlrank import (
    Dataset,
    ExpansionError,
    GeneratorConfig,
    ProductRecord,
    Until,
    build,
    cluster_kmeans,
    default_library,
    eval_fast,
    eval_naive,
    expand_propositional,
    expand_query,
    generate,
    metric_distribution,
    parse_formula,
    satisfaction_rates,
    to_traceset,
    traceset_from_positions,
)
from stlrank.analytics import (
    MAX_GROUNDED_NODES,
    OVERALL,
    centroids_plot_data,
    rates_plot_data,
)
from stlrank.ingest import SchemaError, derivative_values

MIX = {"cold": 0.3, "flat": 0.5, "spiky": 0.2}


def test_satisfaction_rates_exact_on_planted_mix():
    ds = generate(GeneratorConfig(n_records=500, pattern_mix=MIX, seed=21))
    table = satisfaction_rates(ds, default_library())
    assert table.overall("cold_start") == 0.3
    assert table.overall("flat_start") == 0.5
    assert table.rate("c0", "flat_start") == 0.5
    d = table.overall("ditch")
    s = table.overall("spike")
    assert d + s == pytest.approx(0.2)
    csv_text = table.to_csv_text()
    assert csv_text.splitlines()[0] == "category,property,satisfied,total,rate"
    assert f"{OVERALL},flat_start,250,500,0.500000" in csv_text


def test_satisfaction_rates_parallel_matches_serial():
    # `jobs` is accepted and ignored: every call is one batched pass.
    ds = generate(GeneratorConfig(n_records=120, pattern_mix=MIX, seed=22))
    serial = satisfaction_rates(ds, default_library(), jobs=1)
    parallel = satisfaction_rates(ds, default_library(), jobs=2)
    assert serial.rows == parallel.rows


def test_metric_distribution_means():
    recs = [
        ProductRecord("a", "c0", (50.0,) * 14, 100, 10, 1),
        ProductRecord("b", "c0", (60.0,) * 14, 200, 20, 3),
        ProductRecord("c", "c0", tuple(60 - 2 * i for i in range(5)) + (52.0,) * 9, 40, 4, 5),
    ]
    ds = Dataset(recs)
    table = metric_distribution(ds, [build("flat_start"), build("no_init_miss")])
    assert table.mean("flat_start", "satisfied", "impressions") == 150.0
    assert table.mean("flat_start", "violated", "impressions") == 40.0
    assert table.mean("flat_start", "satisfied", "purchases") == 2.0
    # everything satisfies no_init_miss, so the violated group is empty
    assert math.isnan(table.mean("no_init_miss", "violated", "clicks"))
    assert ",NA" in table.to_csv_text()


def test_expansion_counts_for_jump_patterns():
    """Grounding the jump-rebound property over T derivative days costs
    T(1+w) boolean operators while the source formula stays at 3."""
    for horizon, w, expected in ((13, 2, 39), (20, 5, 120)):
        spec = build("ditch", w=w)
        report = expand_propositional(spec.formula, horizon)
        assert report.operator_count == expected
        assert report.stl_operator_count == 3


def test_expansion_bounded_invariant_atoms():
    report = expand_propositional(parse_formula("G[0,2](x <= 0)"), 13)
    assert report.atom_count == 3
    assert report.operator_count == 0
    assert report.text == "(x[0] <= 0) & (x[1] <= 0) & (x[2] <= 0)"
    # Every term node keeps its shape when its channels are renamed per day.
    terms = expand_propositional(parse_formula("F[0,1](abs(x - 3) * -d1(x) + 1 > -(2 * x))"), 2)
    assert terms.text == (
        "(abs(x[0] - 3) * -d1(x)[0] + 1 > -(2 * x[0]))"
        " | (abs(x[1] - 3) * -d1(x)[1] + 1 > -(2 * x[1]))"
    )


def test_expansion_pads_windows_past_the_horizon():
    report = expand_propositional(parse_formula("F[0,3](x > 5)"), 2)
    assert report.text == "(x[0] > 5) | (x[1] > 5) | (x[2] > 5) | (false)"
    g = expand_propositional(parse_formula("G[0,3](x > 5)"), 2)
    assert g.text == "(x[0] > 5) & (x[1] > 5) & (x[2] > 5) & (true)"


def test_expansion_agrees_with_the_evaluators():
    rng = np.random.default_rng(23)
    from stlrank.analytics import evaluate_grounded

    specs = [build(name) for name in ("flat_start", "cold_start", "steady_state", "reach", "ditch", "spike", "no_init_miss", "no_long_miss")]
    for _ in range(60):
        n = int(rng.integers(3, 16))
        positions = rng.uniform(1.0, 100.0, size=n)
        if rng.random() < 0.4:
            positions[rng.integers(0, n)] = -1.0
        d1, _ = derivative_values(positions)
        channels = {"x": positions, "d1(x)": d1}
        w = traceset_from_positions(positions)
        for spec in specs:
            report = expand_propositional(spec.formula, n - 1)
            assert evaluate_grounded(report.root, channels) == eval_naive(
                spec.formula, w
            ), (spec.name, positions)


def test_expansion_rejects_until_and_short_horizons():
    from stlrank import Interval, TRUE

    with pytest.raises(ExpansionError):
        expand_propositional(Until(Interval(0, 2), TRUE, TRUE), 5)
    with pytest.raises(ExpansionError):
        expand_propositional(parse_formula("G(d1(x) < 1)"), 0)
    with pytest.raises(ExpansionError):
        expand_propositional(parse_formula("G(load < 1)"), 5)


def test_expansion_node_budget():
    # Nested windows grow cubically with the horizon: past the node budget
    # grounding stops at once instead of building millions of nodes.
    start = time.perf_counter()
    with pytest.raises(ExpansionError, match=f"{MAX_GROUNDED_NODES} grounded nodes"):
        expand_propositional(parse_formula("F(G(F(x < 1)))"), 300)
    assert time.perf_counter() - start < 15.0
    # Window slots past the horizon count too: the root and its slots fit
    # the budget exactly, one slot more does not, and a window of 1e15 days
    # fails without building them.
    fits = expand_propositional(parse_formula(f"F[0,{MAX_GROUNDED_NODES - 2}](x < 1)"), 3)
    assert len(fits.root.children) == MAX_GROUNDED_NODES - 1
    for hi in (MAX_GROUNDED_NODES - 1, "1e15"):
        start = time.perf_counter()
        with pytest.raises(ExpansionError, match=f"{MAX_GROUNDED_NODES} grounded nodes"):
            expand_propositional(parse_formula(f"F[0,{hi}](x < 1)"), 3)
        assert time.perf_counter() - start < 15.0
    # The library stays far inside the budget at the default horizon.
    counts = {
        spec.name: (report.operator_count, report.atom_count)
        for spec in default_library()
        for report in [expand_propositional(spec.formula, 13)]
    }
    assert counts == {
        "flat_start": (0, 4), "cold_start": (6, 8), "warm_start": (6, 8),
        "steady_state": (42, 46), "reach": (119, 119), "ditch": (39, 49),
        "spike": (39, 49), "no_init_miss": (4, 4), "no_long_miss": (120, 64),
    }


def test_query_rendering_shape():
    q = expand_query("ditch", 1, 1)
    assert q == "df[((df.pos_0 > 10) & ((df.pos_0 < -10) | (df.pos_1 < -10)))]"
    q13 = expand_query("ditch", 13, 2)
    assert q13.startswith("df[((df.pos_0 > 10) & (")
    assert q13.endswith(")]")
    assert q13.count(" & ") == 12  # one anchor per outer term


def test_query_size_grows_linearly_with_horizon():
    sizes = [expand_query("ditch", t, 2).count("df.pos_") for t in (10, 20, 40)]
    # doubling the horizon step doubles the growth
    assert sizes[2] - sizes[1] == 2 * (sizes[1] - sizes[0])
    # each term holds one anchor plus w+1 rebound slots
    assert sizes == [(t - 2 + 1) * 4 for t in (10, 20, 40)]


def test_query_spike_mirrors_signs():
    q = expand_query("spike", 3, 1, d=7.5)
    assert "(df.pos_0 < -7.5)" in q
    assert "(df.pos_1 > 7.5)" in q


def test_query_size_is_bounded():
    """Past MAX_GROUNDED_NODES comparisons a query fails before building a
    term; at the bound it is built, and horizon 13 renders as before."""
    start = time.perf_counter()
    with pytest.raises(ExpansionError, match=f"query exceeds {MAX_GROUNDED_NODES} comparisons"):
        expand_query("ditch", 100_000_000, 2)
    assert time.perf_counter() - start < 1.0
    # With w = 2, horizon h holds h - 1 terms of 4 comparisons.
    at_bound = MAX_GROUNDED_NODES // 4 + 1
    assert expand_query("ditch", at_bound, 2).count("df.pos_") == MAX_GROUNDED_NODES
    with pytest.raises(ExpansionError, match="query exceeds"):
        expand_query("ditch", at_bound + 1, 2)
    terms = (
        f"((df.pos_{i} > 10) & ({' | '.join(f'(df.pos_{j} < -10)' for j in range(i, i + 3))}))"
        for i in range(12)
    )
    assert expand_query("ditch", 13, 2) == "df[" + " | ".join(terms) + "]"


def test_query_rejects_bad_arguments():
    with pytest.raises(ExpansionError):
        expand_query("flat_start", 13, 2)
    with pytest.raises(ExpansionError):
        expand_query("ditch", 1, 2)


def separated_dataset():
    rng = np.random.default_rng(29)
    recs = []
    for i in range(60):
        level = 10.0 if i % 2 == 0 else 80.0
        positions = np.round(level + rng.uniform(-1, 1, size=14), 3)
        recs.append(
            ProductRecord(f"p{i}", "c0", tuple(positions), 10, 1, 0)
        )
    return Dataset(recs)


def test_kmeans_recovers_separated_levels():
    ds = separated_dataset()
    result = cluster_kmeans(ds, k=2, seed=0)
    assert sorted(np.round(result.centroids.mean(axis=1), 0)) == [10.0, 80.0]
    low = result.assignments[0]
    assert all(result.assignments[i] == low for i in range(0, 60, 2))
    assert all(result.assignments[i] != low for i in range(1, 60, 2))


def test_kmeans_distortion_never_increases():
    ds = generate(GeneratorConfig(n_records=300, pattern_mix=MIX, seed=31))
    result = cluster_kmeans(ds, k=6, seed=2)
    hist = result.distortion_history
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    again = cluster_kmeans(ds, k=6, seed=2)
    assert np.array_equal(result.assignments, again.assignments)
    assert np.array_equal(result.centroids, again.centroids)


@pytest.mark.parametrize("max_iter", [0, -2])
def test_kmeans_needs_at_least_one_iteration(max_iter):
    with pytest.raises(ValueError, match="^max_iter must be at least 1$"):
        cluster_kmeans(separated_dataset(), k=2, max_iter=max_iter)


def test_kmeans_excludes_fully_missing_records():
    recs = [ProductRecord(f"p{i}", "c0", (float(10 + i),) * 14, 1, 1, 1) for i in range(5)]
    recs.append(ProductRecord("gone", "c0", (-1.0,) * 14, 1, 1, 1))
    result = cluster_kmeans(Dataset(recs), k=2, seed=1)
    assert result.assignments[-1] == -1
    assert (result.assignments[:-1] >= 0).all()


def test_kmeans_imputes_partial_missing_with_row_mean():
    positions = [20.0] * 14
    positions[3] = -1.0
    recs = [
        ProductRecord("a", "c0", tuple(positions), 1, 1, 1),
        ProductRecord("b", "c0", (22.0,) * 14, 1, 1, 1),
    ]
    result = cluster_kmeans(Dataset(recs), k=1, seed=0)
    # the imputed row sits at its own mean on the missing day
    assert result.centroids[0][3] == pytest.approx(21.0)


def test_kmeans_validates_k():
    ds = separated_dataset()
    with pytest.raises(ValueError):
        cluster_kmeans(ds, k=0)
    with pytest.raises(ValueError):
        cluster_kmeans(ds, k=61)
    with pytest.raises(ValueError, match="need at least k=2 usable records, have 0"):
        cluster_kmeans(Dataset([]), k=2)


def test_plot_emitters_shape():
    ds = generate(GeneratorConfig(n_records=60, pattern_mix=MIX, seed=33))
    table = satisfaction_rates(ds, default_library())
    dat = rates_plot_data(table)
    lines = dat.splitlines()
    assert lines[0].startswith("# category ")
    assert len(lines) == 1 + 10 + 1  # categories plus the overall row

    result = cluster_kmeans(ds, k=3, seed=0)
    cdat = centroids_plot_data(result)
    clines = cdat.splitlines()
    assert clines[0] == "# day c0 c1 c2"
    assert len(clines) == 15


def gnuplot_fields(line):
    """A data line split the way gnuplot splits it: on whitespace outside
    double quotes, a quote opening or closing a quoted stretch."""
    return re.findall(r'(?:"[^"]*"|[^\s"])+', line)


def test_rates_plot_data_quotes_odd_category_names():
    odd = ["with space", 'say "hi"', "#hash", "tab\tin", "line\nbreak", "c0"]
    ds = Dataset(
        [ProductRecord(f"p{i}", cat, (5.0,) * 14, 1, 1, 1) for i, cat in enumerate(odd)]
    )
    lines = rates_plot_data(satisfaction_rates(ds, default_library())).splitlines()
    header = gnuplot_fields(lines[0].removeprefix("#"))
    assert header[0] == "category" and len(header) == 1 + 9
    assert all(len(gnuplot_fields(line)) == len(header) for line in lines[1:])
    assert [gnuplot_fields(line)[0] for line in lines[1:]] == [
        '"with space"', '"say ""hi"""', '"#hash"', '"tab\tin"', '"line\\nbreak"', "c0", OVERALL,
    ]


def test_the_rollup_label_is_reserved():
    """No record may take the rollup rows' label, so the OVERALL rows of a
    rates table and its plot data are the rollup's alone."""
    flat = (5.0,) * 14
    rising = (5.0, 9.0, 20.0) + (30.0,) * 11
    with pytest.raises(SchemaError, match=r"^category '\(all\)' is reserved for the rollup rows$"):
        ProductRecord("p1", OVERALL, flat, 1, 1, 1)
    ds = Dataset([ProductRecord("p1", "c0", flat, 1, 1, 1),
                  ProductRecord("p2", "c1", rising, 1, 1, 1)])
    table = satisfaction_rates(ds, [build("flat_start")])
    assert table.overall("flat_start") == 0.5
    assert rates_plot_data(table) == (
        "# category flat_start\nc0 1.000000\nc1 0.000000\n(all) 0.500000\n")


def test_centroid_averaging_flattens_excursions():
    """Many one-day excursions at random days average out, so cluster
    centroids stop satisfying the jump properties even when every member
    record satisfies one."""
    ds = generate(
        GeneratorConfig(n_records=400, pattern_mix={"spiky": 0.8, "flat": 0.2}, seed=35)
    )
    ditch = build("ditch").formula
    spike = build("spike").formula
    per_record = sum(
        eval_fast(ditch, to_traceset(r)).satisfied
        or eval_fast(spike, to_traceset(r)).satisfied
        for r in ds.records
    ) / len(ds.records)
    assert per_record >= 0.5
    result = cluster_kmeans(ds, k=10, seed=7)
    for c in range(10):
        w = traceset_from_positions(result.centroids[c])
        assert not eval_fast(ditch, w).satisfied
        assert not eval_fast(spike, w).satisfied
