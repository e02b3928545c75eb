"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with -s to watch them) and then
asserts, so a red run still names the criterion that broke. Random corpora
use pinned seeds; timed sections run the evaluator once before timing.
"""

import statistics
import time

import numpy as np

from stlrank import (
    Eventually,
    Globally,
    GeneratorConfig,
    Not,
    TRUE,
    Trace,
    TraceSet,
    Until,
    build,
    cluster_kmeans,
    default_library,
    desugar,
    eval_fast,
    eval_naive,
    expand_propositional,
    generate,
    load_dataset,
    parse_formula,
    print_formula,
    satisfaction_rates,
    to_traceset,
    traceset_from_positions,
    write_csv,
    write_jsonl,
)
from stlrank.analytics import evaluate_grounded
from stlrank.ingest import derivative_values

from gen_support import random_formula, random_interval, random_traceset

CHANNELS = ("x", "d1(x)", "load")


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


def corpus(n=1000):
    rng = np.random.default_rng(2024)
    return [
        (random_formula(rng, CHANNELS, 4), random_traceset(rng, CHANNELS, 20))
        for _ in range(n)
    ]


def warm_kernels():
    w = traceset_from_positions([5.0, 4.0, 3.0, 2.0])
    for spec in default_library():
        eval_fast(spec.formula, w)


def test_oracle_equivalence():
    pairs = corpus()
    warm_kernels()
    start = time.perf_counter()
    ok = True
    for f, w in pairs:
        verdict = eval_fast(f, w)
        for i, t in enumerate(verdict.times):
            if bool(verdict.per_time[i]) != eval_naive(f, w, int(t)):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report("oracle-equivalence", ok and elapsed < 60.0)


def test_desugar_and_duality():
    rng = np.random.default_rng(55)
    ok = True
    for f, w in corpus():
        base = eval_fast(f, w).per_time
        if not np.array_equal(eval_fast(desugar(f), w).per_time, base):
            ok = False
            break
        i = random_interval(rng)
        dual_g = np.array_equal(
            eval_fast(Globally(i, f), w).per_time,
            eval_fast(Not(Eventually(i, Not(f))), w).per_time,
        )
        dual_f = np.array_equal(
            eval_fast(Eventually(i, f), w).per_time,
            eval_fast(Until(i, TRUE, f), w).per_time,
        )
        if not (dual_g and dual_f):
            ok = False
            break
    report("desugar-duality", ok)


def test_figure_verdicts():
    def holds(name, positions, **overrides):
        spec = build(name, **overrides)
        return eval_fast(spec.formula, traceset_from_positions(positions)).satisfied

    flat = [7.0] * 14
    cold = [60, 52, 45, 39, 34, 30, 27, 25, 24, 23, 22, 21, 21, 21]
    steady_green = [9, 6, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]
    steady_red = [9, 6, 4, 2, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12]
    never_enters = [30, 25, 20, 15, 12, 11, 11, 11, 11, 11, 11, 11, 11, 11]
    never_reaches = [30, 20, 8, 5, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3]
    deep_ditch = [50, 50, 50, 50, 62, 50, 50, 50, 50, 50, 50, 50, 50, 50]
    shallow = [50, 50, 50, 50, 58, 50, 50, 50, 50, 50, 50, 50, 50, 50]
    gap = [5, 4, -1, -1, -1, -1, 4, 4, 4, 4, 4, 4, 4, 4]

    checks = [
        holds("flat_start", flat, w=3, epsilon=1),
        not holds("flat_start", flat, w=3, epsilon=0),
        holds("cold_start", cold, w=3),
        not holds("flat_start", cold, w=3, epsilon=1),
        holds("steady_state", steady_green, w=3, epsilon=1),
        not holds("steady_state", steady_red, w=3, epsilon=1),
        holds("reach", never_enters, s=10, r=1),
        not holds("reach", never_reaches, s=10, r=1),
        holds("ditch", deep_ditch, d=10, w=2),
        not holds("ditch", shallow, d=10, w=2),
        not holds("no_long_miss", gap, w=3),
    ]
    report("figure-verdicts", all(checks))


def test_expansion_counts_and_agreement():
    ditch = build("ditch")
    counts_ok = True
    for horizon, w in ((13, 2), (20, 5)):
        rep = expand_propositional(build("ditch", w=w).formula, horizon)
        if rep.operator_count != horizon * (1 + w) or rep.stl_operator_count != 3:
            counts_ok = False

    rng = np.random.default_rng(404)
    agree = True
    spike = build("spike")
    for _ in range(200):
        n = int(rng.integers(4, 15))
        positions = np.round(rng.uniform(1.0, 100.0, size=n), 2)
        if rng.random() < 0.3:
            positions[rng.integers(0, n)] = -1.0
        d1, _ = derivative_values(positions)
        channels = {"x": positions, "d1(x)": d1}
        w = traceset_from_positions(positions)
        for spec in (ditch, spike):
            rep = expand_propositional(spec.formula, n - 1)
            if evaluate_grounded(rep.root, channels) != eval_naive(spec.formula, w):
                agree = False
    report("expansion-counts", counts_ok and agree)


def test_generator_analytics_closure():
    warm_kernels()
    start = time.perf_counter()
    cfg = GeneratorConfig(
        n_records=10_000,
        pattern_mix={"cold": 0.3, "flat": 0.5, "spiky": 0.2},
        seed=42,
        noise_sigma=0.0,
    )
    ds = generate(cfg)
    table = satisfaction_rates(ds, default_library())
    ditch, spike = build("ditch"), build("spike")
    jumpy = sum(
        1
        for rec in ds.records
        if eval_fast(ditch.formula, to_traceset(rec)).satisfied
        or eval_fast(spike.formula, to_traceset(rec)).satisfied
    )
    elapsed = time.perf_counter() - start
    ok = (
        table.overall("cold_start") == 0.30
        and table.overall("flat_start") == 0.50
        and jumpy / cfg.n_records >= 0.20
        and elapsed < 30.0
    )
    report("generator-closure", ok)


def test_kmeans_smoothing():
    cfg = GeneratorConfig(
        n_records=2000,
        pattern_mix={"spiky": 0.6, "flat": 0.4},
        seed=35,
        noise_sigma=0.0,
    )
    ds = generate(cfg)
    ditch, spike = build("ditch"), build("spike")

    def jumpy(w):
        return (
            eval_fast(ditch.formula, w).satisfied
            or eval_fast(spike.formula, w).satisfied
        )

    record_fraction = sum(
        1 for rec in ds.records if jumpy(to_traceset(rec))
    ) / len(ds.records)
    result = cluster_kmeans(ds, 10, seed=7)
    jumpy_centroids = sum(
        1 for c in range(10) if jumpy(traceset_from_positions(result.centroids[c]))
    )
    again = cluster_kmeans(ds, 10, seed=7)
    deterministic = np.array_equal(result.centroids, again.centroids) and np.array_equal(
        result.assignments, again.assignments
    )
    report(
        "kmeans-smoothing",
        record_fraction >= 0.50 and jumpy_centroids == 0 and deterministic,
    )


def test_linear_scaling():
    # A bounded G, an unbounded F (whose window runs past the end of the
    # grid) and a bounded U.
    formulas = {
        "G[0,3]": build("flat_start").formula,
        "F": parse_formula("F(d1(x) < -1)"),
        "U[0,6]": parse_formula("(x > 45) U[0,6] (d1(x) < -1)"),
    }
    rng = np.random.default_rng(7)

    def traceset(n):
        pos = np.cumsum(rng.normal(0, 0.4, size=n)) + 50.0
        x = Trace("x", np.arange(n, dtype=np.int64), pos)
        d1 = Trace("d1(x)", np.arange(n - 1, dtype=np.int64), np.diff(pos))
        return TraceSet([x, d1])

    warm_kernels()

    def median_run(f, w):
        eval_fast(f, w)
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(10):
                eval_fast(f, w)
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)

    small_w, large_w = traceset(10_000), traceset(100_000)
    ok = True
    for name, f in formulas.items():
        small = median_run(f, small_w)
        large = median_run(f, large_w)
        print(f"  scaling {name}: 1e4 {small * 1e3:.2f}ms  1e5 {large * 1e3:.2f}ms  "
              f"ratio {large / small:.1f}")
        ok = ok and large <= 15.0 * small
    report("linear-scaling", ok)


def test_round_trips(tmp_path):
    rng = np.random.default_rng(808)
    parse_ok = all(
        parse_formula(print_formula(f)) == f
        for f in (random_formula(rng, CHANNELS, 4) for _ in range(1000))
    )

    cfg = GeneratorConfig(
        n_records=300,
        pattern_mix={"flat": 0.4, "spiky": 0.3, "missing": 0.3},
        seed=3,
        noise_sigma=0.5,
    )
    ds = generate(cfg)
    files_ok = True
    for writer, name in ((write_csv, "a.csv"), (write_jsonl, "a.jsonl")):
        first = tmp_path / name
        writer(ds, first)
        loaded = load_dataset(first)
        second = tmp_path / ("re_" + name)
        writer(loaded, second)
        if first.read_bytes() != second.read_bytes():
            files_ok = False
    report("round-trips", parse_ok and files_ok)
