"""The benchmark's four workloads: inputs, jobs and output checks.

Every workload has the same three parts:

* ``prepare(work, seed, sizes)`` writes the inputs, made from the seed with
  ``stlrank.ingest.generate`` or a seeded walk, into the work directory and
  computes the expected outputs. It runs once per benchmark run, before and
  outside any timed region.
* ``steps(state, job_dir)`` lists the worker processes of one job. Each
  step is one CLI command (``stlrank.cli.main(argv)``) or one call sequence
  into the public API, run in a fresh process by ``worker.py``.
* ``check(state, job_dir)`` compares one job's outputs with the
  expectations and returns the number of failed items.

Expectations come from ``eval_naive``, the recursive oracle, on trace sets
the benchmark builds itself, and are rendered by code here rather than by
the program's own table writers, so a wrong verdict, count or byte in any
output shows as failed items.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Generator pattern shares: all six planted patterns, summing exactly to 1.
MIX = {"flat": 0.2, "cold": 0.15, "warm": 0.15, "spiky": 0.2, "missing": 0.15, "random": 0.15}
MIX_TEXT = ",".join(f"{k}={v}" for k, v in MIX.items())
NOISE_SIGMA = 0.5

# Ad-hoc formulas of check_adhoc: (text, strict until, canonical printed
# form). Together they cover strict and non-strict U[a,b], fractional
# windows, nested temporal operators, and formulas mixing the 14-day x grid
# with the 13-day d1(x) grid.
ADHOC = (
    ("(x > 20) U[0,6] (d1(x) < -2)", False, "(x > 20) U[0,6] (d1(x) < -2)"),
    ("(abs(d1(x)) < 3) U[1,4.5] (x > 35)", True, "(abs(d1(x)) < 3) U[1,4.5] (x > 35)"),
    ("F[0,2.5](G[0,1.5](abs(d1(x)) < 1))", False, "F[0,2.5](G[0,1.5](abs(d1(x)) < 1))"),
    ("G((x == -1) -> F[0.5,3.5](x > 0))", False, "G(x == -1 -> F[0.5,3.5](x > 0))"),
    (
        "F((d1(x) > 8) & F[0,2](d1(x) < -8)) | G[0,4](x < 50)",
        False,
        "F(d1(x) > 8 & F[0,2](d1(x) < -8)) | G[0,4](x < 50)",
    ),
    (
        "!(F[0,3.5]((x > 30) U[0,2] (d1(x) > 1)))",
        True,
        "!(F[0,3.5]((x > 30) U[0,2] (d1(x) > 1)))",
    ),
)

# The ad-hoc formulas with Until that long_trace evaluates besides the library.
LONG_ADHOC = tuple(a for a in ADHOC if " U[" in a[0])

DEFAULT_SIZES = {
    "rates_library": {"records": 5000, "categories": 100},
    "check_adhoc": {"records": 5000, "categories": 100},
    "long_trace": {"signals": 4, "days": 250_000, "samples": 6, "tail": 120},
    "ingest_roundtrip": {"records": 20_000, "categories": 100, "k": 10},
}


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

def reference_traceset(positions):
    """Channels x and d1(x) built here, independently of stlrank.ingest."""
    from stlrank.core.trace import Trace, TraceSet

    pos = np.asarray(positions, dtype=np.float64)
    n = pos.size
    touches_missing = (pos[:-1] == -1.0) | (pos[1:] == -1.0)
    diff = np.where(touches_missing, 0.0, pos[1:] - pos[:-1])
    return TraceSet(
        [
            Trace("x", np.arange(n, dtype=np.int64), pos),
            Trace("d1(x)", np.arange(n - 1, dtype=np.int64), diff),
        ]
    )


def naive_verdicts(dataset, formulas):
    """(records, formulas) matrix of eval_naive verdicts at the first day."""
    from stlrank import eval_naive

    out = np.zeros((len(dataset.records), len(formulas)), dtype=bool)
    for i, rec in enumerate(dataset.records):
        w = reference_traceset(rec.positions)
        for j, (f, strict) in enumerate(formulas):
            out[i, j] = eval_naive(f, w, until_strict=strict)
    return out


def forced_zero_days(rows) -> int:
    """d1(x) days that stlrank.ingest.derivative_values forces to 0."""
    from stlrank.ingest import derivative_values

    return int(sum(int(derivative_values(r)[1].sum()) for r in rows))


def _read(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _generated(records: int, categories: int, seed: int):
    from stlrank.ingest import GeneratorConfig, generate

    return generate(
        GeneratorConfig(
            n_records=records,
            pattern_mix=MIX,
            category_count=categories,
            noise_sigma=NOISE_SIGMA,
            seed=seed,
        )
    )


def _cli(argv, job_dir, name):
    return {"kind": "cli", "argv": argv, "stdout": os.path.join(job_dir, name + ".stdout")}


# ---------------------------------------------------------------------------
# rates_library: rates and metrics over the nine-property library.
# ---------------------------------------------------------------------------

def _rates_texts(ds, names, verdicts):
    """Expected `rates -o`, `--emit-plot-data` and `metrics -o` files."""
    cats: list[str] = []
    seen: set[str] = set()
    for rec in ds.records:
        if rec.category not in seen:
            seen.add(rec.category)
            cats.append(rec.category)
    rec_cat = np.array([rec.category for rec in ds.records])
    counts = {}
    for j, name in enumerate(names):
        for cat in cats:
            mask = rec_cat == cat
            counts[cat, name] = (int(verdicts[mask, j].sum()), int(mask.sum()))
        counts["(all)", name] = (int(verdicts[:, j].sum()), len(ds.records))
    rows = ["category,property,satisfied,total,rate"]
    for name in names:
        for cat in cats:
            sat, tot = counts[cat, name]
            rows.append(f"{cat},{name},{sat},{tot},{sat / tot:.6f}")
    for name in names:
        sat, tot = counts["(all)", name]
        rows.append(f"(all),{name},{sat},{tot},{sat / tot:.6f}")
    rates = "\n".join(rows) + "\n"

    plot = ["# category " + " ".join(names)]
    for cat in cats + ["(all)"]:
        cells = []
        for name in names:
            sat, tot = counts[cat, name]
            cells.append(f"{sat / tot:.6f}")
        plot.append(" ".join([cat] + cells))
    plot_text = "\n".join(plot) + "\n"

    values = {
        m: np.array([getattr(rec, m) for rec in ds.records], dtype=np.float64)
        for m in ("impressions", "clicks", "purchases")
    }
    rows = ["property,group,metric,count,mean"]
    for j, name in enumerate(names):
        col = verdicts[:, j]
        for group, mask in (("satisfied", col), ("violated", ~col)):
            n = int(mask.sum())
            for m, vals in values.items():
                mean = f"{float(vals[mask].mean()):.4f}" if n else "NA"
                rows.append(f"{name},{group},{m},{n},{mean}")
    metrics = "\n".join(rows) + "\n"
    return rates, plot_text, metrics


class RatesLibrary:
    name = "rates_library"

    def prepare(self, work, seed, sizes):
        from stlrank import default_library
        from stlrank.ingest import write_csv

        ds = _generated(sizes["records"], sizes["categories"], seed)
        path = os.path.join(work, "library.csv")
        write_csv(ds, path)
        specs = default_library()
        names = [s.name for s in specs]
        verdicts = naive_verdicts(ds, [(s.formula, False) for s in specs])
        rates, plot, metrics = _rates_texts(ds, names, verdicts)
        per_command = len(ds.records) * len(specs)
        return {
            "input": path,
            "expected": {"rates.csv": rates, "rates_plot.txt": plot, "metrics.csv": metrics},
            "per_command": per_command,
            "items": 2 * per_command,
            "forced_zero": forced_zero_days(rec.positions for rec in ds.records),
            "sizes": {"records": len(ds.records), "categories": sizes["categories"],
                      "properties": len(specs)},
        }

    def steps(self, state, job_dir):
        j = lambda f: os.path.join(job_dir, f)  # noqa: E731
        return [
            _cli(["rates", "-i", state["input"], "-o", j("rates.csv"),
                  "--emit-plot-data", j("rates_plot.txt")], job_dir, "rates"),
            _cli(["metrics", "-i", state["input"], "-o", j("metrics.csv")], job_dir, "metrics"),
        ]

    def check(self, state, job_dir):
        exp = state["expected"]
        failed = 0
        if any(
            _read(os.path.join(job_dir, f)) != exp[f].encode()
            for f in ("rates.csv", "rates_plot.txt")
        ):
            failed += state["per_command"]
        if _read(os.path.join(job_dir, "metrics.csv")) != exp["metrics.csv"].encode():
            failed += state["per_command"]
        return failed


# ---------------------------------------------------------------------------
# check_adhoc: six parsed formulas, one verdict line per record.
# ---------------------------------------------------------------------------

class CheckAdhoc:
    name = "check_adhoc"

    def prepare(self, work, seed, sizes):
        from stlrank import parse_formula
        from stlrank.ingest import write_jsonl

        ds = _generated(sizes["records"], sizes["categories"], seed)
        path = os.path.join(work, "library.jsonl")
        write_jsonl(ds, path)
        formulas = [(parse_formula(text), strict) for text, strict, _ in ADHOC]
        verdicts = naive_verdicts(ds, formulas)
        expected = []
        total = len(ds.records)
        for j, (_, _, printed) in enumerate(ADHOC):
            lines = [
                f"{rec.product_id}\t{'satisfied' if verdicts[i, j] else 'violated'}"
                for i, rec in enumerate(ds.records)
            ]
            sat = int(verdicts[:, j].sum())
            summary = [f"formula: {printed}", f"satisfied {sat}/{total} ({sat / total:.4f})"]
            expected.append((lines, summary))
        return {
            "input": path,
            "expected": expected,
            "items": total * len(ADHOC),
            "forced_zero": forced_zero_days(rec.positions for rec in ds.records),
            "sizes": {"records": total, "formulas": len(ADHOC)},
        }

    def steps(self, state, job_dir):
        out = []
        for j, (text, strict, _) in enumerate(ADHOC):
            argv = ["check", "-i", state["input"], "--formula", text, "--each"]
            if strict:
                argv.append("--strict-until")
            out.append(_cli(argv, job_dir, f"check{j}"))
        return out

    def check(self, state, job_dir):
        failed = 0
        for j, (lines, summary) in enumerate(state["expected"]):
            raw = _read(os.path.join(job_dir, f"check{j}.stdout"))
            got = raw.decode("utf-8", "replace").split("\n") if raw is not None else []
            if got[-1:] == [""]:
                got.pop()
            if len(got) != len(lines) + len(summary) or got[len(lines):] != summary:
                failed += len(lines)
                continue
            failed += sum(1 for a, b in zip(got, lines) if a != b)
        return failed


# ---------------------------------------------------------------------------
# long_trace: the library and three Until formulas on 250k-day signals.
# ---------------------------------------------------------------------------

def long_signals(signals: int, days: int, seed: int) -> np.ndarray:
    """Mean-reverting walks with planted +-(11..13) one-day excursions,
    rank-1 visits and 4..6-day missing runs, ending in a missing run and a
    flat tail, so that every formula's per-time verdicts are mixed."""
    rng = np.random.default_rng(seed)
    out = np.empty((signals, days), dtype=np.float64)
    for s in range(signals):
        noise = rng.normal(0.0, 1.0, size=days)
        x = np.empty(days)
        level = 30.0
        for t in range(days):
            level += 0.1 * (30.0 - level) + noise[t]
            x[t] = level
        x = np.round(np.maximum(x, 1.0), 3)
        body = days - 40
        for d in rng.integers(1, body, size=days // 400):
            m = round(float(rng.uniform(11.0, 13.0)), 3)
            x[d] = x[d] + m if rng.random() < 0.5 or x[d] - m < 1.0 else x[d] - m
        for d in rng.integers(1, body, size=max(1, days // 5000)):
            x[d] = 1.0
        for d in rng.integers(0, body - 6, size=max(1, days // 2000)):
            x[d : d + int(rng.integers(4, 7))] = -1.0
        x[body : body + 5] = -1.0
        x[body + 5 :] = 20.0
        out[s] = x
    return out


def horizon(f) -> float:
    """How many days past t the verdict at t can look (inf if unbounded)."""
    from stlrank.core.formula import (
        Atom, Eventually, FalseFormula, Globally, Not, TrueFormula, Until,
    )

    if isinstance(f, (Atom, TrueFormula, FalseFormula)):
        return 0.0
    if isinstance(f, Not):
        return horizon(f.operand)
    if isinstance(f, (Eventually, Globally)):
        return f.interval.hi + horizon(f.operand)
    if isinstance(f, Until):
        return f.interval.hi + max(horizon(f.left), horizon(f.right))
    return max(horizon(f.left), horizon(f.right))


def long_formulas():
    """(name, formula, strict) for the library and the Until formulas."""
    from stlrank import default_library, parse_formula

    out = [(s.name, s.formula, False) for s in default_library()]
    out += [(f"adhoc{j}", parse_formula(t), s) for j, (t, s, _) in enumerate(LONG_ADHOC)]
    return out


class LongTrace:
    name = "long_trace"

    def prepare(self, work, seed, sizes):
        from stlrank import eval_naive
        from stlrank.core.formula import channels_of

        days = sizes["days"]
        sig = long_signals(sizes["signals"], days, seed)
        path = os.path.join(work, "signals.npy")
        np.save(path, sig)
        rng = np.random.default_rng(seed + 1)
        tail = sizes["tail"]
        samples = {}
        expected = {}
        formulas = long_formulas()
        for s, row in enumerate(sig):
            for name, f, strict in formulas:
                h = horizon(f)
                grid = days - 1 if "d1(x)" in channels_of(f) else days
                # Unbounded windows look to the end of the trace, so only
                # times near the end keep the quadratic oracle bounded.
                first = grid - tail if math.isinf(h) else 0
                drawn = rng.integers(first, grid, size=sizes["samples"] - 2).tolist()
                times = sorted({first, grid - 1, *drawn})
                want = []
                for t in times:
                    # The verdict at t reads days t .. t + h only; the slice
                    # starts a day early so that d1(x) keeps a sample.
                    start = max(0, t - 1)
                    stop = days if math.isinf(h) else min(days, t + int(math.ceil(h)) + 2)
                    w = reference_traceset(row[start:stop])
                    want.append(bool(eval_naive(f, w, t - start, until_strict=strict)))
                key = f"s{s}/{name}"
                samples[key] = [int(t) for t in times]
                expected[key] = {"n": grid, "samples": want}
        samples_path = os.path.join(work, "samples.json")
        with open(samples_path, "w") as fh:
            json.dump(samples, fh)
        return {
            "input": path,
            "samples": samples_path,
            "expected": expected,
            "items": sizes["signals"] * days * len(formulas),
            "days": days,
            "digests": {},
            "forced_zero": forced_zero_days(sig),
            "sizes": {"signals": sizes["signals"], "days": days, "formulas": len(formulas)},
        }

    def steps(self, state, job_dir):
        return [{
            "kind": "long_trace",
            "input": state["input"],
            "samples": state["samples"],
            "adhoc": [[t, s] for t, s, _ in LONG_ADHOC],
            "out": os.path.join(job_dir, "verdicts.json"),
        }]

    def check(self, state, job_dir):
        raw = _read(os.path.join(job_dir, "verdicts.json"))
        got = json.loads(raw) if raw is not None else {}
        failed = 0
        for key, want in state["expected"].items():
            g = got.get(key)
            ok = (
                g is not None
                and g["n"] == want["n"]
                and g["samples"] == want["samples"]
                # Every job must also agree with the first on the whole array.
                and state["digests"].setdefault(key, g["digest"]) == g["digest"]
            )
            if not ok:
                failed += state["days"]
        return failed


# ---------------------------------------------------------------------------
# ingest_roundtrip: generate a CSV with labels, then k-means over it.
# ---------------------------------------------------------------------------

KMEANS_SEED = 7
KMEANS_MAX_ITER = 20


class IngestRoundtrip:
    name = "ingest_roundtrip"

    def prepare(self, work, seed, sizes):
        from stlrank import build, eval_naive
        from stlrank.analytics import cluster_kmeans
        from stlrank.ingest import load_dataset, write_csv

        n, k = sizes["records"], sizes["k"]
        ds = _generated(n, sizes["categories"], seed)
        ref = os.path.join(work, "reference.csv")
        write_csv(ds, ref)
        csv_bytes = _read(ref)
        loaded = load_dataset(ref)
        again = os.path.join(work, "reloaded.csv")
        write_csv(loaded, again)
        # Run-wide invariants; when one fails, every job fails those items.
        roundtrip_ok = _read(again) == csv_bytes
        labels = "product_id,planted_pattern\n" + "".join(
            f"{rec.product_id},{ds.planted[rec.product_id]}\n" for rec in ds.records
        )

        result = cluster_kmeans(loaded, k=k, seed=KMEANS_SEED, max_iter=KMEANS_MAX_ITER)
        hist = result.distortion_history
        included = sum(1 for rec in ds.records if any(p != -1.0 for p in rec.positions))
        sizes_k = [int((result.assignments == c).sum()) for c in range(k)]
        kmeans_ok = sum(sizes_k) == included and all(b <= a for a, b in zip(hist, hist[1:]))
        ditch, spike = build("ditch").formula, build("spike").formula
        lines, flagged = [], 0
        for c in range(k):
            w = reference_traceset(result.centroids[c])
            d, s = eval_naive(ditch, w), eval_naive(spike, w)
            flagged += int(d or s)
            lines.append(
                f"centroid {c}: size={sizes_k[c]}"
                f" ditch={'yes' if d else 'no'} spike={'yes' if s else 'no'}"
            )
        lines += [
            f"iterations: {result.iterations}",
            f"distortion: {hist[-1]:.4f}",
            f"centroids satisfying ditch or spike: {flagged}/{k}",
        ]
        days = result.centroids.shape[1]
        cent = [",".join(["centroid"] + [f"pos_{i}" for i in range(days)])]
        cent += [",".join([str(c)] + [f"{v:.6f}" for v in result.centroids[c]]) for c in range(k)]
        plot = ["# day " + " ".join(f"c{i}" for i in range(k))]
        plot += [
            " ".join([str(d)] + [f"{result.centroids[i, d]:.4f}" for i in range(k)])
            for d in range(days)
        ]
        return {
            "seed": seed,
            "records": n,
            "categories": sizes["categories"],
            "k": k,
            "roundtrip_ok": roundtrip_ok,
            "kmeans_ok": kmeans_ok,
            "csv": csv_bytes,
            "labels": labels.encode(),
            "kmeans_stdout": "\n".join(lines) + "\n",
            "centroids": "\n".join(cent) + "\n",
            "plot": "\n".join(plot) + "\n",
            "items": 2 * n,
            "forced_zero": forced_zero_days(rec.positions for rec in ds.records),
            "sizes": {"records": n, "categories": sizes["categories"], "k": k},
        }

    def steps(self, state, job_dir):
        j = lambda f: os.path.join(job_dir, f)  # noqa: E731
        return [
            _cli(["generate", "-o", j("generated.csv"), "--n", str(state["records"]),
                  "--mix", MIX_TEXT, "--seed", str(state["seed"]),
                  "--noise-sigma", str(NOISE_SIGMA), "--categories", str(state["categories"]),
                  "--labels"], job_dir, "generate"),
            _cli(["kmeans", "-i", j("generated.csv"), "--k", str(state["k"]),
                  "--seed", str(KMEANS_SEED), "--max-iter", str(KMEANS_MAX_ITER),
                  "-o", j("centroids.csv"), "--emit-plot-data", j("centroids_plot.txt")],
                 job_dir, "kmeans"),
        ]

    def check(self, state, job_dir):
        j = lambda f: os.path.join(job_dir, f)  # noqa: E731
        failed = 0
        gen_out = (
            f"wrote {state['records']} records to {j('generated.csv')}\n"
            f"wrote planted-pattern labels to {j('generated.labels.csv')}\n"
        )
        if (
            not state["roundtrip_ok"]
            or _read(j("generated.csv")) != state["csv"]
            or _read(j("generated.labels.csv")) != state["labels"]
            or _read(j("generate.stdout")) != gen_out.encode()
        ):
            failed += state["records"]
        if (
            not state["kmeans_ok"]
            or _read(j("kmeans.stdout")) != state["kmeans_stdout"].encode()
            # The expected centroid CSV has a header and exactly k rows.
            or _read(j("centroids.csv")) != state["centroids"].encode()
            or _read(j("centroids_plot.txt")) != state["plot"].encode()
        ):
            failed += state["records"]
        return failed


WORKLOADS = {w.name: w for w in (RatesLibrary(), CheckAdhoc(), LongTrace(), IngestRoundtrip())}
