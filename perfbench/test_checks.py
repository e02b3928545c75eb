"""The benchmark's output checks cannot pass vacuously.

Each test runs one small job of a workload through the real worker
processes, checks that its outputs pass, corrupts one output byte or one
verdict, and expects failed items. Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402

SMALL = {
    "rates_library": {"records": 120, "categories": 4},
    "check_adhoc": {"records": 120, "categories": 4},
    "long_trace": {"signals": 2, "days": 3000},
    "ingest_roundtrip": {"records": 300, "categories": 4, "k": 4},
}


@pytest.fixture
def small_run(request):
    r = run.Run(ROOT, request.param, seed=5, sizes=SMALL[request.param])
    yield r
    r.close()


def run_steps(r):
    job_dir = os.path.join(r.work, "job")
    os.makedirs(job_dir)
    for i, step in enumerate(r.workload.steps(r.state, job_dir)):
        assert r.step(dict(step), job_dir, f"step{i}")["error"] is None
    return job_dir


def flip_last_digit(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = max(k for k, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(data)


def flip_first_verdict_line(path):
    with open(path) as fh:
        text = fh.read()
    if "\tsatisfied" in text.split("\n", 1)[0]:
        text = text.replace("\tsatisfied", "\tviolated", 1)
    else:
        text = text.replace("\tviolated", "\tsatisfied", 1)
    with open(path, "w") as fh:
        fh.write(text)


def flip_one_sample(path):
    with open(path) as fh:
        got = json.load(fh)
    entry = next(iter(got.values()))
    entry["samples"][0] = not entry["samples"][0]
    with open(path, "w") as fh:
        json.dump(got, fh)


CORRUPTIONS = [
    ("rates_library", "rates.csv", flip_last_digit),
    ("rates_library", "rates_plot.txt", flip_last_digit),
    ("rates_library", "metrics.csv", flip_last_digit),
    ("check_adhoc", "check0.stdout", flip_first_verdict_line),
    ("check_adhoc", "check5.stdout", flip_last_digit),
    ("long_trace", "verdicts.json", flip_one_sample),
    ("ingest_roundtrip", "generated.csv", flip_last_digit),
    ("ingest_roundtrip", "generated.labels.csv", flip_last_digit),
    ("ingest_roundtrip", "kmeans.stdout", flip_last_digit),
    ("ingest_roundtrip", "centroids.csv", flip_last_digit),
    ("ingest_roundtrip", "centroids_plot.txt", flip_last_digit),
]


@pytest.mark.parametrize(
    "small_run, name, corrupt",
    CORRUPTIONS,
    indirect=["small_run"],
    ids=[f"{w}-{n}" for w, n, _ in CORRUPTIONS],
)
def test_one_corrupted_output_fails_items(small_run, name, corrupt):
    job_dir = run_steps(small_run)
    assert small_run.workload.check(small_run.state, job_dir) == 0
    corrupt(os.path.join(job_dir, name))
    assert small_run.workload.check(small_run.state, job_dir) > 0


@pytest.mark.parametrize("small_run", ["check_adhoc"], indirect=True)
def test_one_wrong_verdict_fails_exactly_one_item(small_run):
    job_dir = run_steps(small_run)
    flip_first_verdict_line(os.path.join(job_dir, "check0.stdout"))
    assert small_run.workload.check(small_run.state, job_dir) == 1


@pytest.mark.parametrize("small_run", ["rates_library"], indirect=True)
def test_failing_command_fails_every_item(small_run):
    small_run.state["input"] = os.path.join(small_run.work, "absent.csv")
    job = small_run.job()
    assert job["failed"] == job["attempted"] > 0


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    plain, _, _ = run.run_one(ROOT, "long_trace", 5, 0.1, False, SMALL["long_trace"])
    traced, _, _ = run.run_one(ROOT, "long_trace", 5, 0.1, True, SMALL["long_trace"])
    assert plain["correct"] and traced["correct"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == e2e
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers


def test_tracer_wraps_every_binding_site():
    code = """
import stlrank.cli, tracer
tracer.Tracer().install()
import stlrank, stlrank.analytics as an, stlrank.cli as cli, stlrank.core.kernels as k
sites = [
    cli.main, cli.eval_fast, cli.load_dataset, cli.parse_formula, cli.build,
    cli.default_library, cli.generate, cli.write_csv, cli.traceset_from_positions,
    cli.satisfaction_rates, cli.metric_distribution, cli.rates_plot_data,
    cli.cluster_kmeans, an.eval_fast, an.to_traceset, stlrank.eval_fast,
    stlrank.traceset_from_positions, stlrank.default_library, stlrank.parse_formula,
    stlrank.ingest.traceset_from_positions, stlrank.props.build, k.window_any,
    k.window_all, k.until_scan, k.shift_bounds, an.RateTable.to_csv_text,
    an.MetricTable.to_text,
]
missing = [f.__qualname__ for f in sites if not hasattr(f, "__wrapped__")]
assert not missing, missing
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_trace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
