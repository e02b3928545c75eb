"""The benchmark's hooks into stlrank resolve.

`perfbench/tracer.py` wraps every entry of its TARGETS table and raises
AttributeError on one that is gone, and `perfbench/worker.py` calls the
public API below, and `perfbench/workloads.py` builds its oracles' trace
sets itself; a rename that every other test accepts would still break
`perfbench/run.py --trace 1`. The benchmark lives outside the package, so
these tests read its tables and run its oracles on small inputs rather than
run it.
"""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

import stlrank
import stlrank.cli
from stlrank.analytics import verdict_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    classes = set()
    for label, (modname, attr, *cls) in tracer.TARGETS.items():
        owner = importlib.import_module(modname)
        if cls:
            owner = getattr(owner, cls[0])
            classes.add(cls[0])
        assert callable(getattr(owner, attr)), label
    assert classes == {"RateTable", "MetricTable"}


def test_the_worker_calls_resolve():
    w = stlrank.traceset_from_positions([5.0, 4.0, 9.0])
    verdict = stlrank.eval_fast(stlrank.parse_formula("F[0,1](d1(x) > 2)"), w, until_strict=False)
    assert verdict.per_time.tolist() == [True, True]
    assert "jobs" in inspect.signature(stlrank.satisfaction_rates).parameters
    for name in ("default_library", "load_dataset"):
        assert callable(getattr(stlrank, name)), name
    for name in ("main", "build_parser"):
        assert callable(getattr(stlrank.cli, name)), name


def test_the_workload_flags_are_cli_options():
    """Every string constant of the workloads that starts with "-" is a
    flag the CLI still accepts, so removing an option the benchmark passes
    fails here rather than only in a benchmark run."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    flags = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith("-")}
    parser = stlrank.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for p in sub.choices.values() for a in p._actions for s in a.option_strings}
    assert len(flags) >= 14
    assert flags <= options, sorted(flags - options)


def test_the_workload_oracles_run(monkeypatch, tmp_path):
    """perfbench's oracles build their own trace sets for `eval_naive`; on a
    small generated dataset they agree with `verdict_matrix`, and
    `long_trace`'s input and expectations build."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ds = stlrank.generate(stlrank.GeneratorConfig(
        n_records=60, pattern_mix=workloads.MIX, category_count=4,
        noise_sigma=workloads.NOISE_SIGMA, seed=3))
    formulas = [(spec.formula, False) for spec in stlrank.default_library()]
    formulas += [(stlrank.parse_formula(text), strict) for text, strict, _ in workloads.ADHOC]
    want = np.column_stack([verdict_matrix(ds.positions, [f], until_strict=strict)[:, 0]
                            for f, strict in formulas])
    assert np.array_equal(workloads.naive_verdicts(ds, formulas), want)
    state = workloads.LongTrace().prepare(
        tmp_path, 1, {"signals": 1, "days": 300, "samples": 4, "tail": 30})
    assert state["items"] == 300 * len(workloads.long_formulas())
