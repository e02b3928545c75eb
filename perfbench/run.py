"""The stlrank benchmark.

Run from the root of a source checkout (the directory holding `src/stlrank`):

    python3 perfbench/run.py --workload rates_library --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run makes its inputs from the seed, computes the expected outputs with
the naive oracle, then runs jobs of the workload one after another, each
step of a job in a fresh worker process (`worker.py`), until `--seconds`
have passed. Every job's outputs are checked. The last line of standard
output is one JSON object: `correct`, `attempted` and `failed` items, and
the metrics. With `--trace 0` these are the end-to-end metrics:

    setup_s      median time for a fresh worker to import stlrank.cli and
                 build its parser, over every worker of the run
    job_s        median time of one job, from the first call into stlrank
                 to the last return, summed over the job's processes
    items_per_s  items of one job divided by job_s
    peak_rss_mb  median over jobs of the largest peak resident memory
                 (VmHWM) of its processes

The error rate, failed items divided by attempted ones, is printed by name
and carried in `failed`/`attempted`. With `--trace 1` the run alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones (see tracer.py) and `trace.overhead_ratio`. `--workload all` runs
every workload in turn and prints each one's metrics by name and unit.
Workloads, layers and the metric each layer should move are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

MIN_JOBS = 3
MIN_TRACED_JOBS = 2
SETUP_PROBES = 3
STEP_TIMEOUT_S = 150



class Run:
    """One workload's run: work directory, prepared state and samples."""

    def __init__(self, root, workload, seed, sizes=None):
        import workloads

        self.root = root
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.sizes = dict(workloads.DEFAULT_SIZES[workload], **(sizes or {}))
        base = os.path.join(root, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base)
        try:
            self.state = self.workload.prepare(self.work, seed, self.sizes)
        except BaseException:
            self.close()
            raise
        self.count = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:  # another run is still using it
            pass

    def step(self, step, job_dir, tag):
        """Run one step in a fresh worker and return its result record."""
        spec = os.path.join(job_dir, f"{tag}.step.json")
        step["result"] = os.path.join(job_dir, f"{tag}.result.json")
        if step.get("trace"):
            step["spans"] = os.path.join(job_dir, f"{tag}.spans.npz")
        with open(spec, "w") as fh:
            json.dump(step, fh)
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, spec],
                cwd=self.root,
                capture_output=True,
                text=True,
                timeout=STEP_TIMEOUT_S,
            )
            stderr, code = proc.stderr, proc.returncode
        except subprocess.TimeoutExpired:
            stderr, code = f"timed out after {STEP_TIMEOUT_S} s", None
        try:
            with open(step["result"]) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            result = {"setup_s": None, "job_s": None, "rc": None, "error": stderr or "no result"}
        if code != 0 and result["error"] is None:
            result["error"] = f"worker exited {code}: {stderr}"
        if result["error"] is None and result["rc"] != 0:
            result["error"] = f"command exited {result['rc']}: {stderr}"
        if result["error"] is not None:
            print(f"step {tag} failed: {result['error'].strip()}", file=sys.stderr)
        return result

    def job(self, trace=False):
        """Run and check one job; returns its samples."""
        self.count += 1
        job_dir = os.path.join(self.work, f"job{self.count}")
        os.makedirs(job_dir)
        t0 = time.perf_counter()
        steps, results = [], []
        for i, step in enumerate(self.workload.steps(self.state, job_dir)):
            steps.append(dict(step, trace=trace))
            results.append(self.step(steps[-1], job_dir, f"step{i}"))
        wall = time.perf_counter() - t0
        items = self.state["items"]
        broken = any(r["error"] is not None for r in results)
        failed = items if broken else min(items, self.workload.check(self.state, job_dir))
        job = {
            "job_s": None if broken else sum(r["job_s"] for r in results),
            "setup": [r["setup_s"] for r in results if r["setup_s"] is not None],
            "rss": max(r.get("peak_rss_mb", 0.0) for r in results),
            "attempted": items,
            "failed": failed,
            "wall": wall,
        }
        if trace and not broken:
            import tracer

            job["layers"] = tracer.summarise([s["spans"] for s in steps])
        shutil.rmtree(job_dir, ignore_errors=True)
        return job

    def probe_setup(self):
        job_dir = os.path.join(self.work, "probe")
        os.makedirs(job_dir, exist_ok=True)
        return self.step({"kind": "setup"}, job_dir, "setup")["setup_s"]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def measure(run, seconds):
    """End-to-end metrics of one untraced run."""
    setup = [run.probe_setup() for _ in range(SETUP_PROBES)]
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(run.job())
        elapsed = time.perf_counter() - t0
        if len(jobs) >= MIN_JOBS and elapsed + _median([j["wall"] for j in jobs]) > seconds:
            break
    for job in jobs:
        setup += job["setup"]
    job_s = _median([j["job_s"] for j in jobs])
    metrics = {
        "setup_s": _median(setup),
        "job_s": job_s,
        "items_per_s": run.state["items"] / job_s,
        "peak_rss_mb": _median([j["rss"] for j in jobs]),
    }
    notes = {
        "setup_s": f"median of {len([s for s in setup if s is not None])} worker starts",
        "job_s": f"median of {len(jobs)} jobs: "
        + " ".join(f"{j['job_s']:.3f}" for j in jobs if j["job_s"] is not None),
        "items_per_s": f"{run.state['items']} items per job",
        "peak_rss_mb": f"median of {len(jobs)} jobs",
    }
    return metrics, notes, jobs


def measure_traced(run, seconds):
    """Per-layer metrics of one run: untraced and traced jobs alternate."""
    plain, traced, jobs2 = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run.job())
        traced.append(run.job(trace=True))
        if run.workload.name == "rates_library":
            job_dir = os.path.join(run.work, f"jobs2-{len(jobs2)}")
            os.makedirs(job_dir)
            r = run.step({"kind": "jobs2", "input": run.state["input"]}, job_dir, "jobs2")
            jobs2.append(r["job_s"])
        elapsed = time.perf_counter() - t0
        per_pair = elapsed / len(plain)
        if len(plain) >= MIN_TRACED_JOBS and elapsed + per_pair > seconds:
            break
    layers = [j["layers"] for j in traced if "layers" in j]
    metrics = {}
    if layers:
        for name in layers[0]:
            metrics[name] = _median([m[name] for m in layers])
    metrics["ingest.derivative_days_forced_zero"] = run.state["forced_zero"]
    metrics["analytics.satisfaction_rates_jobs2_s"] = _median(jobs2) if jobs2 else 0.0
    metrics["trace.overhead_ratio"] = _median([j["job_s"] for j in traced]) / _median(
        [j["job_s"] for j in plain]
    )
    return metrics, plain + traced


def environment(run):
    import numpy
    from stlrank.core import kernels

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "backend": kernels.active_backend(),
        "commit": git_commit(run.root),
        "seed": run.seed,
        "workload": run.workload.name,
        "sizes": run.state["sizes"],
    }


def git_commit(root):
    """HEAD of the checkout, read from .git without walking up past it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(root, workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result line dict, env, notes).

    The metrics are the `per_layer` (trace) or `end_to_end` list of the
    checkout's BENCHMARK.json, in its order and with its units."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    run = Run(root, workload, seed, sizes)
    try:
        env = environment(run)
        if trace:
            metrics, jobs = measure_traced(run, seconds)
            notes = {}
        else:
            metrics, notes, jobs = measure(run, seconds)
    finally:
        run.close()
    unlisted = set(metrics) - {m["name"] for m in listed}
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    correct = failed == 0
    values = {}
    for m in listed:
        value = metrics.get(m["name"], math.nan)
        if not math.isfinite(value):  # no job produced it; JSON has no NaN
            value, correct = 0.0, False
        values[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}
    return result, env, notes


def print_summary(workload, result, env, notes):
    print(f"{workload} (seed {env['seed']}, sizes {json.dumps(env['sizes'])})")
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<44} {rate:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} items failed)")
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description="stlrank benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stlrank", "cli.py")):
        print("error: run from a stlrank checkout: src/stlrank/cli.py not found", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, env, notes = run_one(root, name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, result, env, notes)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
