"""One benchmark step in a fresh process.

    python3 perfbench/worker.py STEP.json

STEP.json names the step and the file to write the result to. The worker
first imports `stlrank.cli` from `src/` and builds its argument parser,
which every CLI call pays (`setup_s`); then it runs the step and times it
from the first call into stlrank to the last return (`job_s`). Step kinds:

* `cli`: `stlrank.cli.main(argv)` with stdout captured to a file.
* `long_trace`: `traceset_from_positions` and `eval_fast` for the library
  and the Until formulas on each signal, through the public `stlrank` API.
* `jobs2`: `satisfaction_rates(..., jobs=2)` on a dataset loaded beforehand.
* `setup`: nothing after the import.

With `"trace": true` the tracer wraps stlrank's public functions before the
step and writes the spans next to the result.
"""

import os
import sys
import time

# Only modules the interpreter has already loaded come before the clock, so
# setup_s is what a `stlrank` command pays before it can parse its arguments.
_T0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import stlrank.cli  # noqa: E402

stlrank.cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402


def run_cli(step):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t1 = time.perf_counter()
        rc = stlrank.cli.main(step["argv"])
        t2 = time.perf_counter()
    with open(step["stdout"], "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    return t2 - t1, rc


def run_long_trace(step):
    signals = np.load(step["input"])
    with open(step["samples"]) as fh:
        samples = json.load(fh)
    t1 = time.perf_counter()
    formulas = [(s.name, s.formula, False) for s in stlrank.default_library()]
    formulas += [
        (f"adhoc{j}", stlrank.parse_formula(text), strict)
        for j, (text, strict) in enumerate(step["adhoc"])
    ]
    verdicts = []
    for s, row in enumerate(signals):
        w = stlrank.traceset_from_positions(row)
        for name, f, strict in formulas:
            v = stlrank.eval_fast(f, w, until_strict=strict)
            verdicts.append((f"s{s}/{name}", v.per_time))
    t2 = time.perf_counter()
    out = {
        key: {
            "n": int(per_time.size),
            "samples": [bool(per_time[t]) for t in samples[key]],
            "digest": hashlib.sha1(np.packbits(per_time).tobytes()).hexdigest(),
        }
        for key, per_time in verdicts
    }
    with open(step["out"], "w") as fh:
        json.dump(out, fh)
    return t2 - t1, 0


def run_jobs2(step):
    ds = stlrank.load_dataset(step["input"])
    specs = stlrank.default_library()
    t1 = time.perf_counter()
    stlrank.satisfaction_rates(ds, specs, jobs=2)
    return time.perf_counter() - t1, 0


def peak_rss_mb():
    """Peak resident memory of this process in MiB.

    Linux carries the spawning process's high-water mark into ru_maxrss
    across exec, so run.py's own memory would leak into it; VmHWM counts
    only this process's address space."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RUNNERS = {
    "cli": run_cli,
    "long_trace": run_long_trace,
    "jobs2": run_jobs2,
    "setup": lambda step: (0.0, 0),
}


def main() -> int:
    with open(sys.argv[1]) as fh:
        step = json.load(fh)
    recorder = None
    if step.get("trace"):
        recorder = tracer.Tracer()
        recorder.install()
    result = {"setup_s": SETUP_S, "job_s": None, "rc": None, "error": None}
    try:
        result["job_s"], result["rc"] = RUNNERS[step["kind"]](step)
    except Exception:  # run.py counts every item of this job as failed
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        recorder.dump(step["spans"])
    with open(step["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
