"""Outside-in tracer for the benchmark's traced run.

`install()` replaces each public stlrank function listed in TARGETS with a
wrapper that records a span (name, start, end, parent) and a few counts.
`from ... import` copies a function into the importing module, so the
wrapper is put at every binding site: every loaded stlrank module whose
namespace holds the original object (`cli.eval_fast`, `analytics.to_traceset`,
`stlrank.eval_fast`, ...). Calls that `core.semantics` makes through the
`kernels` module attributes are caught by replacing those attributes.

Spans stay in memory, in flat arrays, until `dump()` writes them out at the
end of the worker process. `summarise()` turns the dumps of one job's
processes into the per-layer metrics; a layer's self time is its spans'
duration minus the part covered by their child spans.

Only single-process runs (`jobs=1`) are traced: spans recorded in pool
children would be lost.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import struct
import sys
import time
from array import array

import numpy as np

# label -> (module, attribute[, class]); the label's first part is the layer.
TARGETS = {
    "cli.main": ("stlrank.cli", "main"),
    "ingest.load_dataset": ("stlrank.ingest", "load_dataset"),
    "ingest.generate": ("stlrank.ingest", "generate"),
    "ingest.write_csv": ("stlrank.ingest", "write_csv"),
    "ingest.to_traceset": ("stlrank.ingest", "to_traceset"),
    "ingest.traceset_from_positions": ("stlrank.ingest", "traceset_from_positions"),
    "parser.parse_formula": ("stlrank.parser", "parse_formula"),
    "props.build": ("stlrank.props", "build"),
    "props.default_library": ("stlrank.props", "default_library"),
    "core.semantics.eval_fast": ("stlrank.core.semantics", "eval_fast"),
    "core.kernels.window_any": ("stlrank.core.kernels", "window_any"),
    "core.kernels.window_all": ("stlrank.core.kernels", "window_all"),
    "core.kernels.until_scan": ("stlrank.core.kernels", "until_scan"),
    "core.kernels.shift_bounds": ("stlrank.core.kernels", "shift_bounds"),
    "analytics.satisfaction_rates": ("stlrank.analytics", "satisfaction_rates"),
    "analytics.metric_distribution": ("stlrank.analytics", "metric_distribution"),
    "analytics.rates_plot_data": ("stlrank.analytics", "rates_plot_data"),
    "analytics.cluster_kmeans": ("stlrank.analytics", "cluster_kmeans"),
    "analytics.RateTable.to_csv_text": ("stlrank.analytics", "to_csv_text", "RateTable"),
    "analytics.RateTable.to_text": ("stlrank.analytics", "to_text", "RateTable"),
    "analytics.MetricTable.to_csv_text": ("stlrank.analytics", "to_csv_text", "MetricTable"),
    "analytics.MetricTable.to_text": ("stlrank.analytics", "to_text", "MetricTable"),
}

KERNELS = ("window_any", "window_all", "until_scan", "shift_bounds")


class Tracer:
    """Spans and counts of one process."""

    def __init__(self) -> None:
        self.labels = list(TARGETS)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.records_loaded = 0
        self.record_ids: set[str] = set()
        self.kmeans_iterations = 0
        self.elements = dict.fromkeys(KERNELS, 0)
        self.computed_bytes = 0
        self.bounds_keys: set[tuple[bytes, float, float]] = set()

    def wrap(self, label: str, fn):
        nid = self.labels.index(label)
        count = _COUNTERS.get(label)
        clock = time.perf_counter
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for label, (modname, attr, *cls) in TARGETS.items():
            mod = importlib.import_module(modname)
            if cls:
                owner = getattr(mod, cls[0])
                setattr(owner, attr, self.wrap(label, getattr(owner, attr)))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(label, orig)
            for name, m in list(sys.modules.items()):
                if m is None or not (name == "stlrank" or name.startswith("stlrank.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def dump(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({
                "labels": self.labels,
                "records_loaded": self.records_loaded,
                "record_ids": sorted(self.record_ids),
                "kmeans_iterations": self.kmeans_iterations,
                "elements": self.elements,
                "computed_bytes": self.computed_bytes,
                # Digests, not hash(), so keys compare across processes.
                "bounds_keys": sorted(
                    hashlib.blake2b(t + struct.pack("dd", lo, hi), digest_size=8).hexdigest()
                    for t, lo, hi in self.bounds_keys
                ),
            })),
        )


def _count_kernel(kernel):
    def count(tr, args, result):
        tr.elements[kernel] += len(args[0])
        out = result if isinstance(result, tuple) else (result,)
        tr.computed_bytes += sum(a.nbytes for a in (*args, *out) if isinstance(a, np.ndarray))
        if kernel == "shift_bounds":
            tr.bounds_keys.add((np.asarray(args[0], dtype=np.float64).tobytes(), args[1], args[2]))
    return count


def _count_loaded(tr, args, result):
    tr.records_loaded += len(result)


def _count_record(tr, args, result):
    tr.record_ids.add(args[0].product_id)


def _count_kmeans(tr, args, result):
    tr.kmeans_iterations += result.iterations


_COUNTERS = {
    "ingest.load_dataset": _count_loaded,
    "ingest.to_traceset": _count_record,
    "analytics.cluster_kmeans": _count_kmeans,
    **{f"core.kernels.{k}": _count_kernel(k) for k in KERNELS},
}


# ---------------------------------------------------------------------------
# Summaries.
# ---------------------------------------------------------------------------

def _load(path):
    with np.load(path) as z:
        return {k: z[k] for k in ("name", "parent", "start", "end")}, json.loads(str(z["meta"]))


def summarise(paths) -> dict[str, float]:
    """Per-layer metrics of one job from the dumps of its processes."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    outer: dict[str, float] = {}  # time of spans not nested in the same group
    record_ids: set[str] = set()
    bounds_keys: set[str] = set()
    elements = dict.fromkeys(KERNELS, 0)
    loaded = iterations = computed = 0
    groups = {
        "ingest.to_traceset": ("ingest.to_traceset", "ingest.traceset_from_positions"),
        "props.build": ("props.build", "props.default_library"),
        "analytics.render": tuple(k for k in TARGETS if ".to_csv_text" in k or ".to_text" in k),
    }
    for path in paths:
        spans, meta = _load(path)
        labels = meta["labels"]
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_dur = dur - child
        for nid, label in enumerate(labels):
            mask = spans["name"] == nid
            calls[label] = calls.get(label, 0) + int(mask.sum())
            total[label] = total.get(label, 0.0) + float(dur[mask].sum())
            self_s[label] = self_s.get(label, 0.0) + float(self_dur[mask].sum())
        for group, members in groups.items():
            ids = np.array([labels.index(m) for m in members])
            inside = np.isin(spans["name"], ids)
            parent_inside = np.zeros_like(inside)
            parent_inside[has_parent] = inside[parent[has_parent]]
            outer[group] = outer.get(group, 0.0) + float(dur[inside & ~parent_inside].sum())
        record_ids.update(meta["record_ids"])
        bounds_keys.update(meta["bounds_keys"])
        for k in KERNELS:
            elements[k] += meta["elements"][k]
        loaded += meta["records_loaded"]
        iterations += meta["kmeans_iterations"]
        computed += meta["computed_bytes"]

    def ratio(a, b):
        return a / b if b else 0.0

    ev_calls = calls["core.semantics.eval_fast"]
    ev_total = total["core.semantics.eval_fast"]
    out = {
        "cli.main_self_s": self_s["cli.main"],
        "ingest.load_dataset_s": total["ingest.load_dataset"],
        "ingest.load_us_per_record": ratio(total["ingest.load_dataset"] * 1e6, loaded),
        "ingest.generate_s": total["ingest.generate"],
        "ingest.write_csv_s": total["ingest.write_csv"],
        "ingest.to_traceset_s": outer["ingest.to_traceset"],
        "ingest.to_traceset_calls_per_record": ratio(calls["ingest.to_traceset"], len(record_ids)),
        "parser.parse_formula_s": total["parser.parse_formula"],
        "parser.formulas_parsed": calls["parser.parse_formula"],
        "props.build_s": outer["props.build"],
        "core.semantics.eval_fast_s": ev_total,
        "core.semantics.eval_fast_self_s": self_s["core.semantics.eval_fast"],
        "core.semantics.eval_fast_calls": ev_calls,
        "core.semantics.eval_fast_us_per_call": ratio(ev_total * 1e6, ev_calls),
    }
    for k in KERNELS:
        label = f"core.kernels.{k}"
        out[f"{label}_s"] = total[label]
        out[f"{label}_calls"] = calls[label]
        out[f"{label}_elements"] = elements[k]
    out["core.kernels.computed_bytes"] = computed
    out["core.kernels.shift_bounds_distinct_ratio"] = ratio(
        len(bounds_keys), calls["core.kernels.shift_bounds"]
    )
    out.update({
        "analytics.satisfaction_rates_self_s": self_s["analytics.satisfaction_rates"],
        "analytics.metric_distribution_self_s": self_s["analytics.metric_distribution"],
        "analytics.rates_plot_data_s": total["analytics.rates_plot_data"],
        "analytics.render_s": outer["analytics.render"],
        "analytics.cluster_kmeans_s": total["analytics.cluster_kmeans"],
        "analytics.kmeans_iterations": iterations,
    })
    return out
