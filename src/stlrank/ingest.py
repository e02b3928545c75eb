"""Product ranking datasets: records, file IO, traces, and a generator.

A record is one product's daily ranking positions over a fixed day grid
(14 days by default, days 0..13) plus three engagement counters. Positions
are reals >= 1, with -1 marking a day the product went unranked ("missing").
The impressions column is what some pipelines call searches.

CSV layout (header required, exactly these columns for the default grid):

    product_id,category,pos_0,...,pos_13,impressions,clicks,purchases

JSONL carries the same fields with the positions as an array. The readers
only decode (CSV text to numbers; a JSONL object, its keys, and positions
as a list of JSON numbers); `ProductRecord` checks every value, and the
row path both readers share prefixes any SchemaError with the row number.
Writers emit one canonical form, so load followed by write reproduces the
file byte for byte.

`position_channels` turns a record's positions, or a dataset's (records,
days) matrix, into the evaluable signals: channel "x" with the positions
verbatim (sentinels included) and channel "d1(x)" with the one-day
differences, one sample shorter. A difference that touches a
missing day is meaningless, so it is set to 0 and reported in the flag mask
returned by `derivative_values`; filter candidates first (`filter_complete`
or the miss properties) when that matters.

`generate` builds synthetic datasets from a pattern mix. Pattern counts per
category are exact (largest remainder), so planted-rate assertions are exact
at noise_sigma = 0. Patterns and their guarantees at sigma = 0:

    flat     constant level; satisfies flat_start(3, 1) and steady_state(3, 1)
    cold     strictly gains positions over days 0..4; satisfies cold_start(3)
    warm     strictly loses positions over days 0..4; satisfies warm_start(3)
    spiky    level start with a small alternating wiggle on days 0..4 (so the
             start is neither flat nor monotone), then one +-(11..13) one-day
             excursion at a uniform-random day in 5..12; satisfies exactly
             one of ditch(10, 2) / spike(10, 2)
    missing  one run of 4..6 consecutive missing days; violates no_long_miss(3)
    random   a clipped random walk with no guarantee

Counter means per pattern are configurable (GeneratorConfig.metric_means)
with defaults that make engagement differ visibly across patterns.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core.trace import Trace, TraceSet

__all__ = [
    "DAYS_DEFAULT",
    "Dataset",
    "DatasetError",
    "GeneratorConfig",
    "ProductRecord",
    "SchemaError",
    "derivative_values",
    "filter_complete",
    "generate",
    "load_dataset",
    "position_channels",
    "to_traceset",
    "traceset_from_positions",
    "write_csv",
    "write_jsonl",
    "write_labels",
]

DAYS_DEFAULT = 14

MISSING = -1.0

PATTERNS = ("flat", "cold", "warm", "spiky", "missing", "random")

_METRIC_MEANS_DEFAULT: Mapping[str, tuple[float, float, float]] = {
    # (impressions, clicks, purchases)
    "flat": (300.0, 30.0, 90.0),
    "cold": (250.0, 10.0, 35.0),
    "warm": (400.0, 5.0, 5.0),
    "spiky": (300.0, 5.0, 15.0),
    "missing": (220.0, 8.0, 20.0),
    "random": (280.0, 12.0, 25.0),
}


class DatasetError(Exception):
    """Base class for dataset failures."""


class SchemaError(DatasetError):
    """A file or record does not match the expected schema."""


@dataclass(frozen=True)
class ProductRecord:
    """One product's positions and engagement counters.

    Construction checks every value rule and raises SchemaError naming the
    record and field; positions are stored as a tuple of floats.
    """

    product_id: str
    category: str
    positions: tuple[float, ...]
    impressions: int
    clicks: int
    purchases: int

    def __post_init__(self) -> None:
        for name in ("product_id", "category"):
            if not isinstance(getattr(self, name), str):
                raise SchemaError(f"column {name!r}: not a string")
        if not self.product_id:
            raise SchemaError("empty product_id")
        if not self.category:
            raise SchemaError("empty category")
        positions = tuple(map(float, self.positions))
        object.__setattr__(self, "positions", positions)
        if not positions:
            raise SchemaError(f"record {self.product_id!r}: no positions")
        for i, p in enumerate(positions):
            if not (1.0 <= p < math.inf or p == MISSING):
                raise SchemaError(
                    f"record {self.product_id!r}: pos_{i} must be >= 1 or -1, got {p}"
                )
        for name in ("impressions", "clicks", "purchases"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SchemaError(
                    f"record {self.product_id!r}: {name} must be a non-negative integer,"
                    f" got {v!r}"
                )


class Dataset:
    """An ordered collection of records with unique product ids, all on one
    day grid (the same number of positions).

    `planted` optionally maps product_id to the generator pattern that
    produced the record; it is populated by `generate` and by loaders when a
    labels sidecar is read explicitly.
    """

    __slots__ = ("records", "planted")

    def __init__(
        self,
        records: Sequence[ProductRecord],
        planted: Mapping[str, str] | None = None,
    ) -> None:
        records = list(records)
        seen: set[str] = set()
        for rec in records:
            if rec.product_id in seen:
                raise SchemaError(f"duplicate product_id {rec.product_id!r}")
            seen.add(rec.product_id)
            if len(rec.positions) != len(records[0].positions):
                raise SchemaError(f"record {rec.product_id!r}: {len(rec.positions)} positions,"
                                  f" the first record has {len(records[0].positions)}")
        self.records = records
        self.planted = dict(planted) if planted is not None else None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def categories(self) -> list[str]:
        """Distinct categories in first-seen order."""
        return list(dict.fromkeys(rec.category for rec in self.records))

    def by_category(self) -> dict[str, list[ProductRecord]]:
        out: dict[str, list[ProductRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.category, []).append(rec)
        return out


# ---------------------------------------------------------------------------
# Traces.
# ---------------------------------------------------------------------------

def derivative_values(positions) -> tuple[np.ndarray, np.ndarray]:
    """One-day differences and a mask of differences touching a missing day.

    The day grid has unit spacing, so the discrete derivative at day i is
    positions[i+1] - positions[i], along the last axis of a row or a matrix.
    Differences adjacent to the -1 sentinel are forced to 0 and flagged.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim == 0 or pos.shape[-1] < 2:
        raise DatasetError("need at least two positions for a derivative")
    flagged = (pos[..., :-1] == MISSING) | (pos[..., 1:] == MISSING)
    diff = np.where(flagged, 0.0, np.diff(pos, axis=-1))
    return diff, flagged


def position_channels(positions) -> dict[str, np.ndarray]:
    """Channels "x" (the positions, days 0..n-1) and "d1(x)" (their one-day
    differences, days 0..n-2) of a row or a (records, days) matrix."""
    pos = np.asarray(positions, dtype=np.float64)
    return {"x": pos, "d1(x)": derivative_values(pos)[0]}


def traceset_from_positions(positions: Sequence[float]) -> TraceSet:
    """Channels "x" (days 0..n-1) and "d1(x)" (days 0..n-2) for a signal."""
    return TraceSet(
        Trace(name, np.arange(values.size, dtype=np.int64), values)
        for name, values in position_channels(positions).items()
    )


def to_traceset(rec: ProductRecord) -> TraceSet:
    """Evaluable signals for one record (see `traceset_from_positions`)."""
    return traceset_from_positions(rec.positions)


def filter_complete(ds: Dataset) -> Dataset:
    """Records with no missing days (used to mask out sentinel effects)."""
    kept = [rec for rec in ds.records if MISSING not in rec.positions]
    planted = None
    if ds.planted is not None:
        planted = {r.product_id: ds.planted[r.product_id] for r in kept if r.product_id in ds.planted}
    return Dataset(kept, planted)


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------

def _header(days: int) -> list[str]:
    return (
        ["product_id", "category"]
        + [f"pos_{i}" for i in range(days)]
        + ["impressions", "clicks", "purchases"]
    )


def _canonical_pos(p: float) -> int | float:
    """The written form of a position: integral values without a fraction."""
    return int(p) if p.is_integer() else p


def _csv_numbers(convert, cells: list[str], columns: list[str], kind: str) -> list:
    """`convert` (float or int) applied to each cell; SchemaError naming the
    first column whose text it rejects."""
    try:
        return list(map(convert, cells))
    except ValueError:
        for column, text in zip(columns, cells):
            try:
                convert(text)
            except ValueError:
                raise SchemaError(f"column {column!r}: not {kind}: {text!r}") from None
        raise


def _json_position(value, i: int) -> float:
    if type(value) in (int, float):  # bool is an int subclass, not a number here
        try:
            return float(value)
        except OverflowError:
            pass
    raise SchemaError(f"column 'pos_{i}': not a number: {value!r}")


def _read_records(rows: Iterable[tuple[int, object]], decode: Callable) -> Dataset:
    """The one row path of both readers: `decode` turns each raw row into
    `ProductRecord` fields, and a SchemaError from decoding or from the
    record's value checks is prefixed with the row number."""
    records: list[ProductRecord] = []
    for row_no, raw in rows:
        try:
            records.append(ProductRecord(*decode(raw)))
        except SchemaError as exc:
            raise SchemaError(f"row {row_no}: {exc}") from None
    return Dataset(records)


def _load_csv(path: str, days: int) -> Dataset:
    header = _header(days)
    pos_columns, counter_columns = header[2:2 + days], header[2 + days:]

    def decode(cells: list[str]) -> tuple:
        if len(cells) != len(header):
            raise SchemaError(f"expected {len(header)} columns, got {len(cells)}")
        positions = _csv_numbers(float, cells[2:2 + days], pos_columns, "a number")
        counters = _csv_numbers(int, cells[2 + days:], counter_columns, "an integer")
        return (cells[0], cells[1], positions, *counters)

    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise SchemaError(f"{path}: empty file")
        if first != header:
            raise SchemaError(
                f"{path}: bad header; expected {','.join(header)!r}"
                f" (pass days=N for a different grid length)"
            )
        return _read_records(
            ((row_no, cells) for row_no, cells in enumerate(reader, start=2) if cells), decode
        )


_JSONL_KEYS = ("product_id", "category", "positions", "impressions", "clicks", "purchases")


def _load_jsonl(path: str, days: int) -> Dataset:
    def decode(line: str) -> tuple:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise SchemaError("expected an object")
        missing = [k for k in _JSONL_KEYS if k not in obj]
        if missing:
            raise SchemaError(f"missing keys {missing}")
        positions = obj["positions"]
        if not isinstance(positions, list) or len(positions) != days:
            raise SchemaError(f"column 'positions': expected {days} values")
        positions = [_json_position(v, i) for i, v in enumerate(positions)]
        return (obj["product_id"], obj["category"], positions,
                obj["impressions"], obj["clicks"], obj["purchases"])

    with open(path, "r", encoding="utf-8") as fh:
        return _read_records(
            ((line_no, line) for line_no, line in enumerate(fh, start=1) if line.strip()), decode
        )


def load_dataset(path, fmt: str | None = None, days: int = DAYS_DEFAULT) -> Dataset:
    """Load a CSV or JSONL dataset; format inferred from the extension."""
    path = os.fspath(path)
    if fmt is None:
        fmt = "jsonl" if path.endswith((".jsonl", ".ndjson", ".json")) else "csv"
    if fmt == "csv":
        return _load_csv(path, days)
    if fmt == "jsonl":
        return _load_jsonl(path, days)
    raise DatasetError(f"unknown dataset format {fmt!r}")


def write_csv(ds: Dataset, path: str) -> None:
    days = len(ds.records[0].positions) if ds.records else DAYS_DEFAULT
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(days))
        writer.writerows(
            [rec.product_id, rec.category, *map(_canonical_pos, rec.positions),
             rec.impressions, rec.clicks, rec.purchases]
            for rec in ds.records
        )


def write_jsonl(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in ds.records:
            obj = {
                "product_id": rec.product_id,
                "category": rec.category,
                "positions": list(map(_canonical_pos, rec.positions)),
                "impressions": rec.impressions,
                "clicks": rec.clicks,
                "purchases": rec.purchases,
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def labels_path_for(dataset_path: str) -> str:
    base, _ = os.path.splitext(dataset_path)
    return base + ".labels.csv"


def write_labels(ds: Dataset, path: str) -> None:
    """Planted-pattern sidecar: product_id,planted_pattern per record."""
    if ds.planted is None:
        raise DatasetError("dataset carries no planted-pattern labels")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["product_id", "planted_pattern"])
        writer.writerows([rec.product_id, ds.planted[rec.product_id]] for rec in ds.records)


# ---------------------------------------------------------------------------
# Synthetic data.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    n_records: int
    pattern_mix: Mapping[str, float]
    category_count: int = 10
    noise_sigma: float = 0.0
    seed: int = 0
    metric_means: Mapping[str, tuple[float, float, float]] = field(
        default_factory=lambda: dict(_METRIC_MEANS_DEFAULT)
    )

    def __post_init__(self) -> None:
        if self.n_records < 1:
            raise DatasetError("n_records must be at least 1")
        if self.category_count < 1:
            raise DatasetError("category_count must be at least 1")
        if self.noise_sigma < 0:
            raise DatasetError("noise_sigma must be non-negative")
        mix = dict(self.pattern_mix)
        if not mix:
            raise DatasetError("pattern_mix must not be empty")
        for name, share in mix.items():
            if name not in PATTERNS:
                raise DatasetError(f"unknown pattern {name!r}; expected one of {PATTERNS}")
            if not (0.0 <= float(share) <= 1.0):
                raise DatasetError(f"pattern {name!r}: share {share} out of [0, 1]")
        total = sum(float(v) for v in mix.values())
        if abs(total - 1.0) > 1e-9:
            raise DatasetError(f"pattern_mix shares must sum to 1, got {total}")
        object.__setattr__(self, "pattern_mix", mix)
        means = dict(_METRIC_MEANS_DEFAULT)
        means.update(self.metric_means)
        object.__setattr__(self, "metric_means", means)


def _exact_counts(patterns: list[str], shares: list[float], total: int) -> list[int]:
    """Largest-remainder apportionment of `total` over the shares."""
    raw = [share * total for share in shares]
    counts = [int(math.floor(x)) for x in raw]
    short = total - sum(counts)
    remainders = sorted(
        range(len(patterns)), key=lambda i: (-(raw[i] - counts[i]), patterns[i])
    )
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def _positions_flat(rng: np.random.Generator) -> list[float]:
    level = round(float(rng.uniform(1.0, 100.0)), 3)
    return [level] * DAYS_DEFAULT


def _positions_cold(rng: np.random.Generator) -> list[float]:
    level = float(rng.uniform(30.0, 95.0))
    steps = rng.uniform(1.5, 3.0, size=4)
    pos = [level]
    for s in steps:
        pos.append(pos[-1] - float(s))
    pos += [pos[-1]] * (DAYS_DEFAULT - len(pos))
    return [round(p, 3) for p in pos]


def _positions_warm(rng: np.random.Generator) -> list[float]:
    level = float(rng.uniform(1.0, 60.0))
    steps = rng.uniform(1.5, 3.0, size=4)
    pos = [level]
    for s in steps:
        pos.append(pos[-1] + float(s))
    pos += [pos[-1]] * (DAYS_DEFAULT - len(pos))
    return [round(p, 3) for p in pos]


def _positions_spiky(rng: np.random.Generator) -> list[float]:
    level = round(float(rng.uniform(15.0, 95.0)), 3)
    pos = [level] * DAYS_DEFAULT
    # Alternating start wiggle: derivative +-2 over derivative days 0..3.
    pos[1] = level + 2.0
    pos[3] = level + 2.0
    day = int(rng.integers(5, 13))
    magnitude = round(float(rng.uniform(11.0, 13.0)), 3)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    pos[day] = level + sign * magnitude
    return pos


def _positions_missing(rng: np.random.Generator) -> list[float]:
    level = round(float(rng.uniform(1.0, 100.0)), 3)
    pos = [level] * DAYS_DEFAULT
    run = int(rng.integers(4, 7))
    start = int(rng.integers(0, DAYS_DEFAULT - run + 1))
    for i in range(start, start + run):
        pos[i] = MISSING
    return pos


def _positions_random(rng: np.random.Generator) -> list[float]:
    pos = [float(rng.uniform(1.0, 100.0))]
    for _ in range(DAYS_DEFAULT - 1):
        pos.append(max(1.0, pos[-1] + float(rng.normal(0.0, 3.0))))
    return [round(p, 3) for p in pos]


_PATTERN_BUILDERS = {
    "flat": _positions_flat,
    "cold": _positions_cold,
    "warm": _positions_warm,
    "spiky": _positions_spiky,
    "missing": _positions_missing,
    "random": _positions_random,
}


def generate(config: GeneratorConfig) -> Dataset:
    """Deterministic synthetic dataset for a pattern mix (see module docs).

    The same config always yields the same records, and writers are
    canonical, so generated files are reproducible byte for byte.
    """
    rng = np.random.default_rng(config.seed)
    mix_names = [p for p in PATTERNS if p in config.pattern_mix]
    mix_shares = [float(config.pattern_mix[p]) for p in mix_names]

    per_cat = [config.n_records // config.category_count] * config.category_count
    for i in range(config.n_records % config.category_count):
        per_cat[i] += 1

    records: list[ProductRecord] = []
    planted: dict[str, str] = {}
    idx = 0
    for cat_i, cat_n in enumerate(per_cat):
        counts = _exact_counts(mix_names, mix_shares, cat_n)
        category = f"c{cat_i}"
        for pattern, count in zip(mix_names, counts):
            builder = _PATTERN_BUILDERS[pattern]
            mean_impr, mean_clicks, mean_purch = config.metric_means[pattern]
            for _ in range(count):
                positions = builder(rng)
                if config.noise_sigma > 0:
                    noisy = []
                    for p in positions:
                        if p == MISSING:
                            noisy.append(p)
                        else:
                            noisy.append(
                                round(max(1.0, p + float(rng.normal(0.0, config.noise_sigma))), 3)
                            )
                    positions = noisy
                product_id = f"p{idx:06d}"
                idx += 1
                records.append(
                    ProductRecord(
                        product_id=product_id,
                        category=category,
                        positions=tuple(positions),
                        impressions=int(rng.poisson(mean_impr)),
                        clicks=int(rng.poisson(mean_clicks)),
                        purchases=int(rng.poisson(mean_purch)),
                    )
                )
                planted[product_id] = pattern
    return Dataset(records, planted)
