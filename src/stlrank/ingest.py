"""Product ranking datasets: records, file IO, traces, and a generator.

A record is one product's daily ranking positions over a fixed day grid
(14 days by default, days 0..13) plus three engagement counters. Positions
are reals >= 1, with -1 marking a day the product went unranked ("missing").
The impressions column is what some pipelines call searches.

CSV layout (header required, exactly these columns for the default grid):

    product_id,category,pos_0,...,pos_13,impressions,clicks,purchases

JSONL carries the same fields with the positions as an array. The file
extension picks the format, for reading and for writing: `.jsonl`, `.ndjson`
and `.json` mean JSONL, any other extension means CSV. The readers
only decode (CSV text to numbers; a JSONL object, its keys, and positions
as a list of JSON numbers). One row path, shared with `generate` and
`Dataset(records)`, checks every value, names the row in any SchemaError
and appends the row to the `Dataset` columns: ids, category codes, a
(records, days) position matrix and a (records, 3) counter matrix.
`Dataset.records` rebuilds `ProductRecord` objects from them on access.
Writers emit one canonical form, so load followed by write reproduces the
file byte for byte.

A CSV file goes first to a bulk path (`_bulk_csv`): one `np.loadtxt` pass
over the numeric cells, the value rules checked over whole columns. It never
raises; a file it cannot take as it stands (a quote, a carriage return, a
blank line, an odd cell, a rule broken) goes to the row path, which gives
the result or the error text.

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

Counter means per pattern are fixed, and make engagement differ visibly
across patterns.
"""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from dataclasses import dataclass
from itertools import chain, compress
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
    "write_dataset",
    "write_jsonl",
    "write_labels",
]

DAYS_DEFAULT = 14

MISSING = -1.0

PATTERNS = ("flat", "cold", "warm", "spiky", "missing", "random")

_METRIC_MEANS: Mapping[str, tuple[float, float, float]] = {
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


COUNTERS = ("impressions", "clicks", "purchases")


def _check_record(product_id, category, positions, counters) -> tuple[float, ...]:
    """Every value rule of one record, in order (SchemaError naming the
    record and field); returns the positions as floats."""
    for name, value in (("product_id", product_id), ("category", category)):
        if not isinstance(value, str):
            raise SchemaError(f"column {name!r}: not a string")
    if not product_id:
        raise SchemaError("empty product_id")
    if not category:
        raise SchemaError("empty category")
    positions = tuple(map(float, positions))
    if not positions:
        raise SchemaError(f"record {product_id!r}: no positions")
    for i, p in enumerate(positions):
        if not (1.0 <= p < math.inf or p == MISSING):
            raise SchemaError(f"record {product_id!r}: pos_{i} must be >= 1 or -1, got {p}")
    for name, v in zip(COUNTERS, counters):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(
                f"record {product_id!r}: {name} must be a non-negative integer, got {v!r}"
            )
        if v >= 2**63:  # the counter column is int64
            raise SchemaError(f"record {product_id!r}: {name} must be below 2**63, got {v}")
    return positions


@dataclass(frozen=True)
class ProductRecord:
    """One product's positions and engagement counters. Construction checks
    every value rule (`_check_record`); positions are stored as a tuple of floats."""

    product_id: str
    category: str
    positions: tuple[float, ...]
    impressions: int
    clicks: int
    purchases: int

    def __post_init__(self) -> None:
        counters = (self.impressions, self.clicks, self.purchases)
        positions = _check_record(self.product_id, self.category, self.positions, counters)
        object.__setattr__(self, "positions", positions)


class Dataset:
    """Records with unique product ids on one day grid, stored as columns:
    `ids` (a list of str), `categories` (names in first-seen order),
    `category_codes` ((R,) int64 indexes into `categories`), `positions`
    ((R, D) float64) and `counters` ((R, 3) int64: impressions, clicks,
    purchases). `records` rebuilds the records from them on each access.
    `Dataset(records)` checks each record as the loaders do, numbering rows
    from 1; with no records, `positions` is (0, DAYS_DEFAULT). `planted`
    optionally maps product_id to its generator pattern.
    """

    __slots__ = ("ids", "categories", "category_codes", "positions", "counters", "planted")

    def __init__(
        self, records: Iterable[ProductRecord] = (), planted: Mapping[str, str] | None = None
    ) -> None:
        rows = ((r.product_id, r.category, r.positions, r.impressions, r.clicks, r.purchases)
                for r in records)
        self._fill(_read_rows(enumerate(rows, start=1)), planted)

    @classmethod
    def _from_columns(cls, columns: tuple, planted: Mapping[str, str] | None = None) -> Dataset:
        ds = cls.__new__(cls)
        ds._fill(columns, planted)
        return ds

    def _fill(self, columns: tuple, planted: Mapping[str, str] | None) -> None:
        self.ids, self.categories, self.category_codes, self.positions, self.counters = columns
        self.planted = dict(planted) if planted is not None else None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.records)

    @property
    def records(self) -> list[ProductRecord]:
        """The records, built from the columns on each access."""
        return [
            ProductRecord(pid, self.categories[code], pos, *counts)
            for pid, code, pos, counts in zip(self.ids, self.category_codes.tolist(),
                                              self.positions.tolist(), self.counters.tolist())
        ]


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
    """Records with no missing days (used to mask out sentinel effects). A
    category left with no records is dropped; the others keep the order in
    which the remaining records first name them."""
    kept = ~(ds.positions == MISSING).any(axis=1)
    ids = list(compress(ds.ids, kept))
    order = list(dict.fromkeys(ds.category_codes[kept].tolist()))
    recode = np.zeros(len(ds.categories), dtype=np.int64)
    recode[order] = np.arange(len(order))
    planted = None if ds.planted is None else {
        pid: ds.planted[pid] for pid in ids if pid in ds.planted}
    columns = (ids, [ds.categories[c] for c in order],
               recode[ds.category_codes[kept]], ds.positions[kept], ds.counters[kept])
    return Dataset._from_columns(columns, planted)


# ---------------------------------------------------------------------------
# File formats.
# ---------------------------------------------------------------------------

def _header(days: int) -> list[str]:
    return ["product_id", "category", *(f"pos_{i}" for i in range(days)), *COUNTERS]


def _numbers(convert, values: list, columns: list[str], kind: str) -> list:
    """`convert` applied to each value; SchemaError naming the first column
    whose value it rejects."""
    try:
        return list(map(convert, values))
    except (ValueError, OverflowError):
        for column, value in zip(columns, values):
            try:
                convert(value)
            except (ValueError, OverflowError):
                raise SchemaError(f"column {column!r}: not {kind}: {value!r}") from None
        raise


def _json_number(value) -> float:
    if type(value) not in (int, float):  # bool is an int subclass, not a number here
        raise ValueError(value)
    return float(value)


def _read_rows(
    rows: Iterable[tuple[int, object]], decode: Callable = tuple, days: int = DAYS_DEFAULT
) -> tuple:
    """The `Dataset` columns of `rows`: the one row path of the loaders,
    `generate` and `Dataset(records)`. `decode` turns each raw row into
    record fields (rows that are fields already pass as they are),
    `_check_record` checks them, and any SchemaError, also for a repeated
    id or a different number of positions, names the row. The first row
    sets the day count; with no rows, the positions are (0, `days`)."""
    ids: dict[str, None] = {}  # an ordered set
    category_index: dict[str, int] = {}
    codes, positions, counters = array("q"), array("d"), array("q")
    for row_no, raw in rows:
        try:
            product_id, category, pos, *counts = decode(raw)
            pos = _check_record(product_id, category, pos, counts)
            if product_id in ids:
                raise SchemaError(f"duplicate product_id {product_id!r}")
            if len(pos) != days and ids:
                raise SchemaError(f"record {product_id!r}: {len(pos)} positions,"
                                  f" the first record has {days}")
        except SchemaError as exc:
            raise SchemaError(f"row {row_no}: {exc}") from None
        days = len(pos)
        ids[product_id] = None
        codes.append(category_index.setdefault(category, len(category_index)))
        positions.extend(pos)
        counters.extend(counts)
    return (list(ids), list(category_index), np.frombuffer(codes, dtype=np.int64),
            np.frombuffer(positions).reshape(len(ids), days),
            np.frombuffer(counters, dtype=np.int64).reshape(len(ids), len(COUNTERS)))


# The characters a numeric cell may hold on the bulk CSV path. numpy's
# integer parser reads "5\x1c" as 5 and "5Ǿ5" as 5125, where int() fails.
_NUMERIC_BYTES = b"0123456789.+-eE,\n"


def _bulk_csv(fh, days: int) -> tuple | None:
    """The `Dataset` columns of the CSV file `fh`: the numeric cells parsed
    by one `np.loadtxt` pass, the value rules of `_check_record` checked as
    column predicates. None, for the row path to decide, when the header is
    not `_header(days)` and a newline or no row follows it; a line holds a
    quote, a carriage return or no text after its second comma, or is longer
    than `csv.field_size_limit()`; a numeric cell holds a character outside
    0-9 . + - e E or `loadtxt` rejects one; a rule fails; or an id repeats."""
    if days < 1:
        return None
    ids, category_index, codes = [], {}, array("q")
    field_limit = csv.field_size_limit()

    def numeric_cells(lines):
        for line in lines:
            product_id, category, tail = line.split(",", 2)
            # loadtxt would skip an empty tail. The charset check also finds a
            # carriage return, since it ends a line.
            if (tail in ("", "\n") or '"' in line or len(line) > field_limit
                    or tail.encode().translate(None, _NUMERIC_BYTES)):
                raise ValueError
            ids.append(product_id)
            codes.append(category_index.setdefault(category, len(category_index)))
            yield tail

    dtype = [("positions", np.float64, (days,)), ("counters", np.int64, (len(COUNTERS),))]
    try:  # a ValueError, UnicodeDecodeError included, leaves the file to the row path
        if fh.readline() != ",".join(_header(days)) + "\n":
            return None
        first = fh.readline()
        if not first:  # loadtxt would warn that it found no data
            return None
        table = np.loadtxt(numeric_cells(chain([first], fh)), dtype=dtype, delimiter=",",
                           comments=None, ndmin=1)
    except ValueError:
        return None
    positions = np.ascontiguousarray(table["positions"])
    counters = np.ascontiguousarray(table["counters"])
    if not (np.all(((positions >= 1.0) & (positions < math.inf)) | (positions == MISSING))
            and np.all(counters >= 0) and all(ids) and "" not in category_index
            and len(set(ids)) == len(ids)):
        return None
    return (ids, list(category_index), np.frombuffer(codes, dtype=np.int64), positions,
            counters)


def _csv_rows(fh, days: int) -> tuple:
    """The `Dataset` columns of the CSV file `fh`, read and checked row by row."""
    header = _header(days)
    pos_columns, counter_columns = header[2:2 + days], header[2 + days:]

    def decode(cells: list[str]) -> tuple:
        if len(cells) != len(header):
            raise SchemaError(f"expected {len(header)} columns, got {len(cells)}")
        positions = _numbers(float, cells[2:2 + days], pos_columns, "a number")
        counters = _numbers(int, cells[2 + days:], counter_columns, "an integer")
        return (cells[0], cells[1], positions, *counters)

    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None:
        raise SchemaError(f"{fh.name}: empty file")
    if first != header:
        raise SchemaError(
            f"{fh.name}: bad header; expected {','.join(header)!r}"
            f" (pass days=N for a different grid length)"
        )
    return _read_rows(
        ((row_no, cells) for row_no, cells in enumerate(reader, start=2) if cells),
        decode, days,
    )


def _load_csv(path: str, days: int) -> Dataset:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        columns = _bulk_csv(fh, days)
        if columns is None:
            fh.seek(0)
            columns = _csv_rows(fh, days)
    return Dataset._from_columns(columns)


_JSONL_KEYS = ("product_id", "category", "positions", "impressions", "clicks", "purchases")


def _load_jsonl(path: str, days: int) -> Dataset:
    pos_columns = _header(days)[2:2 + days]

    def decode(line: str) -> tuple:
        try:
            obj = json.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an int too long to convert
            raise SchemaError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise SchemaError("expected an object")
        missing = [k for k in _JSONL_KEYS if k not in obj]
        if missing:
            raise SchemaError(f"missing keys {missing}")
        positions = obj["positions"]
        if not isinstance(positions, list) or len(positions) != days:
            raise SchemaError(f"column 'positions': expected {days} values")
        # Checking the types first leaves float as the only call per entry.
        convert = float if {*map(type, positions)} <= {int, float} else _json_number
        return (obj["product_id"], obj["category"],
                _numbers(convert, positions, pos_columns, "a number"),
                obj["impressions"], obj["clicks"], obj["purchases"])

    with open(path, "r", encoding="utf-8") as fh:
        return Dataset._from_columns(_read_rows(
            ((line_no, line) for line_no, line in enumerate(fh, start=1) if line.strip()),
            decode, days,
        ))


def _is_jsonl(path) -> bool:
    """The format rule: .jsonl, .ndjson and .json files are JSONL, any other is CSV."""
    return os.fspath(path).endswith((".jsonl", ".ndjson", ".json"))


def load_dataset(path, *, days: int = DAYS_DEFAULT) -> Dataset:
    """Load a CSV or JSONL dataset, the format chosen by `_is_jsonl`."""
    return (_load_jsonl if _is_jsonl(path) else _load_csv)(os.fspath(path), days)


def write_dataset(ds: Dataset, path: str) -> None:
    """Write a CSV or JSONL dataset, the format chosen by `_is_jsonl`."""
    (write_jsonl if _is_jsonl(path) else write_csv)(ds, path)


def _rows_out(ds: Dataset):
    """(product_id, category, positions, counters) per record, with integral
    positions written without a fraction."""
    return zip(
        ds.ids,
        [ds.categories[c] for c in ds.category_codes.tolist()],
        ([int(p) if p.is_integer() else p for p in row] for row in ds.positions.tolist()),
        ds.counters.tolist(),
    )


def write_csv(ds: Dataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(ds.positions.shape[1]))
        writer.writerows(
            [pid, category, *positions, *counts]
            for pid, category, positions, counts in _rows_out(ds)
        )


def write_jsonl(ds: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pid, category, positions, counts in _rows_out(ds):
            obj = {"product_id": pid, "category": category, "positions": positions,
                   **dict(zip(COUNTERS, counts))}
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
        writer.writerows([pid, ds.planted[pid]] for pid in ds.ids)


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


def _positions_trend(rng: np.random.Generator, low: float, high: float, sign: float):
    """A level in [low, high), four steps of 1.5..3 in the direction of
    `sign` (-1 gains positions, +1 loses them), then flat."""
    pos = [float(rng.uniform(low, high))]
    for s in rng.uniform(1.5, 3.0, size=4):
        pos.append(pos[-1] + sign * float(s))
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
    "cold": lambda rng: _positions_trend(rng, 30.0, 95.0, -1.0),
    "warm": lambda rng: _positions_trend(rng, 1.0, 60.0, 1.0),
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

    rows: list[tuple] = []
    planted: dict[str, str] = {}
    for cat_i, cat_n in enumerate(per_cat):
        counts = _exact_counts(mix_names, mix_shares, cat_n)
        category = f"c{cat_i}"
        for pattern, count in zip(mix_names, counts):
            builder = _PATTERN_BUILDERS[pattern]
            mean_impr, mean_clicks, mean_purch = _METRIC_MEANS[pattern]
            for _ in range(count):
                positions = builder(rng)
                if config.noise_sigma > 0:
                    positions = [
                        p if p == MISSING
                        else round(max(1.0, p + float(rng.normal(0.0, config.noise_sigma))), 3)
                        for p in positions
                    ]
                product_id = f"p{len(rows):06d}"
                rows.append((product_id, category, positions, int(rng.poisson(mean_impr)),
                             int(rng.poisson(mean_clicks)), int(rng.poisson(mean_purch))))
                planted[product_id] = pattern
    return Dataset._from_columns(_read_rows(enumerate(rows, start=1)), planted)
