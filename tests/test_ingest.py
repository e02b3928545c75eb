import csv
import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stlrank import (
    Dataset,
    DatasetError,
    GeneratorConfig,
    ProductRecord,
    SchemaError,
    build,
    derivative_values,
    eval_fast,
    filter_complete,
    generate,
    load_dataset,
    position_channels,
    satisfaction_rates,
    to_traceset,
    traceset_from_positions,
    write_csv,
    write_jsonl,
)
from stlrank import ingest
from stlrank.ingest import (
    PATTERNS,
    _bulk_csv,
    _bulk_jsonl,
    _csv_rows,
    _exact_counts,
    _jsonl_rows,
    labels_path_for,
    write_dataset,
    write_labels,
)

MIX = {"cold": 0.3, "flat": 0.5, "spiky": 0.2}


def record(positions, pid="p1", category="c0", impressions=10, clicks=1, purchases=0):
    return ProductRecord(pid, category, tuple(positions), impressions, clicks, purchases)


def test_record_validation():
    record([1.0] * 14)
    record([-1.0] * 14)
    with pytest.raises(SchemaError):
        record([0.5] + [1.0] * 13)
    with pytest.raises(SchemaError):
        record([-2.0] + [1.0] * 13)
    with pytest.raises(SchemaError):
        record([1.0] * 14, impressions=-1)
    with pytest.raises(SchemaError):
        record([1.0] * 14, clicks=1.5)
    with pytest.raises(SchemaError):
        record([1.0] * 14, pid="")
    with pytest.raises(SchemaError, match="'product_id': not a string"):
        record([1.0] * 14, pid=7)
    with pytest.raises(SchemaError, match="'category': not a string"):
        record([1.0] * 14, category=None)
    # Ids and categories must encode as UTF-8, so that the writers can write them.
    with pytest.raises(SchemaError, match=r"^column 'product_id': not UTF-8: '\\ud800'$"):
        record([1.0] * 14, pid="p\ud800")
    with pytest.raises(SchemaError, match="^column 'category': not UTF-8: byte 0xff$"):
        record([1.0] * 14, category="c\udcff")
    # A string is not split into characters: "12" is not [1.0, 2.0].
    for positions in (["a"], [1.0, None], [None], None, 5.0, "1234", b"12", bytearray(b"12")):
        with pytest.raises(SchemaError, match="'p': positions must be a list of numbers"):
            ProductRecord("p", "c", positions, 0, 0, 0)
    with pytest.raises(SchemaError, match="^record 'p': no positions$"):
        ProductRecord("p", "c", (), 1, 1, 1)


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(SchemaError):
        Dataset([record([1.0] * 14), record([2.0] * 14)])


def test_dataset_rejects_mixed_day_counts():
    with pytest.raises(SchemaError) as err:
        Dataset([record([5.0] * 14), record([5.0] * 13, pid="p2")])
    assert "'p2'" in str(err.value) and "13 positions" in str(err.value)


def test_derivative_flags_sentinel_neighbors():
    d, flagged = derivative_values([5.0, 7.0, -1.0, 4.0, 4.0])
    assert list(d) == [2.0, 0.0, 0.0, 0.0]
    assert list(flagged) == [False, True, True, False]
    # A (records, days) matrix is differenced row by row.
    d, flagged = derivative_values([[5.0, 7.0, -1.0, 4.0, 4.0], [1.0, 2.0, 4.0, 8.0, -1.0]])
    assert d.tolist() == [[2.0, 0.0, 0.0, 0.0], [1.0, 2.0, 4.0, 0.0]]
    assert flagged.tolist() == [[False, True, True, False], [False, False, False, True]]


def test_a_one_day_signal_has_no_derivative_channel():
    w = traceset_from_positions([3.0])
    assert tuple(w) == ("x",) and w["x"].tolist() == [3.0]
    assert list(position_channels([[3.0], [-1.0]])) == ["x"]
    assert list(position_channels([3.0, 4.0])) == ["x", "d1(x)"]
    with pytest.raises(DatasetError, match="need at least two positions for a derivative"):
        derivative_values([3.0])


def test_to_traceset_grids():
    w = to_traceset(record(range(1, 15)))
    assert len(w["x"]) == 14
    assert len(w["d1(x)"]) == 13
    assert list(w["x"][:3]) == [1.0, 2.0, 3.0]
    assert list(w["d1(x)"]) == [1.0] * 13


def test_filter_complete_drops_missing_rows():
    ds = Dataset(
        [
            record([5.0] * 14, pid="a"),
            record([5.0] * 6 + [-1.0] + [5.0] * 7, pid="b"),
        ],
        planted={"a": "flat", "b": "missing"},
    )
    kept = filter_complete(ds)
    assert [r.product_id for r in kept.records] == ["a"]
    assert kept.planted == {"a": "flat"}


def test_csv_roundtrip_is_byte_identical(tmp_path):
    ds = generate(GeneratorConfig(n_records=120, pattern_mix=MIX, seed=5))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(ds, str(p1))
    loaded = load_dataset(str(p1))
    write_csv(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_quotes_text_fields_and_round_trips(tmp_path):
    ds = Dataset(
        [
            record([5.0] * 14, pid='a,"b', category="c,1"),
            record([5.0] * 14, pid="line\nbreak", category='say "hi"'),
            record([-1.0] + [2.5] * 13, pid="plain", category="c0"),
        ],
        planted={'a,"b': "flat", "line\nbreak": "flat", "plain": "missing"},
    )
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(ds, str(p1))
    loaded = load_dataset(str(p1))
    assert [r.product_id for r in loaded] == ['a,"b', "line\nbreak", "plain"]
    assert loaded.categories == ["c,1", 'say "hi"', "c0"]
    write_csv(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().splitlines()[1].startswith(b'"a,""b","c,1",5,')

    labels = tmp_path / "a.labels.csv"
    write_labels(ds, str(labels))
    assert labels.read_bytes() == (
        b'product_id,planted_pattern\n"a,""b",flat\n"line\nbreak",flat\nplain,missing\n'
    )


def test_csv_writers_quote_a_lone_carriage_return(tmp_path):
    """csv.writer with "\n" line ends leaves a field holding "\r" bare, so
    each CSV writer must quote it for the file to read back."""
    ds = Dataset([record([5.0] * 14, pid="p\r3", category="c\r1"), record([5.0] * 14)],
                 planted={"p\r3": "flat", "p1": "flat"})
    path = tmp_path / "a.csv"
    write_csv(ds, str(path))
    assert path.read_bytes().split(b"\n")[1].startswith(b'"p\r3","c\r1",5,')
    loaded = load_dataset(str(path))
    assert (loaded.ids, loaded.categories) == (["p\r3", "p1"], ["c\r1", "c0"])

    labels = tmp_path / "a.labels.csv"
    write_labels(ds, str(labels))
    with open(labels, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [
            ["product_id", "planted_pattern"], ["p\r3", "flat"], ["p1", "flat"]]

    table = satisfaction_rates(ds, [build("flat_start")])
    rows = list(csv.reader(io.StringIO(table.to_csv_text(), newline="")))
    assert [row[:2] for row in rows] == [
        ["category", "property"], ["c\r1", "flat_start"], ["c0", "flat_start"],
        ["(all)", "flat_start"]]


def test_jsonl_roundtrip_is_byte_identical(tmp_path):
    ds = generate(
        GeneratorConfig(n_records=80, pattern_mix={"missing": 0.5, "random": 0.5}, seed=6)
    )
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_jsonl(ds, str(p1))
    loaded = load_dataset(str(p1))
    write_jsonl(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    first = json.loads(p1.read_text().splitlines()[0])
    assert len(first["positions"]) == 14


def assert_same_columns(a, b):
    assert a.ids == b.ids
    assert a.categories == b.categories
    for name in ("category_codes", "positions", "counters"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert np.array_equal(x, y)


SIX = {"flat": 0.2, "cold": 0.15, "warm": 0.15, "spiky": 0.2, "missing": 0.15, "random": 0.15}


def test_csv_and_jsonl_load_the_same_columns(tmp_path):
    ds = generate(GeneratorConfig(n_records=90, pattern_mix=SIX, category_count=7,
                                  noise_sigma=0.5, seed=14))
    write_csv(ds, str(tmp_path / "a.csv"))
    write_jsonl(ds, str(tmp_path / "a.jsonl"))
    from_csv = load_dataset(str(tmp_path / "a.csv"))
    from_jsonl = load_dataset(str(tmp_path / "a.jsonl"))
    assert_same_columns(from_csv, ds)
    assert_same_columns(from_jsonl, ds)
    assert from_csv.records == from_jsonl.records == ds.records
    assert ds.positions.dtype == np.float64 and ds.positions.shape == (90, 14)
    assert ds.counters.dtype == np.int64 and ds.counters.shape == (90, 3)
    assert ds.category_codes.dtype == np.int64
    assert ds.categories == [f"c{i}" for i in range(7)]


def test_dataset_of_its_records_rebuilds_the_columns():
    ds = generate(GeneratorConfig(n_records=60, pattern_mix=SIX, category_count=4, seed=15))
    again = Dataset(ds.records, ds.planted)
    assert_same_columns(again, ds)
    assert again.planted == ds.planted
    assert list(again) == ds.records
    assert len(again) == 60


def test_csv_schema_errors_name_row_and_column(tmp_path):
    header = (
        "product_id,category,"
        + ",".join(f"pos_{i}" for i in range(14))
        + ",impressions,clicks,purchases"
    )
    good = "p1,c0," + ",".join(["5"] * 14) + ",10,1,0"
    bad_pos = "p2,c0," + ",".join(["5"] * 13 + ["zero"]) + ",10,1,0"
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + good + "\n" + bad_pos + "\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(str(path))
    assert "row 3" in str(err.value)
    assert "pos_13" in str(err.value)

    path.write_text("wrong,header\n")
    with pytest.raises(SchemaError):
        load_dataset(str(path))

    path.write_text(header + "\np1,c0,5,5\n")
    with pytest.raises(SchemaError) as err:
        load_dataset(str(path))
    assert "row 2" in str(err.value)


def test_jsonl_schema_errors(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"product_id": "p1"}\n')
    with pytest.raises(SchemaError) as err:
        load_dataset(str(path))
    assert "missing keys" in str(err.value)
    path.write_text("not json\n")
    with pytest.raises(SchemaError):
        load_dataset(str(path))
    path.write_text('{"product_id": "p1", "impressions": 1' + "0" * 5000 + "}\n")
    with pytest.raises(SchemaError, match="^row 1: invalid JSON: "):
        load_dataset(str(path))


def test_generator_is_deterministic():
    a = generate(GeneratorConfig(n_records=200, pattern_mix=MIX, seed=9))
    b = generate(GeneratorConfig(n_records=200, pattern_mix=MIX, seed=9))
    assert a.records == b.records
    assert a.planted == b.planted
    c = generate(GeneratorConfig(n_records=200, pattern_mix=MIX, seed=10))
    assert a.records != c.records


def test_generator_counts_are_exact_per_category():
    ds = generate(GeneratorConfig(n_records=1000, pattern_mix=MIX, seed=1))
    assert len(ds.categories) == 10
    for code in range(len(ds.categories)):
        counts = {}
        for pid, c in zip(ds.ids, ds.category_codes):
            if c == code:
                counts[ds.planted[pid]] = counts.get(ds.planted[pid], 0) + 1
        assert counts == {"cold": 30, "flat": 50, "spiky": 20}


def test_generator_skips_the_categories_left_empty(tmp_path):
    """With more categories than records, the empty ones change no byte
    and cost no time."""
    out = []
    for categories in (10, 10**6):
        start = time.perf_counter()
        ds = generate(GeneratorConfig(n_records=10, pattern_mix={"flat": 1.0},
                                      category_count=categories))
        assert time.perf_counter() - start < 1.0
        write_csv(ds, str(tmp_path / "data.csv"))
        out.append((tmp_path / "data.csv").read_bytes())
    assert out[0] == out[1]


def test_generator_config_validation():
    with pytest.raises(DatasetError):
        GeneratorConfig(n_records=0, pattern_mix=MIX)
    with pytest.raises(DatasetError):
        GeneratorConfig(n_records=10, pattern_mix={"flat": 0.5})
    with pytest.raises(DatasetError):
        GeneratorConfig(n_records=10, pattern_mix={"blob": 1.0})
    with pytest.raises(DatasetError):
        GeneratorConfig(n_records=10, pattern_mix=MIX, noise_sigma=-1.0)
    with pytest.raises(DatasetError, match="^pattern_mix must not be empty$"):
        GeneratorConfig(10, {})
    # Counts are ints (a bool is not), and n_records fits the int64 row index;
    # each is rejected before `generate` allocates anything.
    for field, value in (("n_records", 2.5), ("n_records", True), ("n_records", "10"),
                         ("category_count", 2.5), ("category_count", False)):
        with pytest.raises(DatasetError, match=f"^{field} must be an integer, got {value!r}$"):
            GeneratorConfig(**{"n_records": 10, "pattern_mix": MIX, field: value})
    for n in (2**63, 99999999999999999999):
        with pytest.raises(DatasetError, match=f"^n_records must be below 2\\*\\*63, got {n}$"):
            GeneratorConfig(n_records=n, pattern_mix=MIX)
    config = GeneratorConfig(n_records=np.int64(10), pattern_mix=MIX, category_count=np.int32(3))
    assert type(config.n_records) is int and type(config.category_count) is int


@pytest.mark.parametrize("error", [MemoryError, ValueError])
def test_generator_names_n_records_when_its_columns_cannot_be_allocated(error, monkeypatch):
    """numpy raises MemoryError when the allocation fails, and ValueError
    ("array is too big") when its size overflows; the allocation is faked."""
    def empty(*args, **kwargs):
        raise error("fake")

    monkeypatch.setattr(np, "empty", empty)
    with pytest.raises(DatasetError,
                       match=r"^n_records=10000000000000: too many records to hold in memory$"):
        generate(GeneratorConfig(n_records=10**13, pattern_mix=MIX))


def planted_sat(ds, name):
    spec = build(name)
    out = {}
    for rec in ds.records:
        pattern = ds.planted[rec.product_id]
        verdict = eval_fast(spec.formula, to_traceset(rec)).satisfied
        out.setdefault(pattern, []).append(verdict)
    return out


def test_planted_patterns_satisfy_their_properties():
    mix = {name: 1.0 / 6.0 for name in ("flat", "cold", "warm", "spiky", "missing", "random")}
    ds = generate(GeneratorConfig(n_records=600, pattern_mix=mix, seed=3))

    flat = planted_sat(ds, "flat_start")
    assert all(flat["flat"]) and not any(flat["cold"]) and not any(flat["spiky"])
    cold = planted_sat(ds, "cold_start")
    assert all(cold["cold"]) and not any(cold["flat"]) and not any(cold["warm"])
    warm = planted_sat(ds, "warm_start")
    assert all(warm["warm"]) and not any(warm["cold"])
    steady = planted_sat(ds, "steady_state")
    assert all(steady["flat"]) and not any(steady["spiky"])
    miss = planted_sat(ds, "no_long_miss")
    assert not any(miss["missing"]) and all(miss["flat"])

    ditch = planted_sat(ds, "ditch")
    spike = planted_sat(ds, "spike")
    for has_d, has_s in zip(ditch["spiky"], spike["spiky"]):
        assert has_d != has_s  # exactly one of the two
    assert not any(ditch["flat"]) and not any(spike["flat"])


def test_all_flat_mix_satisfies_flat_and_steady():
    ds = generate(GeneratorConfig(n_records=100, pattern_mix={"flat": 1.0}, seed=4))
    flat = planted_sat(ds, "flat_start")
    steady = planted_sat(ds, "steady_state")
    assert all(flat["flat"]) and all(steady["flat"])


def test_noise_keeps_positions_valid():
    ds = generate(
        GeneratorConfig(n_records=150, pattern_mix=MIX, seed=8, noise_sigma=2.0)
    )
    for rec in ds.records:
        for p in rec.positions:
            assert p == -1.0 or p >= 1.0


@pytest.mark.parametrize("sigma", [0.5, 50.0])
def test_noise_never_moves_a_missing_day_nor_goes_below_one(sigma):
    """With one pattern, the noise is drawn after all of the builder's
    draws, so the noiseless run of the same seed shows the planted days."""
    config = dict(n_records=500, pattern_mix={"missing": 1.0}, category_count=7, seed=19)
    plain = generate(GeneratorConfig(**config))
    noisy = generate(GeneratorConfig(**config, noise_sigma=sigma))
    missing = plain.positions == -1.0
    runs = missing.sum(axis=1)
    assert ((runs >= 4) & (runs <= 6)).all()
    assert np.array_equal(noisy.positions == -1.0, missing)
    assert (noisy.positions[~missing] >= 1.0).all()
    assert (noisy.positions[~missing] != plain.positions[~missing]).any()
    mixed = generate(GeneratorConfig(n_records=600, pattern_mix=SIX, seed=19, noise_sigma=sigma))
    gone = mixed.positions == -1.0
    assert ((mixed.positions >= 1.0) | gone).all()
    planted = np.array([mixed.planted[pid] for pid in mixed.ids])
    assert not gone[planted != "missing"].any()
    assert (gone[planted == "missing"].sum(axis=1) >= 4).all()


def test_noise_that_rounds_to_inf_is_a_schema_error():
    """The generator's row check names the first infinite position, and
    numpy warns of no overflow on the way."""
    config = GeneratorConfig(n_records=20, pattern_mix={"flat": 0.5, "missing": 0.5},
                             noise_sigma=1.7e308)
    with pytest.raises(SchemaError) as err:
        generate(config)
    assert str(err.value) == "row 1: record 'p000000': pos_1 must be >= 1 or -1, got inf"


def test_generated_rows_follow_the_exact_counts_in_category_major_order(tmp_path):
    """Uneven categories: each one's pattern counts are `_exact_counts` of
    its size, its records are contiguous with the patterns in `PATTERNS`
    order, ids count up, and the labels sidecar says the same."""
    n, categories = 1003, 7
    ds = generate(GeneratorConfig(n_records=n, pattern_mix=SIX, category_count=categories,
                                  noise_sigma=0.5, seed=23))
    names = [p for p in PATTERNS if p in SIX]
    assert ds.ids == [f"p{i:06d}" for i in range(n)]
    assert ds.categories == [f"c{c}" for c in range(categories)]
    assert (np.diff(ds.category_codes) >= 0).all()
    base, extra = divmod(n, categories)
    for code in range(categories):
        planted = [ds.planted[pid] for pid, c in zip(ds.ids, ds.category_codes) if c == code]
        counts = _exact_counts(names, [SIX[p] for p in names], base + (code < extra))
        assert planted == [p for p, count in zip(names, counts) for _ in range(count)]
    path = tmp_path / "data.csv"
    write_csv(ds, str(path))
    write_labels(ds, labels_path_for(str(path)))
    with open(labels_path_for(str(path)), newline="") as fh:
        assert list(csv.reader(fh)) == [["product_id", "planted_pattern"],
                                        *([pid, ds.planted[pid]] for pid in ds.ids)]


def test_generated_bytes_are_pinned(tmp_path):
    """The sha1 of a small generated CSV, so that a change of the draw order
    or of a builder shows here. A numpy release that changes the stream of
    a `Generator` method changes it too."""
    ds = generate(GeneratorConfig(n_records=60, pattern_mix=SIX, category_count=4,
                                  noise_sigma=0.5, seed=2024))
    path = tmp_path / "pinned.csv"
    write_csv(ds, str(path))
    digest = hashlib.sha1(path.read_bytes()).hexdigest()
    assert digest == "05521aac863471152d687a7ee0e7a971e5c3ce23"


def test_a_generated_row_that_breaks_a_rule_is_named_by_the_row_path(monkeypatch):
    """The columns are checked as a whole; a failing check hands the rows
    to the row path, whose error names the first bad row."""
    _, means = ingest._PATTERNS["cold"]
    monkeypatch.setitem(ingest._PATTERNS, "cold", (lambda rng, n: np.zeros((n, 14)), means))
    with pytest.raises(SchemaError, match=r"^row 5: record 'p000004': pos_0 must be >= 1 or -1, "
                                          r"got 0\.0$"):
        generate(GeneratorConfig(n_records=12, pattern_mix={"flat": 0.75, "cold": 0.25},
                                 category_count=2))


def test_labels_sidecar(tmp_path):
    ds = generate(GeneratorConfig(n_records=30, pattern_mix=MIX, seed=2))
    path = tmp_path / "data.csv"
    write_csv(ds, str(path))
    sidecar = labels_path_for(str(path))
    write_labels(ds, sidecar)
    lines = Path(sidecar).read_text().splitlines()
    assert lines[0] == "product_id,planted_pattern"
    assert len(lines) == 31
    assert lines[1].startswith("p000000,")


def test_write_labels_needs_a_label_per_record(tmp_path):
    """A dataset with no labels, or with a record that has none, is a
    DatasetError before the file is opened, so an existing file is kept."""
    path = tmp_path / "l.csv"
    path.write_text("kept\n")
    records = [ProductRecord("p0", "c0", [5.0, 5.0], 1, 1, 1),
               ProductRecord("p1", "c0", [5.0, 5.0], 1, 1, 1)]
    for planted, message in ((None, "^dataset carries no planted-pattern labels$"),
                             ({}, "^record 'p0' has no planted-pattern label$"),
                             ({"p0": "flat"}, "^record 'p1' has no planted-pattern label$")):
        with pytest.raises(DatasetError, match=message):
            write_labels(Dataset(records, planted=planted), str(path))
        assert path.read_text() == "kept\n"


SHORT_HEADER = "product_id,category,pos_0,pos_1,impressions,clicks,purchases\n"


def test_the_file_gives_the_day_count(tmp_path):
    (tmp_path / "short.csv").write_text(SHORT_HEADER + "p1,c0,5,6,1,1,1\n")
    (tmp_path / "short.jsonl").write_text(
        '{"product_id":"p1","category":"c0","positions":[5,6],'
        '"impressions":1,"clicks":1,"purchases":1}\n')
    for name in ("short.csv", "short.jsonl"):
        ds = load_dataset(str(tmp_path / name))
        assert ds.positions.tolist() == [[5.0, 6.0]]
        assert ds.counters.tolist() == [[1, 1, 1]]


@pytest.mark.parametrize("header", [
    "product_id,category,impressions,clicks,purchases",
    "product_id,category,pos_1,impressions,clicks,purchases",
    "product_id,category,pos_0,pos_1,impressions,clicks",
], ids=["no-positions", "misnamed", "no-purchases"])
def test_a_bad_header_names_the_header_of_its_length(header, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n")
    days = max(len(header.split(",")) - 5, 1)
    expected = ",".join(["product_id", "category", *(f"pos_{i}" for i in range(days)),
                         "impressions", "clicks", "purchases"])
    with pytest.raises(SchemaError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: bad header; expected {expected!r}"


@pytest.mark.parametrize("suffix,text,message", [
    (".csv", SHORT_HEADER + "p1,c0,5,6,1,1,1\np2,c0,5,1,1,1\n",
     "row 3: expected 7 columns, got 6"),
    (".csv", SHORT_HEADER + "p1,c0,5,6,7,1,1,1\np2,c0,5,6,1,1,1\n",
     "row 2: expected 7 columns, got 8"),
    (".jsonl", "".join(
        f'{{"product_id":"p{i}","category":"c0","positions":{json.dumps(pos)},'
        f'"impressions":1,"clicks":1,"purchases":1}}\n'
        for i, pos in enumerate([[5, 6], [5, 6, 7]], start=1)),
     "row 2: record 'p2': 3 positions, the first record has 2"),
], ids=["csv-short-row", "csv-long-first-row", "jsonl-second-record"])
def test_a_row_of_another_day_count_names_its_row(suffix, text, message, tmp_path):
    path = tmp_path / ("mixed" + suffix)
    path.write_text(text)
    with pytest.raises(SchemaError) as info:
        load_dataset(str(path))
    assert str(info.value) == message


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_a_file_with_no_records_keeps_its_day_count(suffix, tmp_path):
    """A header-only CSV keeps the day count of its header; an empty JSONL
    file has none, so it gets DAYS_DEFAULT days, as Dataset() does."""
    header = "product_id,category,pos_0,pos_1,pos_2,impressions,clicks,purchases\n"
    path = tmp_path / ("empty" + suffix)
    path.write_text(header if suffix == ".csv" else "")
    days = 3 if suffix == ".csv" else 14
    ds = load_dataset(str(path))
    assert ds.positions.shape == (0, days)
    assert filter_complete(ds).positions.shape == (0, days)
    again = tmp_path / ("again" + suffix)
    write_dataset(ds, str(again))
    assert again.read_text() == path.read_text()
    assert load_dataset(str(again)).positions.shape == (0, days)
    assert Dataset().positions.shape == (0, 14)


# ---------------------------------------------------------------------------
# Mutated rows: a loader either loads every row or raises SchemaError naming
# the mutated row, and what it loads round-trips through the writers.
# ---------------------------------------------------------------------------

FUZZ_BASE = generate(
    GeneratorConfig(n_records=3, pattern_mix={"missing": 0.5, "random": 0.5}, seed=12)
)
CSV_TEXTS = ["nan", "inf", "-inf", "-2", "-1", "0", "0.5", "1.5", "", " 7 ", "abc", "1e400",
             "9" * 30, "True", "null"]
JSON_VALUES = [None, True, False, "5", "", "x", "p\r3", [], [1], {}, 10 ** 400, 10 ** 30, -2,
               -1, 0, 0.5, 1.5, 7, float("nan"), float("inf")]


def st_edits(values):
    """Up to three edits of a list: drop, duplicate or replace the entry at
    an index taken modulo the list's length."""
    op = st.sampled_from(["drop", "duplicate", "replace"])
    return st.lists(st.tuples(op, st.integers(0, 30), st.sampled_from(values)),
                    min_size=1, max_size=3)


def apply_edits(items, edits, replace=lambda old, value: value):
    items = list(items)
    for op, i, value in edits:
        i %= len(items)
        if op == "drop":
            del items[i]
        elif op == "duplicate":
            items.insert(i, items[i])
        else:
            items[i] = replace(items[i], value)
    return items


def check_mutated_load(path, *bad_rows):
    try:
        loaded = load_dataset(str(path))
    except SchemaError as exc:
        assert any(str(exc).startswith(f"row {row}: ") for row in bad_rows), str(exc)
        return
    assert len(loaded) == len(FUZZ_BASE)
    for write, fmt in ((write_csv, "csv"), (write_jsonl, "jsonl")):
        again = path.with_name("again." + fmt)
        write(loaded, str(again))
        assert load_dataset(str(again)).records == loaded.records


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=st.integers(0, 2), edits=st_edits(CSV_TEXTS))
def test_mutated_csv_rows_load_or_name_their_row(row, edits, tmp_path):
    path = tmp_path / "fuzz.csv"
    write_csv(FUZZ_BASE, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1 + row] = apply_edits(rows[1 + row], edits)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    check_mutated_load(path, 2 + row)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=st.integers(0, 2), in_positions=st.booleans(), edits=st_edits(JSON_VALUES))
@example(row=1, in_positions=False, edits=[("replace", 0, "p\r3")])
def test_mutated_jsonl_rows_load_or_name_their_row(row, in_positions, edits, tmp_path):
    path = tmp_path / "fuzz.jsonl"
    write_jsonl(FUZZ_BASE, str(path))
    lines = path.read_text().splitlines()
    pairs = list(json.loads(lines[row]).items())
    if in_positions:
        pairs[2] = ("positions", apply_edits(pairs[2][1], edits))
    else:
        # The pairs are written out one by one, so a duplicated key stays in the text.
        pairs = apply_edits(pairs, edits, replace=lambda old, value: (old[0], value))
    lines[row] = "{" + ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in pairs) + "}"
    path.write_text("\n".join(lines) + "\n")
    # The first record sets the day count: when its positions change length,
    # the next record is the one that differs.
    positions = json.loads(lines[0]).get("positions")
    resized = row == 0 and isinstance(positions, list) and len(positions) != 14
    check_mutated_load(path, 1 + row, *([2] if resized else []))


# ---------------------------------------------------------------------------
# The bulk CSV path and the per-row path give the same columns, or the same
# SchemaError text, for the same file.
# ---------------------------------------------------------------------------

# Texts numpy's parsers read differently from float() and int(), or that the
# bulk path must leave to the per-row path.
BULK_TEXTS = CSV_TEXTS + ["5\u01fe5", "5\x1c", "\x1d5", "\u0661", "1_000", " 5", "+5", "05",
                          "-0", "1e3", "1.0", "5.", ".5", "--5", "5-", "9223372036854775807",
                          "9223372036854775808", "\udcff", "5\udce9"]
LAYOUTS = ["plain", "quoted", "crlf", "blank line", "header only", "no final newline"]
POSITION, COUNTER = 3, -2  # pos_1 and clicks, on either grid


def columns_or_error(path, read, newline=""):
    """`read(fh)` on `path` opened as the loader opens a CSV file
    (newline="") or, with newline=None, a JSONL file."""
    with open(path, newline=newline, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            columns = read(fh)
        except SchemaError as exc:
            return f"{type(exc).__name__}: {exc}"
    if columns is None:
        return None
    ids, categories, codes, positions, counters = columns
    return (ids, categories, codes.dtype, codes.tolist(), positions.dtype, positions.shape,
            positions.tobytes(), counters.dtype, counters.tolist())


def load_columns(fh):
    ds = load_dataset(fh.name)
    return ds.ids, ds.categories, ds.category_codes, ds.positions, ds.counters


def write_mutated_csv(path, days, row, edits, layout):
    """FUZZ_BASE on a `days` grid with edits to one row's cells, written in
    `layout`; a surrogate escape in an edit is written as its byte."""
    write_csv(FUZZ_BASE, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [cells[:2 + days] + cells[-3:] for cells in csv.reader(fh)]
    rows[1 + row] = apply_edits(rows[1 + row], edits)
    if layout == "header only":
        rows = rows[:1]
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        csv.writer(fh, lineterminator="\r\n" if layout == "crlf" else "\n",
                   quoting=csv.QUOTE_ALL if layout == "quoted" else csv.QUOTE_MINIMAL,
                   ).writerows(rows)
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    if layout == "blank line":
        lines = text.split("\n")
        text = "\n".join([*lines[:2 + row], "", *lines[2 + row:]])
    elif layout == "no final newline":
        text = text[:-1]
    path.write_text(text, encoding="utf-8", errors="surrogateescape")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(days=st.sampled_from([14, 3]), row=st.integers(0, 2), edits=st_edits(BULK_TEXTS),
       layout=st.one_of(st.just("plain"), st.sampled_from(LAYOUTS)))
@example(days=14, row=1, edits=[("replace", COUNTER, "5\u01fe5")], layout="plain")
@example(days=14, row=1, edits=[("replace", POSITION, "5\u01fe5")], layout="plain")
@example(days=14, row=1, edits=[("replace", COUNTER, "5\x1c")], layout="plain")
@example(days=14, row=1, edits=[("replace", POSITION, "5\x1c")], layout="plain")
@example(days=14, row=0, edits=[("replace", COUNTER, "\u0661")], layout="plain")
@example(days=14, row=0, edits=[("replace", POSITION, "1_000")], layout="plain")
@example(days=14, row=2, edits=[("replace", COUNTER, " 5")], layout="plain")
@example(days=14, row=2, edits=[("replace", COUNTER, "+5")], layout="plain")
@example(days=14, row=2, edits=[("replace", POSITION, "05")], layout="plain")
@example(days=14, row=2, edits=[("replace", COUNTER, "-0")], layout="plain")
@example(days=14, row=2, edits=[("replace", POSITION, "inf")], layout="plain")
@example(days=14, row=1, edits=[("replace", POSITION, "0.5")], layout="plain")
@example(days=14, row=1, edits=[("replace", POSITION, "1e400")], layout="plain")
@example(days=14, row=1, edits=[("replace", COUNTER, "-1")], layout="plain")
@example(days=14, row=1, edits=[("replace", 0, "")], layout="plain")
@example(days=14, row=1, edits=[("replace", 1, "")], layout="plain")
@example(days=14, row=1, edits=[("replace", 1, "(all)")], layout="plain")
@example(days=14, row=1, edits=[("replace", 0, "p000000")], layout="plain")
@example(days=14, row=0, edits=[("replace", POSITION, "7")], layout="quoted")
@example(days=14, row=0, edits=[("replace", 0, 'p"1')], layout="plain")
@example(days=14, row=0, edits=[("replace", POSITION, "7")], layout="crlf")
@example(days=14, row=0, edits=[("replace", POSITION, "7")], layout="blank line")
@example(days=14, row=0, edits=[("replace", POSITION, "7")], layout="header only")
@example(days=14, row=0, edits=[("replace", POSITION, "7")], layout="no final newline")
@example(days=3, row=0, edits=[("replace", POSITION, "7")], layout="plain")
@example(days=14, row=1, edits=[("replace", 0, "p\udcff")], layout="plain")
@example(days=14, row=1, edits=[("replace", 1, "c\udce9")], layout="plain")
@example(days=14, row=1, edits=[("replace", POSITION, "5\udce9")], layout="plain")
def test_bulk_and_per_row_csv_paths_agree(days, row, edits, layout, tmp_path):
    path = tmp_path / "fuzz.csv"
    write_mutated_csv(path, days, row, edits, layout)
    per_row = columns_or_error(path, _csv_rows)
    assert columns_or_error(path, load_columns) == per_row
    bulk = columns_or_error(path, _bulk_csv)
    if bulk is not None:
        assert bulk == per_row


@pytest.mark.parametrize("days", [14, 3])
def test_bulk_csv_path_reads_a_canonical_file(days, tmp_path):
    path = tmp_path / "plain.csv"
    write_mutated_csv(path, days, 0, [("replace", POSITION, "7")], "plain")
    assert columns_or_error(path, _bulk_csv) == columns_or_error(path, _csv_rows)


TINY_HEADER = "product_id,category,pos_0,pos_1,pos_2,impressions,clicks,purchases\n"


@pytest.mark.parametrize("rows", [
    "",
    "p1,c0,\n",
    "p1,c0,",
    "p1,c0,5,5,5,1,1,1\np2,c0,\np3,c0,5,5,5,1,1,1\n",
    "p1,c0,5,5,5,1,1,1\n\n",
    "p1,c0,5,5,5,1,1,1\r\n",
    "x" * (csv.field_size_limit() + 1) + ",c0,5,5,5,1,1,1\n",
    "p1,c0,5,5,5,5,1,1,1\np2,c0,5,5,5,5,1,1,1\n",
    "p1,c0,5,5,5,1,1,1\np2,c0,5,5,1,1,1\n",
    "p1,c0,1,1,1\n",
], ids=["header-only", "no-numbers", "no-numbers-no-newline", "no-numbers-between",
        "blank-line", "crlf", "longer-than-a-csv-field", "more-days-than-the-header",
        "fewer-days-than-the-first-row", "no-positions"])
def test_bulk_csv_path_declines_what_loadtxt_would_skip_or_csv_reject(rows, tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_HEADER + rows, encoding="utf-8")
    assert columns_or_error(path, _bulk_csv) is None
    assert columns_or_error(path, load_columns) == columns_or_error(path, _csv_rows)


# ---------------------------------------------------------------------------
# The bulk JSONL path and the per-row path give the same columns, or the same
# SchemaError text, for the same file.
# ---------------------------------------------------------------------------

# Field texts json.loads reads differently from the bulk path's loadtxt pass,
# or that the bulk path must leave to the per-row path: numbers outside JSON's
# grammar or float's range, counters that are not digits, escapes, control
# and line-separator characters, whitespace, raw non-ASCII.
JSON_TEXTS = ["+5", "05", ".5", "5.", "-0", "-0.0", "1E400", "1e-400", "NaN", "Infinity",
              "-Infinity", str(10 ** 400), "9223372036854775807", "9223372036854775808",
              "1.0", "true", "null", "7", "-1", "-1.0", "0.5", "1e2", "1.5E+1", "2.5e-0",
              " 5", "5 ", "\u0661", "[]", '"5"', '""', '"p\\u0041"', '"p\u00e9"',
              '"p\u2028"', '"p\x85"', '"p\x1c"', '"p\x7f"', '"p\r"', '"p000000"', '"p\udcff"',
              "5\udce9", '"p\\ud800"']
JSONL_EDITS = ["position", "value", "swap", "repeat", "drop position", "extra position"]
JSONL_LAYOUTS = ["plain", "crlf", "blank line", "bom", "no final newline", "empty"]
PRODUCT_ID, CATEGORY, IMPRESSIONS, CLICKS, PURCHASES = 0, 1, 3, 4, 5


def write_mutated_jsonl(path, days, row, edits, layout):
    """FUZZ_BASE on a `days` grid with edits to the text of one line's
    fields, written in `layout`. An edit is (op, index, text): "position"
    and "value" put `text` in place of a position or a field's value,
    "swap" swaps a field with the next, "repeat" repeats a field, and "drop
    position" and "extra position" remove or repeat a position. A surrogate
    escape in `text` is written as its byte."""
    write_jsonl(FUZZ_BASE, str(path))
    lines = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        record = json.loads(line)
        fields = [[key, json.dumps(value)] for key, value in record.items()]
        fields[2][1] = [json.dumps(p) for p in record["positions"][:days]]
        for op, i, text in edits if line_no == row else ():
            positions = fields[2][1]
            if op == "value":
                fields[i % len(fields)][1] = text
            elif op == "swap":
                i %= len(fields) - 1
                fields[i:i + 2] = fields[i + 1], fields[i]
            elif op == "repeat":
                fields.insert(i % len(fields), list(fields[i % len(fields)]))
            elif isinstance(positions, list) and positions:
                i %= len(positions)
                if op == "position":
                    positions[i] = text
                elif op == "drop position":
                    del positions[i]
                else:
                    positions.insert(i, positions[i])
        lines.append("{" + ",".join(
            f'"{key}":' + (f"[{','.join(value)}]" if isinstance(value, list) else value)
            for key, value in fields) + "}")
    end = "\r\n" if layout == "crlf" else "\n"
    if layout == "blank line":
        lines.insert(row, "")
    text = "".join(line + end for line in lines)
    if layout == "bom":
        text = "\ufeff" + text
    elif layout == "no final newline":
        text = text[:-1]
    elif layout == "empty":
        text = ""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(days=st.sampled_from([14, 3]), row=st.integers(0, 2),
       edits=st.lists(st.tuples(st.sampled_from(JSONL_EDITS), st.integers(0, 30),
                                st.sampled_from(JSON_TEXTS)), min_size=1, max_size=3),
       layout=st.one_of(st.just("plain"), st.sampled_from(JSONL_LAYOUTS)))
@example(days=14, row=0, edits=[("position", 1, "+5")], layout="plain")
@example(days=14, row=1, edits=[("position", 2, "05")], layout="plain")
@example(days=14, row=2, edits=[("position", 3, ".5")], layout="plain")
@example(days=14, row=0, edits=[("position", 4, "5.")], layout="plain")
@example(days=14, row=1, edits=[("position", 5, "-0")], layout="plain")
@example(days=14, row=2, edits=[("position", 6, "1E400")], layout="plain")
@example(days=14, row=0, edits=[("position", 7, "NaN")], layout="plain")
@example(days=14, row=1, edits=[("position", 8, "Infinity")], layout="plain")
@example(days=14, row=2, edits=[("position", 9, str(10 ** 400))], layout="plain")
@example(days=14, row=0, edits=[("value", IMPRESSIONS, str(10 ** 400))], layout="plain")
@example(days=14, row=1, edits=[("value", CLICKS, "9223372036854775808")], layout="plain")
@example(days=14, row=1, edits=[("value", CLICKS, "9223372036854775807")], layout="plain")
@example(days=14, row=2, edits=[("value", PURCHASES, "+5")], layout="plain")
@example(days=14, row=2, edits=[("value", PURCHASES, "05")], layout="plain")
@example(days=14, row=2, edits=[("value", PURCHASES, "-0")], layout="plain")
@example(days=14, row=0, edits=[("value", IMPRESSIONS, "1.0")], layout="plain")
@example(days=14, row=0, edits=[("value", PURCHASES, "true")], layout="plain")
@example(days=14, row=0, edits=[("value", CLICKS, "\u0661")], layout="plain")
@example(days=14, row=1, edits=[("value", PRODUCT_ID, '"p\\u0041"')], layout="plain")
@example(days=14, row=1, edits=[("value", PRODUCT_ID, '"p\u00e9"')], layout="plain")
@example(days=14, row=1, edits=[("value", CATEGORY, '"p\u2028"')], layout="plain")
@example(days=14, row=1, edits=[("value", CATEGORY, '"p\x1c"')], layout="plain")
@example(days=14, row=1, edits=[("value", CATEGORY, '"(all)"')], layout="plain")
@example(days=14, row=0, edits=[("value", CLICKS, " 5")], layout="plain")
@example(days=14, row=0, edits=[("swap", CLICKS, "")], layout="plain")
@example(days=14, row=0, edits=[("repeat", PURCHASES, "")], layout="plain")
@example(days=14, row=2, edits=[("drop position", 0, "")], layout="plain")
@example(days=14, row=2, edits=[("extra position", 0, "")], layout="plain")
@example(days=14, row=1, edits=[("position", 0, "7")], layout="blank line")
@example(days=14, row=1, edits=[("position", 0, "7")], layout="crlf")
@example(days=14, row=0, edits=[("position", 0, "7")], layout="bom")
@example(days=14, row=0, edits=[("position", 0, "7")], layout="no final newline")
@example(days=14, row=2, edits=[("value", PRODUCT_ID, '"p000000"')], layout="plain")
@example(days=14, row=0, edits=[("position", 0, "7")], layout="empty")
@example(days=3, row=0, edits=[("position", 0, "7")], layout="plain")
@example(days=14, row=1, edits=[("value", PRODUCT_ID, '"p\udcff"')], layout="plain")
@example(days=14, row=1, edits=[("value", CATEGORY, '"c\udce9"')], layout="plain")
@example(days=14, row=1, edits=[("value", CATEGORY, '"p\\ud800"')], layout="plain")
@example(days=14, row=1, edits=[("position", 0, "5\udce9")], layout="plain")
def test_bulk_and_per_row_jsonl_paths_agree(days, row, edits, layout, tmp_path):
    path = tmp_path / "fuzz.jsonl"
    write_mutated_jsonl(path, days, row, edits, layout)
    per_row = columns_or_error(path, _jsonl_rows, newline=None)
    assert columns_or_error(path, load_columns, newline=None) == per_row
    bulk = columns_or_error(path, _bulk_jsonl, newline=None)
    if bulk is not None:
        assert bulk == per_row


@pytest.mark.parametrize("days", [14, 3])
def test_bulk_jsonl_path_reads_a_canonical_file(days, tmp_path):
    path, canonical = tmp_path / "plain.jsonl", tmp_path / "canonical.jsonl"
    write_mutated_jsonl(path, days, 0, [], "plain")
    write_jsonl(FUZZ_BASE, str(canonical))
    # With no edit, the line model writes what write_jsonl writes.
    assert (path.read_bytes() == canonical.read_bytes()) == (days == 14)
    bulk = columns_or_error(path, _bulk_jsonl, newline=None)
    assert bulk is not None
    assert bulk == columns_or_error(path, _jsonl_rows, newline=None)


def test_bulk_jsonl_path_reads_a_generated_file(tmp_path):
    """Every pattern, noise and 100 categories: a writer change that sends
    such a file row by row fails here."""
    ds = generate(GeneratorConfig(n_records=600, pattern_mix=SIX, category_count=100,
                                  noise_sigma=0.5, seed=16))
    path = tmp_path / "six.jsonl"
    write_jsonl(ds, str(path))
    bulk = columns_or_error(path, _bulk_jsonl, newline=None)
    assert bulk is not None
    assert bulk == columns_or_error(path, _jsonl_rows, newline=None)
    assert_same_columns(load_dataset(str(path)), ds)
