import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stlrank import (
    Dataset,
    DatasetError,
    GeneratorConfig,
    ProductRecord,
    PropertyParams,
    Trace,
    TraceSet,
    build,
    cluster_kmeans,
    default_library,
    eval_naive,
    generate,
    load_dataset,
    parse_formula,
    print_formula,
    write_csv,
)
from stlrank.analytics import centroids_plot_data
from stlrank.ingest import PATTERNS, write_dataset
from stlrank.cli import _PARAM_HELP, build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    code = main(
        [
            "generate",
            "-o",
            str(path),
            "--n",
            "200",
            "--mix",
            "cold=0.3,flat=0.5,spiky=0.2",
            "--seed",
            "17",
        ]
    )
    assert code == 0
    return path


def test_check_property(dataset, capsys):
    assert main(["check", "-i", str(dataset), "--property", "flat_start"]) == 0
    out = capsys.readouterr().out
    assert "satisfied 100/200" in out


def test_check_inline_formula(dataset, capsys):
    code = main(["check", "-i", str(dataset), "--formula", "G[0,3](d1(x) <= 0)"])
    assert code == 0
    assert "formula: G[0,3](d1(x) <= 0)" in capsys.readouterr().out


def test_check_each_lists_records(dataset, capsys):
    main(["check", "-i", str(dataset), "--property", "ditch", "--each"])
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if "\t" in ln) == 200


def test_check_each_escapes_line_breaks_and_tabs_in_ids(tmp_path, capsys):
    """Each record is one id<TAB>verdict line: CR, LF and tab in an id are
    written as escapes, and every other character as it is."""
    ids = ['"p\n1"', "p\t2", '"p\r3"', '"p\r\n4"', "p 5\\n", '"p,""6"\u00e9']
    path = tmp_path / "odd.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("product_id,category,pos_0,pos_1,impressions,clicks,purchases\n")
        fh.writelines(f"{pid},c,5,5,1,1,1\n" for pid in ids)
    assert main(["check", "-i", str(path), "--formula", "x > 1", "--each"]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "p\\n1\tsatisfied", "p\\t2\tsatisfied", "p\\r3\tsatisfied", "p\\r\\n4\tsatisfied",
        "p 5\\n\tsatisfied", "p,\"6\u00e9\tsatisfied",
        "formula: x > 1", "satisfied 6/6 (1.0000)", "",
    ]


def test_check_reads_a_number_in_exponent_form(dataset, capsys):
    assert main(["check", "-i", str(dataset), "--formula", "G[0,3](abs(d1(x)) < 1e-5)"]) == 0
    assert "formula: G[0,3](abs(d1(x)) < 1e-05)" in capsys.readouterr().out


def test_check_rejects_bad_interval(dataset, capsys):
    code = main(["check", "-i", str(dataset), "--formula", "G[3,1](x < 0)"])
    assert code == 2
    assert "non-singular" in capsys.readouterr().err


def test_check_rejects_deep_nesting(dataset, capsys):
    code = main(["check", "-i", str(dataset), "--formula", "!" * 3000 + "(x < 1)"])
    assert code == 2
    assert "deeper than" in capsys.readouterr().err


def test_check_rejects_override_with_formula(dataset, capsys):
    code = main(
        ["check", "-i", str(dataset), "--formula", "G(x < 0)", "--w", "2"]
    )
    assert code == 2


def test_missing_input_is_io_error(tmp_path, capsys):
    code = main(["check", "-i", str(tmp_path / "nope.csv"), "--property", "ditch"])
    assert code == 1


@pytest.mark.parametrize("module", ["stlrank", "stlrank.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    version = run("--version")
    assert version.returncode == 0
    assert version.stdout.startswith("stlrank ")
    missing = run("rates", "-i", "missing.csv")
    assert missing.returncode == 1
    assert "missing.csv" in missing.stderr


@pytest.mark.parametrize("entry", ["null", "[1]", '"abc"', '"5"', "true", "1" + "0" * 400])
def test_jsonl_positions_must_be_numbers(entry, tmp_path, capsys):
    positions = ["5"] * 13 + [entry]
    row = (
        '{"product_id":"p1","category":"c0","positions":[' + ",".join(positions) + "],"
        '"impressions":1,"clicks":0,"purchases":0}'
    )
    good = tmp_path / "good.jsonl"
    good.write_text(row.replace(entry, "7", 1) + "\n")
    assert main(["check", "-i", str(good), "--property", "ditch"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(row + "\n")
    assert main(["check", "-i", str(bad), "--property", "ditch"]) == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "'pos_13'" in err


@pytest.mark.parametrize(
    "column,value",
    [("product_id", None), ("product_id", 7), ("category", ["a"]), ("category", {})],
    ids=["null-id", "number-id", "list-category", "object-category"],
)
def test_jsonl_ids_and_categories_must_be_strings(column, value, tmp_path, capsys):
    obj = {"product_id": "p1", "category": "c0", "positions": [5] * 14,
           "impressions": 1, "clicks": 0, "purchases": 0}
    obj[column] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    assert main(["check", "-i", str(path), "--property", "ditch", "--each"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 1" in captured.err and f"{column!r}: not a string" in captured.err


def test_deeply_nested_jsonl_line_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000 + "\n")
    assert main(["rates", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: row 1: invalid JSON: ")


# One malformed row after a good one, in each format: (format, overrides of
# the bad row's fields, the whole stderr). A "pos_i" key overrides one
# position; CSV overrides are the cell texts, JSONL overrides the JSON values.
MALFORMED_ROWS = [
    ("csv", {"pos_13": "zero"}, "row 3: column 'pos_13': not a number: 'zero'"),
    ("csv", {"pos_4": ""}, "row 3: column 'pos_4': not a number: ''"),
    ("csv", {"pos_3": "0.5"}, "row 3: record 'p2': pos_3 must be >= 1 or -1, got 0.5"),
    ("csv", {"pos_0": "-2"}, "row 3: record 'p2': pos_0 must be >= 1 or -1, got -2.0"),
    ("csv", {"pos_1": "nan"}, "row 3: record 'p2': pos_1 must be >= 1 or -1, got nan"),
    ("csv", {"pos_2": "inf"}, "row 3: record 'p2': pos_2 must be >= 1 or -1, got inf"),
    ("csv", {"clicks": "1.5"}, "row 3: column 'clicks': not an integer: '1.5'"),
    ("csv", {"purchases": ""}, "row 3: column 'purchases': not an integer: ''"),
    ("csv", {"impressions": "-3"},
     "row 3: record 'p2': impressions must be a non-negative integer, got -3"),
    ("csv", {"clicks": "-1"}, "row 3: record 'p2': clicks must be a non-negative integer, got -1"),
    ("csv", {"product_id": ""}, "row 3: empty product_id"),
    ("csv", {"category": ""}, "row 3: empty category"),
    ("csv", {"category": "(all)"}, "row 3: category '(all)' is reserved for the rollup rows"),
    ("csv", {"product_id": "p1"}, "row 3: duplicate product_id 'p1'"),
    ("csv", {"impressions": "9" * 401},
     f"row 3: record 'p2': impressions must be below 2**63, got {'9' * 401}"),
    ("csv", {"product_id": "x" * 140_000}, "row 3: field larger than field limit (131072)"),
    ("jsonl", {"pos_13": None}, "row 2: column 'pos_13': not a number: None"),
    ("jsonl", {"pos_13": "5"}, "row 2: column 'pos_13': not a number: '5'"),
    ("jsonl", {"pos_13": True}, "row 2: column 'pos_13': not a number: True"),
    ("jsonl", {"pos_3": 0.5}, "row 2: record 'p2': pos_3 must be >= 1 or -1, got 0.5"),
    ("jsonl", {"pos_0": -2}, "row 2: record 'p2': pos_0 must be >= 1 or -1, got -2.0"),
    ("jsonl", {"positions": [5] * 13},
     "row 2: record 'p2': 13 positions, the first record has 14"),
    ("jsonl", {"positions": 5}, "row 2: column 'positions': not a list"),
    ("jsonl", {"positions": []}, "row 2: record 'p2': no positions"),
    ("jsonl", {"impressions": -3},
     "row 2: record 'p2': impressions must be a non-negative integer, got -3"),
    ("jsonl", {"clicks": -1}, "row 2: record 'p2': clicks must be a non-negative integer, got -1"),
    ("jsonl", {"clicks": 1.5},
     "row 2: record 'p2': clicks must be a non-negative integer, got 1.5"),
    ("jsonl", {"purchases": None},
     "row 2: record 'p2': purchases must be a non-negative integer, got None"),
    ("jsonl", {"product_id": 7}, "row 2: column 'product_id': not a string"),
    ("jsonl", {"category": ["a"]}, "row 2: column 'category': not a string"),
    ("jsonl", {"category": "c\ud800"}, "row 2: column 'category': not UTF-8: '\\ud800'"),
    ("jsonl", {"product_id": ""}, "row 2: empty product_id"),
    ("jsonl", {"category": "(all)"}, "row 2: category '(all)' is reserved for the rollup rows"),
    ("jsonl", {"product_id": "p1"}, "row 2: duplicate product_id 'p1'"),
    ("jsonl", {"clicks": 2**63}, f"row 2: record 'p2': clicks must be below 2**63, got {2**63}"),
]


def malformed_file(tmp_path, fmt, overrides):
    good = {"product_id": "p1", "category": "c0", "positions": [5] * 14,
            "impressions": 10, "clicks": 1, "purchases": 0}
    bad = dict(good, product_id="p2")
    for key, value in overrides.items():
        if key.startswith("pos_"):
            bad["positions"] = list(bad["positions"])
            bad["positions"][int(key[4:])] = value
        else:
            bad[key] = value
    path = tmp_path / f"bad.{fmt}"
    if fmt == "jsonl":
        path.write_text("".join(json.dumps(obj) + "\n" for obj in (good, bad)))
    else:
        header = ["product_id", "category", *(f"pos_{i}" for i in range(14)),
                  "impressions", "clicks", "purchases"]
        rows = [[obj["product_id"], obj["category"], *obj["positions"], obj["impressions"],
                 obj["clicks"], obj["purchases"]] for obj in (good, bad)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return path


@pytest.mark.parametrize(
    "fmt,overrides,message",
    MALFORMED_ROWS,
    ids=[f"{fmt}-{k}={v!r:.8}" for fmt, o, _ in MALFORMED_ROWS for k, v in o.items()],
)
def test_malformed_rows_pin_their_error_text(fmt, overrides, message, tmp_path, capsys):
    path = malformed_file(tmp_path, fmt, overrides)
    assert main(["check", "-i", str(path), "--property", "ditch", "--each"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


CSV_HEADER = ",".join(["product_id", "category", *(f"pos_{i}" for i in range(14)),
                       "impressions", "clicks", "purchases"]) + "\n"
CSV_ROWS = "".join(f"p{i:03d},c0," + "5," * 14 + "10,1,0\n" for i in range(300))
JSONL_ROW = '{"product_id":"p1","category":"c0","positions":[%s],' % ",".join(["5"] * 14) + (
    '"impressions":10,"clicks":1,"purchases":0}\n')

# Malformed files, as raw bytes: (file name, content, the whole stderr). The
# bytes 0xff and 0xe9 here are never UTF-8; p250 starts at byte 10,887,
# past the text reader's first 8 KiB decode chunk. In quoted.csv the id of
# row 2 holds a "\r", so row 4 starts on line 5; a schema fault there names
# row 4 too. A header holding a bad byte is a bad header.
BAD_HEADER = "bad header; expected " + repr(CSV_HEADER[:-1])
WRONG_HEADER_THEN_BAD_BYTE = (b"product_id,category,pos_0,pos_X,impressions,clicks,purchases\n"
                              b"p1,c,5,5,1,1,1\np2,c,5,5\xff,1,1,1\n")
MALFORMED_FILES = [
    ("empty.csv", b"", "error: empty.csv: empty file\n"),
    ("list.jsonl", b"[1]\n", "error: row 1: expected an object\n"),
    ("header.csv", (CSV_HEADER + CSV_ROWS).encode().replace(b"_id", b"\xffid"),
     f"error: header.csv: {BAD_HEADER}\n"),
    ("late.csv", (CSV_HEADER + CSV_ROWS).encode().replace(b"p250", b"\xff250"),
     "error: row 252: not UTF-8: byte 0xff\n"),
    ("quoted.csv", (CSV_HEADER + CSV_ROWS).encode().replace(b"p000,", b'"p\r000",')
     .replace(b"p002", b"\xff002"),
     "error: row 4: not UTF-8: byte 0xff\n"),
    ("row.jsonl", (JSONL_ROW + JSONL_ROW.replace("p1", "p2").replace("c0", "c\xe9"))
     .encode("latin-1"),
     "error: row 2: not UTF-8: byte 0xe9\n"),
    # A key the record ignores is read too: its bad byte fails the row.
    ("note.jsonl", JSONL_ROW.replace("{", '{"note\xff":1,').encode("latin-1"),
     "error: row 1: not UTF-8: byte 0xff\n"),
    # A wrong header with a bad byte in a later row: the header comes first.
    ("wrong_header.csv", WRONG_HEADER_THEN_BAD_BYTE,
     "error: wrong_header.csv: bad header; expected"
     " 'product_id,category,pos_0,pos_1,impressions,clicks,purchases'\n"),
    # A bad row before the bad byte's row is the error, as in a UTF-8 file;
    # a bad byte in the header still comes first.
    ("first_bad_row.csv", (CSV_HEADER + "".join(CSV_ROWS.splitlines(True)[:4]))
     .replace("p001,c0,5,", "p001,c0,zero,").encode().replace(b"p003,c0", b"p003,c\xff"),
     "error: row 3: column 'pos_0': not a number: 'zero'\n"),
    ("first_bad_row.jsonl", (JSONL_ROW.replace("[5,5,", '[5,"x",') + JSONL_ROW.replace("p1", "p2"))
     .encode().replace(b"p2", b"p\xff2"),
     "error: row 1: column 'pos_1': not a number: 'x'\n"),
    ("bad_header_first.csv", (CSV_HEADER + CSV_ROWS).replace("p001,c0,5,", "p001,c0,zero,")
     .encode().replace(b"_id", b"\xffid"),
     f"error: bad_header_first.csv: {BAD_HEADER}\n"),
]


@pytest.mark.parametrize("name, content, err", MALFORMED_FILES,
                         ids=[name for name, _, _ in MALFORMED_FILES])
def test_malformed_files_pin_their_error_text(name, content, err, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(content)
    assert main(["check", "-i", name, "--property", "ditch", "--each"]) == 2
    assert capsys.readouterr() == ("", err)


# Whole files under byte edits, header included: every dataset subcommand
# ends in a result or a typed error, never a traceback, and what loads
# round-trips through both writers. An edit (i, n, token) puts `token` in
# place of the n bytes at offset i, taken modulo the file's length + 1; the
# @example replaces the whole file with one that once ended in a traceback.
GATE_BASE = generate(GeneratorConfig(
    n_records=6, pattern_mix={p: 1 / 6 for p in PATTERNS}, category_count=2, seed=5))
GATE_TOKENS = [b",", b'"', b"\r", b"\n", b"\xff", b"\xe9", b"\x00", b"-1", b"nan", b"1e400",
               b"{", b"[", b"", b"1", b"9", b".", b"\xc3\xa9", b"p000001"]
# A third of all edits insert a token, a third replace one byte, and a third
# keep the file valid, so that many mutated files load: ("cell", k, number)
# writes `number` in place of the k-th position cell (a number with a point,
# or -1), ("id", k, _) puts a comma in product id p00000k (k taken modulo 6),
# quoted in CSV, and ("crlf", _, _) ends every line in \r\n.
GATE_POSITION_CELL = re.compile(rb"(?<=[,\[])(?:[0-9]+\.[0-9]+|-1)(?=[,\]])")
GATE_EDITS = st.one_of(
    st.tuples(st.integers(0, 1200), st.just(0), st.sampled_from(GATE_TOKENS)),
    st.tuples(st.integers(0, 1200), st.just(1), st.sampled_from(GATE_TOKENS)),
    st.tuples(st.sampled_from(["cell", "id", "crlf"]), st.integers(0, 83),
              st.sampled_from([b"1", b"-1", b"7.5", b"100", b"2.25", b"1e2"])),
)
GATE_COMMANDS = [["rates"], ["rates", "--complete-only"], ["metrics"],
                 ["check", "--property", "reach"],
                 ["check", "--formula", "F[0,3](d1(x) < -2) & G(x >= 1)", "--each"],
                 ["kmeans", "--k", "2"]]


def gate_edited(data, fmt, edit):
    """`data` after one edit of `GATE_EDITS`."""
    i, n, token = edit
    if i == "crlf":
        return data.replace(b"\n", b"\r\n")
    if i == "cell":
        cells = [m.span() for m in GATE_POSITION_CELL.finditer(data)]
        if not cells:
            return data
        start, end = cells[n % len(cells)]
        return data[:start] + token + data[end:]
    if i == "id":
        comma = b"p,%d" % (n % 6)
        return data.replace(b"p%06d" % (n % 6), b'"%s"' % comma if fmt == "csv" else comma)
    i %= len(data) + 1
    return data[:i] + token + data[i + n:]


def columns_of(ds):
    return (ds.ids, ds.categories, ds.category_codes.tolist(), ds.positions.shape,
            ds.positions.tobytes(), ds.counters.tolist())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(["csv", "jsonl"]),
       edits=st.lists(GATE_EDITS, min_size=1, max_size=3))
@example(fmt="csv", edits=[(0, 10 ** 6, WRONG_HEADER_THEN_BAD_BYTE)])
def test_mutated_files_end_in_a_result_or_a_typed_error(fmt, edits, tmp_path, capsys):
    path = tmp_path / f"gate.{fmt}"
    write_dataset(GATE_BASE, str(path))
    data = path.read_bytes()
    for edit in edits:
        data = gate_edited(data, fmt, edit)
    path.write_bytes(data)
    for command in GATE_COMMANDS:
        code = main([command[0], "-i", str(path), *command[1:]])
        out, err = capsys.readouterr()
        assert code in (0, 2) or code == 1 and err.startswith("error: [Errno"), (command, err)
        assert (err == "") == (code == 0), (command, err)
        assert code == 0 or err.startswith("error: ") and out == "", (command, out, err)
    try:
        loaded = load_dataset(str(path))
    except DatasetError:
        return
    for suffix in (".csv", ".jsonl"):
        again = tmp_path / ("again" + suffix)
        write_dataset(loaded, str(again))
        assert columns_of(load_dataset(str(again))) == columns_of(loaded)


# CLI paths no other test reaches: (argv, exit code, stdout, stderr), run
# where f.stl holds "x < 6" and twins.csv three records, two of them equal.
CLI_PATHS = [
    (["check", "-i", "twins.csv", "--formula-file", "f.stl"], 0,
     "formula: x < 6\nsatisfied 2/3 (0.6667)\n", ""),
    (["generate", "-o", "x.csv", "--n", "10", "--mix", "flat=abc"], 2, "",
     "error: bad --mix entry 'flat=abc': 'abc' is not a number\n"),
    (["expand", "--property", "ditch", "--horizon", "-1"], 2, "",
     "error: horizon must be non-negative\n"),
    (["kmeans", "-i", "twins.csv", "--k", "3"], 2, "",
     "error: fewer than k=3 distinct records to seed centroids\n"),
    (["generate", "-o", "x.csv", "--n", "10", "--mix", "flat=1", "--categories", "0"], 2, "",
     "error: category_count must be at least 1\n"),
    (["generate", "-o", "x.csv", "--n", "10", "--mix", "flat=1.5,cold=-0.5"], 2, "",
     "error: pattern 'flat': share 1.5 out of [0, 1]\n"),
    (["generate", "-o", "x.csv", "--n", "99999999999999999999", "--mix", "cold=1"], 2, "",
     "error: n_records must be below 2**63, got 99999999999999999999\n"),
]


@pytest.mark.parametrize("argv, code, out, err", CLI_PATHS,
                         ids=["formula-file", "mix-not-a-number", "negative-horizon",
                              "kmeans-k-distinct", "no-categories", "share-out-of-range",
                              "n-records-past-int64"])
def test_cli_paths_pin_exit_code_and_output(argv, code, out, err, tmp_path, capsys,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.stl").write_text("x < 6\n")
    (tmp_path / "twins.csv").write_text(
        CSV_HEADER + "".join(CSV_ROWS.splitlines(True)[:2]) + "p002,c0," + "7," * 14 + "10,1,0\n")
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    assert not (tmp_path / "x.csv").exists()


def test_kmeans_on_a_file_with_no_records(tmp_path, capsys):
    path = tmp_path / "header_only.csv"
    write_csv(Dataset([]), str(path))
    assert main(["kmeans", "-i", str(path), "--k", "2"]) == 2
    assert capsys.readouterr().err == "error: need at least k=2 usable records, have 0\n"


def test_check_on_a_file_with_no_records_reads_no_channel(tmp_path, capsys):
    path = tmp_path / "header_only.csv"
    write_csv(Dataset([]), str(path))
    assert main(["check", "-i", str(path), "--formula", "y < 1"]) == 0
    assert capsys.readouterr() == ("formula: y < 1\nsatisfied 0/0 (nan)\n", "")


D1_UNKNOWN = "error: formula mentions unknown channel 'd1(x)'\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["check", "--formula", "x < 5"], 0, "formula: x < 5\nsatisfied 1/1 (1.0000)\n", ""),
    (["check", "--formula", "F(d1(x) < 5)"], 2, "", D1_UNKNOWN),
    (["rates"], 2, "", D1_UNKNOWN),
    (["kmeans", "--k", "1"], 2, "", D1_UNKNOWN),
], ids=["x", "d1", "rates", "kmeans"])
def test_a_one_day_file_has_no_derivative_channel(argv, code, out, err, tmp_path, capsys):
    path = tmp_path / "one_day.csv"
    path.write_text("product_id,category,pos_0,impressions,clicks,purchases\np1,c0,3,1,0,0\n")
    assert main([argv[0], "-i", str(path), *argv[1:]]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("max_iter", ["0", "-2"])
def test_kmeans_max_iter_below_one_is_a_usage_error(max_iter, dataset, capsys):
    assert main(["kmeans", "-i", str(dataset), "--k", "2", "--max-iter", max_iter]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_iter must be at least 1\n"


def test_kmeans_negative_seed_is_a_usage_error(dataset, capsys):
    assert main(["kmeans", "-i", str(dataset), "--k", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")


RATES_OF_NO_RECORDS = """\
category  property      satisfied  total  rate
(all)     flat_start            0      0    NA
(all)     cold_start            0      0    NA
(all)     warm_start            0      0    NA
(all)     steady_state          0      0    NA
(all)     reach                 0      0    NA
(all)     ditch                 0      0    NA
(all)     spike                 0      0    NA
(all)     no_init_miss          0      0    NA
(all)     no_long_miss          0      0    NA
"""
RATES_OF_ONE_FLAT_RECORD = """\
category  property      satisfied  total    rate
c0        flat_start            1      1  1.0000
c0        cold_start            0      1  0.0000
c0        warm_start            0      1  0.0000
c0        steady_state          1      1  1.0000
c0        reach                 0      1  0.0000
c0        ditch                 0      1  0.0000
c0        spike                 0      1  0.0000
c0        no_init_miss          1      1  1.0000
c0        no_long_miss          1      1  1.0000
(all)     flat_start            1      1  1.0000
(all)     cold_start            0      1  0.0000
(all)     warm_start            0      1  0.0000
(all)     steady_state          1      1  1.0000
(all)     reach                 0      1  0.0000
(all)     ditch                 0      1  0.0000
(all)     spike                 0      1  0.0000
(all)     no_init_miss          1      1  1.0000
(all)     no_long_miss          1      1  1.0000
"""


@pytest.mark.parametrize("rows,rates,records", [
    ("", RATES_OF_NO_RECORDS, 0),
    ("p1,c0," + "5," * 14 + "10,1,0\n", RATES_OF_ONE_FLAT_RECORD, 1),
], ids=["header-only", "one-row"])
def test_small_csv_files_print_no_warning(rows, rates, records, tmp_path):
    """Run with every warning shown: stderr holds the error line or nothing."""
    header = ["product_id", "category", *(f"pos_{i}" for i in range(14)),
              "impressions", "clicks", "purchases"]
    (tmp_path / "small.csv").write_text(",".join(header) + "\n" + rows)

    def run(*args):
        return subprocess.run(
            [sys.executable, "-X", "dev", "-m", "stlrank", *args, "-i", "small.csv"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=60,
        )

    done = run("rates")
    assert (done.returncode, done.stdout, done.stderr) == (0, rates, "")
    done = run("kmeans", "--k", "2")
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: need at least k=2 usable records, have {records}\n")


def test_usage_error_exit_code(capsys):
    assert main(["check"]) == 2
    assert main(["unknown-subcommand"]) == 2


def test_rates_csv_and_plot_data(dataset, tmp_path, capsys):
    out = tmp_path / "rates.csv"
    dat = tmp_path / "rates.dat"
    code = main(
        ["rates", "-i", str(dataset), "-o", str(out), "--emit-plot-data", str(dat)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "category,property,satisfied,total,rate"
    assert any(ln.startswith("(all),flat_start,100,200,0.500000") for ln in lines)
    assert dat.read_text().startswith("# category ")


def test_rates_param_override(dataset, capsys):
    code = main(["rates", "-i", str(dataset), "--w", "5", "--d", "11"])
    assert code == 0
    capsys.readouterr()
    assert main(["rates", "-i", str(dataset), "--param", "w=5"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --param w=5\n")


def test_the_param_flags_are_the_property_params_fields():
    assert list(_PARAM_HELP) == list(PropertyParams.__dataclass_fields__)


@pytest.mark.parametrize("argv, formula, satisfied", [
    (["--property", "reach"], "G(x < 10 -> F(x == 1))", 1),
    (["--property", "reach", "--eq-tolerance", "0.1"], "G(x < 10 -> F(x == 1))", 0),
    (["--property", "reach", "--eq-tolerance", "0.1", "--r", "1.3"],
     "G(x < 10 -> F(x == 1.3))", 1),
    (["--property", "reach", "--eq-tolerance", "0.1", "--s", "1"], "G(x < 1 -> F(x == 1))", 1),
    (["--property", "flat_start"], "G[0,3](abs(d1(x)) < 1)", 0),
    (["--property", "flat_start", "--epsilon", "7", "--w", "1"], "G[0,1](abs(d1(x)) < 7)", 1),
    (["--property", "spike", "--d", "3"], "F(d1(x) < -3 & F[0,2](d1(x) > 3))", 0),
], ids=["reach", "eq-tolerance", "r", "s", "flat_start", "epsilon-w", "d"])
def test_each_param_flag_reaches_the_property(argv, formula, satisfied, tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("product_id,category,pos_0,pos_1,pos_2,pos_3,impressions,clicks,purchases\n"
                    "p1,c0,12,8,1.3,1.3,1,0,0\n")
    assert main(["check", "-i", str(path), *argv]) == 0
    assert capsys.readouterr().out == (
        f"formula: {formula}\nsatisfied {satisfied}/1 ({satisfied:.4f})\n")


def test_metrics_table(dataset, capsys):
    assert main(["metrics", "-i", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["property", "group", "metric", "count", "mean"]


def test_generate_is_deterministic(tmp_path):
    args = ["generate", "--n", "100", "--mix", "flat=0.5,missing=0.5", "--seed", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_labels_sidecar(tmp_path):
    out = tmp_path / "data.csv"
    code = main(
        ["generate", "-o", str(out), "--n", "50", "--mix", "flat=1.0", "--labels"]
    )
    assert code == 0
    sidecar = tmp_path / "data.labels.csv"
    lines = sidecar.read_text().splitlines()
    assert lines[0] == "product_id,planted_pattern"
    assert len(lines) == 51


def test_generate_invalid_mix(tmp_path, capsys):
    code = main(
        ["generate", "-o", str(tmp_path / "x.csv"), "--n", "10", "--mix", "flat=0.9"]
    )
    assert code == 2
    code = main(
        ["generate", "-o", str(tmp_path / "x.csv"), "--n", "10", "--mix", "flat"]
    )
    assert code == 2
    # A repeated pattern is named, not overwritten by its last share.
    for mix in ("flat=1,flat=0", "flat=0.5, flat=0.5"):
        capsys.readouterr()
        assert main(["generate", "-o", str(tmp_path / "x.csv"), "--n", "10", "--mix", mix]) == 2
        assert "pattern 'flat' is repeated" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_generate_needs_a_finite_noise_sigma(sigma, tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["generate", "-o", str(out), "--n", "10", "--mix", "flat=1.0", "--noise-sigma", sigma]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: noise_sigma must be finite, got {sigma}\n"
    assert not out.exists()


def test_generate_with_a_huge_noise_sigma_prints_no_warning(tmp_path):
    """Run with every warning shown: noise that rounds to inf is named by
    the error line alone, and no file is written."""
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "stlrank", "generate", "--n", "20",
         "--mix", "flat=0.5,missing=0.5", "--noise-sigma", "1e305", "-o", "big.csv"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: row 4: record 'p000003': pos_8 must be >= 1 or -1, got inf\n")
    assert not (tmp_path / "big.csv").exists()


def test_generate_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["generate", "-o", str(out), "--n", "10", "--mix", "flat=1.0", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")
    assert not out.exists()


def test_generate_jsonl_format(tmp_path):
    out = tmp_path / "data.jsonl"
    assert main(["generate", "-o", str(out), "--n", "20", "--mix", "flat=1.0"]) == 0
    assert out.read_text().splitlines()[0].startswith('{"product_id"')


def test_expand_report(capsys):
    code = main(["expand", "--property", "ditch", "--horizon", "13"])
    assert code == 0
    out = capsys.readouterr().out
    assert "grounded operator count: 39" in out
    assert "source operator count: 3" in out


def test_expand_query_string(capsys):
    code = main(["expand", "--property", "ditch", "--horizon", "1", "--w", "1", "--query"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip() == "df[((df.pos_0 > 10) & ((df.pos_0 < -10) | (df.pos_1 < -10)))]"
    assert main(["expand", "--property", "flat_start", "--horizon", "5", "--query"]) == 2


@pytest.mark.parametrize("window", [["--w", "2.5"], ["--w", "0.5"]])
def test_expand_query_with_a_fractional_window_is_a_usage_error(window, capsys):
    argv = ["expand", "--property", "ditch", "--query", "--horizon", "5", *window]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --query requires a whole-day window w, got {window[1]}\n"


def test_days_is_no_longer_an_option(dataset, capsys):
    assert main(["rates", "-i", str(dataset), "--days", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --days 14\n")


def test_expand_formula_to_file(tmp_path, capsys):
    out = tmp_path / "expansion.txt"
    code = main(
        ["expand", "--formula", "G[0,2](x <= 0)", "--horizon", "13", "-o", str(out)]
    )
    assert code == 0
    assert out.read_text().strip() == "(x[0] <= 0) & (x[1] <= 0) & (x[2] <= 0)"


def test_kmeans_summary(tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(
        [
            "generate", "-o", str(data), "--n", "300",
            "--mix", "spiky=0.6,flat=0.4", "--seed", "11",
        ]
    )
    cent = tmp_path / "centroids.csv"
    plot = tmp_path / "centroids.dat"
    code = main(["kmeans", "-i", str(data), "--k", "4", "--seed", "5", "-o", str(cent),
                 "--emit-plot-data", str(plot)])
    assert code == 0
    out = capsys.readouterr().out
    assert "centroids satisfying ditch or spike:" in out
    lines = cent.read_text().splitlines()
    assert lines[0].startswith("centroid,pos_0,")
    assert len(lines) == 5
    result = cluster_kmeans(load_dataset(str(data)), k=4, seed=5)
    assert plot.read_text() == centroids_plot_data(result)
    assert plot.read_text().splitlines()[0] == "# day c0 c1 c2 c3"


def test_rates_and_metrics_csv_quote_fields(tmp_path, capsys):
    odd = 'a,"b'
    recs = [
        ProductRecord(f"p{i}", odd if i % 2 else "plain", (float(10 + i),) * 14, 5, 1, 0)
        for i in range(6)
    ]
    data = tmp_path / "data.csv"
    write_csv(Dataset(recs), str(data))
    for command in ("rates", "metrics"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "-i", str(data), "-o", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {5}
    with open(tmp_path / "rates.csv", newline="", encoding="utf-8") as fh:
        assert {row["category"] for row in csv.DictReader(fh)} == {"plain", odd, "(all)"}


def test_rates_complete_only_drops_a_category_left_empty(tmp_path):
    gap = (5.0,) * 6 + (-1.0,) + (5.0,) * 7
    recs = [
        ProductRecord("p0", "b", gap, 1, 1, 1),
        ProductRecord("p1", "gone", gap, 1, 1, 1),
        ProductRecord("p2", "a", (5.0,) * 14, 1, 1, 1),
        ProductRecord("p3", "b", (6.0,) * 14, 1, 1, 1),
        ProductRecord("p4", "gone", (-1.0,) * 14, 1, 1, 1),
    ]
    data = tmp_path / "data.csv"
    write_csv(Dataset(recs), str(data))
    out = tmp_path / "rates.csv"
    for extra, expected in (([], [("b", "2"), ("gone", "2"), ("a", "1"), ("(all)", "5")]),
                            (["--complete-only"], [("a", "1"), ("b", "1"), ("(all)", "2")])):
        assert main(["rates", "-i", str(data), "-o", str(out), *extra]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["property"] == "flat_start"]
        assert [(r["category"], r["total"]) for r in rows] == expected


def test_a_term_that_overflows_compares_without_a_warning(dataset, capsys):
    """x * 1e300 * 1e300 overflows to inf: inf > 1 holds, and inf - inf is
    NaN, which no comparison holds for."""
    for formula, satisfied in (("x*1e300*1e300 > 1", "200/200 (1.0000)"),
                               ("x*1e300*1e300 != x*1e300*1e300", "0/200 (0.0000)")):
        assert main(["check", "-i", str(dataset), "--formula", formula]) == 0
        out, err = capsys.readouterr()
        assert (out.splitlines()[-1], err) == (f"satisfied {satisfied}", "")


def test_expand_past_the_node_budget_is_a_usage_error(capsys):
    for formula, horizon in (("F(G(F(x < 1)))", "300"), ("F[0,1e15](x < 1)", "3"),
                             ("F[0,1e300](x < 1)", "3")):
        code = main(["expand", "--formula", formula, "--horizon", horizon])
        assert code == 2
        assert capsys.readouterr().err == "error: expansion exceeds 500000 grounded nodes\n"


def test_generate_and_rates_read_one_format_rule(tmp_path, capsys):
    outs = []
    for name in ("d.csv", "d.json"):
        path = tmp_path / name
        assert main(["generate", "-o", str(path), "--n", "120", "--categories", "3",
                     "--mix", "flat=0.5,spiky=0.5", "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["rates", "-i", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert (tmp_path / "d.json").read_text().startswith('{"product_id"')
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, message", [
    (["check", "-i", "data.csv"], "formula mentions unknown channel 'a'"),
    (["expand", "--horizon", "3"], "cannot ground channel 'a' over a day horizon"),
], ids=["check", "expand"])
def test_unknown_channel_text_does_not_depend_on_the_hash_seed(argv, message, dataset):
    for seed in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "stlrank", *argv, "--formula", "a < 1 & b < 1 & c < 1"],
            cwd=dataset.parent, env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=60,
        )
        assert (run.returncode, run.stderr) == (2, f"error: {message}\n")


def test_cli_option_strings_are_pinned():
    """Adding or removing a flag must update this list."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in sub.choices.items()}
    surface[None] = sorted(s for a in parser._actions for s in a.option_strings)
    dataset = ["--complete-only", "--input", "-i"]
    params = ["--d", "--epsilon", "--eq-tolerance", "--r", "--s", "--w"]
    formula = ["--formula", "--formula-file", "--property"]
    common = ["--help", "-h"]
    assert surface == {
        None: sorted(common + ["--version"]),
        "check": sorted(common + dataset + params + formula + ["--each", "--strict-until"]),
        "rates": sorted(common + dataset + params + ["--emit-plot-data", "--output", "-o"]),
        "metrics": sorted(common + dataset + params + ["--output", "-o"]),
        "generate": sorted(common + ["--categories", "--labels", "--mix", "--n",
                                     "--noise-sigma", "--output", "--seed", "-o"]),
        "expand": sorted(common + params + formula + ["--horizon", "--query", "--output", "-o"]),
        "kmeans": sorted(common + dataset + ["--emit-plot-data", "--k", "--max-iter",
                                             "--output", "--seed", "-o"]),
    }


def test_every_parser_takes_flags_only_in_full():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: p.allow_abbrev for name, p in [(None, parser), *sub.choices.items()]} == {
        name: False for name in (None, "check", "rates", "metrics", "generate", "expand", "kmeans")
    }


def test_an_abbreviated_flag_is_a_usage_error(dataset, capsys):
    """`--eps` is not read as `--epsilon`: a prefix is an unknown argument."""
    capsys.readouterr()
    assert main(["rates", "-i", str(dataset), "--eps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("stlrank: error: unrecognized arguments: --eps 2\n")


# ---------------------------------------------------------------------------
# End to end against the oracle: the CLI outputs rebuilt here from eval_naive
# verdicts on trace sets made independently of stlrank.ingest.
# ---------------------------------------------------------------------------

ORACLE_FORMULAS = (
    "(x > 20) U[0,6] (d1(x) < -2)",
    "!(F[0,3.5]((x > 30) U[0,2] (d1(x) > 1)))",
    "G((x == -1) -> F[0.5,3.5](x > 0))",
    "true U[1,3] (abs(d1(x)) * 2 != 4)",
)


def reference_traceset(positions):
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.size
    touches_missing = (pos[:-1] == -1.0) | (pos[1:] == -1.0)
    diff = np.where(touches_missing, 0.0, pos[1:] - pos[:-1])
    return TraceSet(
        [Trace("x", np.arange(n), pos), Trace("d1(x)", np.arange(n - 1), diff)]
    )


def naive_verdicts(ds, formulas, strict=False):
    traces = [reference_traceset(rec.positions) for rec in ds.records]
    return np.array(
        [[eval_naive(f, w, until_strict=strict) for f in formulas] for w in traces],
        dtype=bool,
    ).reshape(len(traces), len(formulas))


def expected_rates_csv(ds, names, verdicts):
    cats = list(dict.fromkeys(rec.category for rec in ds.records))
    rec_cats = [rec.category for rec in ds.records]
    lines = ["category,property,satisfied,total,rate"]
    for j, name in enumerate(names):
        for cat in cats:
            members = [i for i, c in enumerate(rec_cats) if c == cat]
            sat = int(verdicts[members, j].sum())
            lines.append(f"{cat},{name},{sat},{len(members)},{sat / len(members):.6f}")
    for j, name in enumerate(names):
        sat = int(verdicts[:, j].sum())
        lines.append(f"(all),{name},{sat},{len(rec_cats)},{sat / len(rec_cats):.6f}")
    return "\n".join(lines) + "\n"


def expected_metrics_csv(ds, names, verdicts):
    lines = ["property,group,metric,count,mean"]
    for j, name in enumerate(names):
        for group, mask in (("satisfied", verdicts[:, j]), ("violated", ~verdicts[:, j])):
            for metric in ("impressions", "clicks", "purchases"):
                values = np.array(
                    [getattr(rec, metric) for rec, m in zip(ds.records, mask) if m],
                    dtype=np.float64,
                )
                mean = f"{values.mean():.4f}" if values.size else "NA"
                lines.append(f"{name},{group},{metric},{values.size},{mean}")
    return "\n".join(lines) + "\n"


def expected_check(ds, text, verdicts):
    lines = [
        f"{rec.product_id}\t{'satisfied' if ok else 'violated'}"
        for rec, ok in zip(ds.records, verdicts)
    ]
    sat = int(verdicts.sum())
    lines.append(f"formula: {print_formula(parse_formula(text))}")
    lines.append(f"satisfied {sat}/{len(lines) - 1} ({sat / (len(lines) - 1):.4f})")
    return "\n".join(lines) + "\n"


def test_outputs_match_the_naive_oracle(tmp_path, capsys):
    data = tmp_path / "data.csv"
    mix = "flat=0.2,cold=0.15,warm=0.15,spiky=0.2,missing=0.15,random=0.15"
    assert main([
        "generate", "-o", str(data), "--n", "240", "--categories", "7",
        "--noise-sigma", "0.5", "--mix", mix, "--seed", "19",
    ]) == 0
    ds = load_dataset(str(data))
    specs = default_library()
    names = [spec.name for spec in specs]
    verdicts = naive_verdicts(ds, [spec.formula for spec in specs])

    rates, metrics = tmp_path / "rates.csv", tmp_path / "metrics.csv"
    assert main(["rates", "-i", str(data), "-o", str(rates)]) == 0
    assert main(["metrics", "-i", str(data), "-o", str(metrics)]) == 0
    assert rates.read_text() == expected_rates_csv(ds, names, verdicts)
    assert metrics.read_text() == expected_metrics_csv(ds, names, verdicts)

    capsys.readouterr()
    for text in ORACLE_FORMULAS:
        for strict in (False, True):
            argv = ["check", "-i", str(data), "--each", "--formula", text]
            assert main(argv + (["--strict-until"] if strict else [])) == 0
            want = naive_verdicts(ds, [parse_formula(text)], strict)[:, 0]
            assert capsys.readouterr().out == expected_check(ds, text, want)


def expected_kmeans(ds, k, seed):
    """The `kmeans` summary, with eval_naive verdicts on the centroids."""
    result = cluster_kmeans(ds, k=k, seed=seed)
    lines, hits = [], 0
    for c, centroid in enumerate(result.centroids):
        w = reference_traceset(centroid)
        ditch, spike = (eval_naive(build(name).formula, w) for name in ("ditch", "spike"))
        hits += ditch or spike
        size = int((result.assignments == c).sum())
        lines.append(f"centroid {c}: size={size} ditch={'yes' if ditch else 'no'}"
                     f" spike={'yes' if spike else 'no'}")
    lines.append(f"iterations: {result.iterations}")
    lines.append(f"distortion: {result.distortion_history[-1]:.4f}")
    lines.append(f"centroids satisfying ditch or spike: {hits}/{k}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_a_ten_day_file_needs_no_option(suffix, tmp_path, capsys):
    """The file gives the day count: 10-day records run through rates,
    check --each and kmeans with no flag, and match the naive oracle."""
    full = tmp_path / "full.csv"
    mix = "flat=0.2,cold=0.15,warm=0.15,spiky=0.2,missing=0.15,random=0.15"
    assert main(["generate", "-o", str(full), "--n", "120", "--categories", "5",
                 "--noise-sigma", "0.5", "--mix", mix, "--seed", "23"]) == 0
    ds = Dataset(ProductRecord(r.product_id, r.category, r.positions[:10], r.impressions,
                               r.clicks, r.purchases) for r in load_dataset(str(full)).records)
    data = tmp_path / ("ten" + suffix)
    write_dataset(ds, str(data))
    assert load_dataset(str(data)).positions.shape == (120, 10)
    specs = default_library()
    names = [spec.name for spec in specs]
    verdicts = naive_verdicts(ds, [spec.formula for spec in specs])

    rates = tmp_path / "rates.csv"
    assert main(["rates", "-i", str(data), "-o", str(rates)]) == 0
    assert rates.read_text() == expected_rates_csv(ds, names, verdicts)

    capsys.readouterr()
    for text in ORACLE_FORMULAS:
        for strict in (False, True):
            argv = ["check", "-i", str(data), "--each", "--formula", text]
            assert main(argv + (["--strict-until"] if strict else [])) == 0
            want = naive_verdicts(ds, [parse_formula(text)], strict)[:, 0]
            assert capsys.readouterr().out == expected_check(ds, text, want)

    cent = tmp_path / "centroids.csv"
    assert main(["kmeans", "-i", str(data), "--k", "4", "--seed", "3", "-o", str(cent)]) == 0
    assert capsys.readouterr().out == expected_kmeans(ds, 4, 3)
    assert cent.read_text().splitlines()[0] == ",".join(
        ["centroid", *(f"pos_{i}" for i in range(10))])


def readme_commands(text):
    """Each `stlrank ...` or `python -m stlrank ...` command in the fenced
    code blocks of `text`, as an argument list, with continued lines joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            for prefix in (["stlrank"], ["python", "-m", "stlrank"],
                           ["python3", "-m", "stlrank"]):
                if words[:len(prefix)] == prefix:
                    commands.append(words[len(prefix):])
    return commands


def unparsed(commands):
    """The commands `build_parser()` rejects."""
    bad = []
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            bad.append(argv)
    return bad


def readme_text():
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_readme_commands_parse(capsys):
    """A removed or renamed flag cannot leave the README stale."""
    commands = readme_commands(readme_text())
    assert len(commands) >= 7
    assert unparsed(commands) == []
    stale = "```sh\npython -m stlrank rates -i data.csv \\\n    --days 10\n```\n"
    assert unparsed(readme_commands(stale)) == [["rates", "-i", "data.csv", "--days", "10"]]


def test_readme_python_examples_run(capsys):
    """A removed or renamed name or import path cannot leave the README's
    Python stale: each fenced python block runs and prints its pinned output."""
    outputs = []
    for block in re.findall(r"^```python\n(.*?)^```", readme_text(), flags=re.M | re.S):
        exec(compile(block, "README.md", "exec"), {})
        outputs.append(capsys.readouterr().out)
    assert outputs == ["True\n"]
