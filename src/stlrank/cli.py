"""Command line interface.

Subcommands:

    check     evaluate one formula or named property over a dataset
    rates     satisfaction rates for the property library, per category
    metrics   engagement metric means among satisfying/violating records
    generate  write a synthetic dataset for a pattern mix
    expand    ground a formula over a day horizon, or render a query string
    kmeans    cluster position rows and test centroids for jump patterns

Exit codes: 0 on success, 1 for IO failures, 2 for usage, parse, or schema
errors (argparse's own usage failures also exit 2).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analytics import (
    _csv_text,
    centroids_plot_data,
    cluster_kmeans,
    expand_propositional,
    expand_query,
    metric_distribution,
    rates_plot_data,
    satisfaction_rates,
    verdict_matrix,
)
from .core.semantics import EvaluationError
from .ingest import (
    DatasetError,
    filter_complete,
    generate,
    GeneratorConfig,
    labels_path_for,
    load_dataset,
    write_dataset,
    write_labels,
)
from .parser import ParseError, parse_formula, print_formula
from .props import PROPERTY_NAMES, build, default_library

__all__ = ["main", "entry"]

# One flag per `PropertyParams` field, `--w` to `--eq-tolerance`.
_PARAM_HELP = {
    "w": "window length in days",
    "epsilon": "flatness threshold",
    "d": "jump threshold",
    "s": "reach trigger position",
    "r": "reach target position",
    "eq_tolerance": "reach equality tolerance",
}


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", "-i", required=True, help="dataset file (csv or jsonl)")
    p.add_argument(
        "--complete-only",
        action="store_true",
        help="drop records with missing days before evaluating",
    )


def _add_param_args(p: argparse.ArgumentParser) -> None:
    for name, text in _PARAM_HELP.items():
        p.add_argument("--" + name.replace("_", "-"), type=float, help=text)


def _add_formula_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--property",
        choices=PROPERTY_NAMES,
        help="named property from the built-in library",
    )
    g.add_argument("--formula", help="formula text")
    g.add_argument("--formula-file", help="file containing formula text")


def _collect_overrides(args: argparse.Namespace) -> dict[str, float]:
    return {name: value for name in _PARAM_HELP if (value := getattr(args, name)) is not None}


def _resolve_formula(args: argparse.Namespace):
    """The formula to run, from --property/--formula/--formula-file."""
    overrides = _collect_overrides(args)
    if args.property:
        return build(args.property, **overrides).formula
    if overrides:
        raise ValueError("parameter overrides only apply to --property")
    if args.formula is not None:
        return parse_formula(args.formula)
    with open(args.formula_file, "r", encoding="utf-8") as fh:
        return parse_formula(fh.read().strip())


def _load(args: argparse.Namespace):
    ds = load_dataset(args.input)
    if getattr(args, "complete_only", False):
        ds = filter_complete(ds)
    return ds


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _id_field(pid: str) -> str:
    """`pid` with CR, LF and tab written as the escapes \\r, \\n and \\t, so
    that each record of `check --each` is one id<TAB>verdict line."""
    return pid.replace("\r", "\\r").replace("\n", "\\n").replace("\t", "\\t")


def _cmd_check(args: argparse.Namespace) -> int:
    formula = _resolve_formula(args)
    ds = _load(args)
    verdicts = verdict_matrix(ds.positions, [formula], until_strict=args.strict_until)[:, 0]
    if args.each:
        sys.stdout.writelines(f"{_id_field(pid)}\t{'satisfied' if ok else 'violated'}\n"
                              for pid, ok in zip(ds.ids, verdicts.tolist()))
    satisfied = int(verdicts.sum())
    total = len(ds)
    rate = satisfied / total if total else float("nan")
    print(f"formula: {print_formula(formula)}")
    print(f"satisfied {satisfied}/{total} ({rate:.4f})")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    """`rates` and `metrics`: `args.table` tabulates the property library."""
    specs = default_library(**_collect_overrides(args))
    table = args.table(_load(args), specs)
    if args.output:
        _write_text(args.output, table.to_csv_text())
    else:
        sys.stdout.write(table.to_text())
    if getattr(args, "emit_plot_data", None):
        _write_text(args.emit_plot_data, rates_plot_data(table))
    return 0


def _parse_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"bad --mix entry {part!r}; expected NAME=SHARE")
        if name in mix:
            raise ValueError(f"bad --mix entry {part!r}: pattern {name!r} is repeated")
        try:
            mix[name] = float(value)
        except ValueError:
            raise ValueError(f"bad --mix entry {part!r}: {value!r} is not a number") from None
    return mix


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_records=args.n,
        pattern_mix=_parse_mix(args.mix),
        category_count=args.categories,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    ds = generate(config)
    write_dataset(ds, args.output)
    print(f"wrote {len(ds)} records to {args.output}")
    if args.labels:
        path = labels_path_for(args.output)
        write_labels(ds, path)
        print(f"wrote planted-pattern labels to {path}")
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.query:
        if not args.property or args.property not in ("ditch", "spike"):
            raise ValueError("--query requires --property ditch or --property spike")
        overrides = _collect_overrides(args)
        spec = build(args.property, **overrides)
        if spec.params.w != int(spec.params.w):
            raise ValueError(f"--query requires a whole-day window w, got {spec.params.w}")
        text = expand_query(
            args.property,
            horizon=args.horizon,
            w=int(spec.params.w),
            d=spec.params.d,
        )
        _write_text(args.output, text + "\n")
        return 0
    formula = _resolve_formula(args)
    report = expand_propositional(formula, args.horizon)
    print(f"source formula: {report.source}")
    print(f"horizon: {report.horizon}")
    print(f"source operator count: {report.stl_operator_count}")
    print(f"grounded operator count: {report.operator_count}")
    print(f"grounded atom count: {report.atom_count}")
    _write_text(args.output, report.text + "\n")
    return 0


def _cmd_kmeans(args: argparse.Namespace) -> int:
    ds = _load(args)
    result = cluster_kmeans(ds, k=args.k, seed=args.seed, max_iter=args.max_iter)
    ditch, spike = verdict_matrix(
        result.centroids, [build("ditch").formula, build("spike").formula]).T
    for c in range(args.k):
        size = int((result.assignments == c).sum())
        print(
            f"centroid {c}: size={size}"
            f" ditch={'yes' if ditch[c] else 'no'}"
            f" spike={'yes' if spike[c] else 'no'}"
        )
    print(f"iterations: {result.iterations}")
    print(f"distortion: {result.distortion_history[-1]:.4f}")
    print(f"centroids satisfying ditch or spike: {int((ditch | spike).sum())}/{args.k}")
    if args.output:
        headers = ["centroid"] + [f"pos_{i}" for i in range(result.centroids.shape[1])]
        cells = [[str(c)] + [f"{v:.6f}" for v in row] for c, row in enumerate(result.centroids)]
        _write_text(args.output, _csv_text(headers, cells))
    if args.emit_plot_data:
        _write_text(args.emit_plot_data, centroids_plot_data(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlrank",
        description="Temporal-logic monitoring for product ranking signals.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"stlrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate one formula over a dataset", allow_abbrev=False)
    _add_dataset_args(p)
    _add_formula_args(p)
    _add_param_args(p)
    p.add_argument("--each", action="store_true", help="print one line per record")
    p.add_argument(
        "--strict-until",
        action="store_true",
        help="use the strict until variant (witness after the current day)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "rates", help="property satisfaction rates per category", allow_abbrev=False
    )
    _add_dataset_args(p)
    _add_param_args(p)
    p.add_argument("--output", "-o", help="write CSV here instead of printing")
    p.add_argument("--emit-plot-data", metavar="PATH", help="write gnuplot data file")
    p.set_defaults(func=_cmd_table, table=satisfaction_rates)

    p = sub.add_parser(
        "metrics", help="engagement means among satisfying records", allow_abbrev=False
    )
    _add_dataset_args(p)
    _add_param_args(p)
    p.add_argument("--output", "-o", help="write CSV here instead of printing")
    p.set_defaults(func=_cmd_table, table=metric_distribution)

    p = sub.add_parser("generate", help="write a synthetic dataset", allow_abbrev=False)
    p.add_argument("--output", "-o", required=True, help="destination file (csv or jsonl)")
    p.add_argument("--n", type=int, required=True, help="record count")
    p.add_argument(
        "--mix",
        required=True,
        help="pattern shares, e.g. cold=0.3,flat=0.5,spiky=0.2 (must sum to 1)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--categories", type=int, default=10)
    p.add_argument(
        "--labels",
        action="store_true",
        help="also write the planted-pattern sidecar next to the output",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("expand", help="ground a formula over a day horizon", allow_abbrev=False)
    _add_formula_args(p)
    _add_param_args(p)
    p.add_argument("--horizon", type=int, required=True, help="last position day")
    p.add_argument(
        "--query",
        action="store_true",
        help="render the pandas-style query string instead (ditch/spike only)",
    )
    p.add_argument("--output", "-o", help="write the expansion text here")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("kmeans", help="cluster position rows", allow_abbrev=False)
    _add_dataset_args(p)
    p.add_argument("--k", type=int, required=True, help="cluster count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--output", "-o", help="write centroid CSV here")
    p.add_argument("--emit-plot-data", metavar="PATH", help="write gnuplot data file")
    p.set_defaults(func=_cmd_kmeans)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ParseError, DatasetError, EvaluationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
