"""Dataset-level analyses: satisfaction rates, engagement metrics,
propositional expansion, query rendering, and k-means clustering.

Satisfaction rates evaluate a property library over every record and report
per-category and overall counts. Metric distributions compare engagement
counters (impressions, clicks, purchases) between the records that satisfy
a property and the rest.

Propositional expansion grounds a temporal formula over an explicit day
horizon, which shows how large the equivalent flat boolean formula gets and
lets small verdicts be cross-checked against the trace evaluators. Query
rendering produces the equivalent pandas-style dataframe filter as a string
for documentation; it is never executed.

K-means is a plain seeded Lloyd iteration over position rows, used to show
what centroid averaging does to short-lived excursions.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core.formula import (
    Atom,
    Eventually,
    FalseFormula,
    Formula,
    FormulaError,
    Globally,
    Implies,
    And,
    Not,
    Or,
    Predicate,
    TrueFormula,
    Until,
    Var,
    channels_of,
    children,
    operator_count,
)
from .core.semantics import _checked, _evaluate, eval_predicate
from .ingest import COUNTERS, MISSING, OVERALL, Dataset, position_channels
from .parser import _fmt_num, print_formula
from .props import PropertySpec

__all__ = [
    "OVERALL",
    "ExpansionError",
    "ExpansionReport",
    "GAnd",
    "GAtom",
    "GNot",
    "GOr",
    "KMeansResult",
    "MetricRow",
    "MetricTable",
    "RateRow",
    "RateTable",
    "centroids_plot_data",
    "cluster_kmeans",
    "evaluate_grounded",
    "expand_propositional",
    "expand_query",
    "metric_distribution",
    "rates_plot_data",
    "satisfaction_rates",
]

def _render_columns(headers: Sequence[str], cells: Sequence[Sequence[str]], left: int) -> str:
    """Aligned text table: the first `left` columns flush left, the rest
    flush right, two spaces apart, trailing blanks stripped."""
    rows = [tuple(headers), *cells]
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    return "".join(
        "  ".join(
            c.ljust(w) if i < left else c.rjust(w) for i, (c, w) in enumerate(zip(r, widths))
        ).rstrip()
        + "\n"
        for r in rows
    )


def _csv_text(headers: Sequence[str], cells: Sequence[Sequence[str]]) -> str:
    """CSV as `write_csv` writes it: quoted where needed, "\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(cells)
    return buf.getvalue()


def _cells(rows, fields: Sequence[str], digits: int) -> list[tuple[str, ...]]:
    """Each row's fields as text; the last one, a float, with `digits`
    decimals, or NA when it is nan."""
    return [
        (
            *(str(getattr(r, f)) for f in fields[:-1]),
            "NA" if math.isnan(v := getattr(r, fields[-1])) else f"{v:.{digits}f}",
        )
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Satisfaction rates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateRow:
    category: str
    property: str
    satisfied: int
    total: int

    @property
    def rate(self) -> float:
        return self.satisfied / self.total if self.total else math.nan


class RateTable:
    """Per-category satisfaction counts, with an overall rollup per property."""

    HEADERS = ("category", "property", "satisfied", "total", "rate")

    def __init__(self, rows: Sequence[RateRow]) -> None:
        self.rows = list(rows)

    def rate(self, category: str, property_name: str) -> float:
        for row in self.rows:
            if row.category == category and row.property == property_name:
                return row.rate
        raise KeyError((category, property_name))

    def overall(self, property_name: str) -> float:
        """The rollup's rate, from the rows of category OVERALL."""
        return self.rate(OVERALL, property_name)

    def to_csv_text(self) -> str:
        return _csv_text(self.HEADERS, _cells(self.rows, self.HEADERS, 6))

    def to_text(self) -> str:
        return _render_columns(self.HEADERS, _cells(self.rows, self.HEADERS, 4), 2)


# Rows per block of `verdict_matrix`. On 1e6 records of 14 days, on a
# 2-vCPU Xeon VM, blocks of 16,384 rows evaluated the 9 library properties
# in 0.69 s (65,536 rows: 0.77 s; measured again, both take 0.6-0.8 s), and
# the peak RSS of `rates` stayed at the load's own 313 MiB. Evaluating all
# rows at once took 1.14 s and raised the peak to 627 MiB.
_BLOCK = 16_384


def verdict_matrix(
    positions: np.ndarray, formulas: Sequence[Formula], *, until_strict: bool = False
) -> np.ndarray:
    """out[i, j] = row i of a (rows, days) position matrix satisfies formula
    j, as `eval_rows` gives it. Rows are evaluated in blocks of `_BLOCK`:
    a block's channels are built and checked once and serve every formula,
    which share the values of their common subformulas; with no rows,
    nothing is built or evaluated."""
    out = np.zeros((len(positions), len(formulas)), dtype=bool)
    for start in range(0, len(positions), _BLOCK):
        rows = slice(start, start + _BLOCK)
        channels = _checked(position_channels(positions[rows]))
        cache: dict = {}
        for j, f in enumerate(formulas):
            _, alg, value = _evaluate(f, channels, until_strict, cache)
            out[rows, j] = alg.day0(value)
    return out


def satisfaction_rates(
    ds: Dataset, specs: Sequence[PropertySpec], jobs: int = 1
) -> RateTable:
    """Satisfied/total counts per (category, property) plus overall rows.

    Records are evaluated as-is: differences adjacent to missing days are 0
    in the derivative channel, so filter with `filter_complete` first when a
    property should only see fully ranked histories. `jobs` is accepted and
    ignored: one batched pass over all records replaced the process pool.
    """
    verdicts = verdict_matrix(ds.positions, [spec.formula for spec in specs])
    totals = np.bincount(ds.category_codes, minlength=len(ds.categories))
    rows: list[RateRow] = []
    for j, spec in enumerate(specs):
        satisfied = np.bincount(ds.category_codes[verdicts[:, j]], minlength=len(ds.categories))
        rows.extend(
            RateRow(cat, spec.name, int(satisfied[c]), int(totals[c]))
            for c, cat in enumerate(ds.categories)
        )
    rows.extend(RateRow(OVERALL, spec.name, int(verdicts[:, j].sum()), len(ds))
                for j, spec in enumerate(specs))
    return RateTable(rows)


# ---------------------------------------------------------------------------
# Metric distributions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricRow:
    property: str
    group: str  # "satisfied" or "violated"
    metric: str
    count: int
    mean: float  # nan when count is 0


class MetricTable:
    HEADERS = ("property", "group", "metric", "count", "mean")

    def __init__(self, rows: Sequence[MetricRow]) -> None:
        self.rows = list(rows)

    def mean(self, property_name: str, group: str, metric: str) -> float:
        for row in self.rows:
            if (row.property, row.group, row.metric) == (property_name, group, metric):
                return row.mean
        raise KeyError((property_name, group, metric))

    def to_csv_text(self) -> str:
        return _csv_text(self.HEADERS, _cells(self.rows, self.HEADERS, 4))

    def to_text(self) -> str:
        return _render_columns(self.HEADERS, _cells(self.rows, self.HEADERS, 2), 3)


def metric_distribution(ds: Dataset, specs: Sequence[PropertySpec]) -> MetricTable:
    """Mean engagement counters among satisfying and violating records."""
    verdicts = verdict_matrix(ds.positions, [spec.formula for spec in specs])
    metric_values = dict(zip(COUNTERS, ds.counters.T.astype(np.float64)))
    rows: list[MetricRow] = []
    for j, spec in enumerate(specs):
        col = verdicts[:, j]
        for group, mask in (("satisfied", col), ("violated", ~col)):
            n = int(mask.sum())
            for m in COUNTERS:
                mean = float(metric_values[m][mask].mean()) if n else math.nan
                rows.append(MetricRow(spec.name, group, m, n, mean))
    return MetricTable(rows)


# ---------------------------------------------------------------------------
# Propositional expansion.
# ---------------------------------------------------------------------------

class ExpansionError(FormulaError):
    """The formula cannot be grounded over a finite day horizon."""


# Grounding nested windows multiplies their spans: F(G(F(x < 1))) grows
# cubically with the horizon and passes this many nodes near horizon 140.
MAX_GROUNDED_NODES = 500_000


@dataclass(frozen=True)
class GAtom:
    predicate: Predicate
    day: int


@dataclass(frozen=True)
class GNot:
    child: object


@dataclass(frozen=True)
class GAnd:
    children: tuple


@dataclass(frozen=True)
class GOr:
    children: tuple


@dataclass(frozen=True)
class ExpansionReport:
    """A temporal formula flattened over days 0..horizon.

    `root` is a tree of GAtom, GNot, GAnd and GOr nodes, with bools as the
    grounded constants. `operator_count` counts the boolean connectives
    inside each top-level alternative of the grounded formula (the joins
    between alternatives are free), which is the size that grows with the
    horizon.
    `stl_operator_count` counts the operators of the original formula, which
    does not. `atom_count` counts grounded comparison leaves.
    """

    source: str
    horizon: int
    root: object
    text: str
    operator_count: int
    stl_operator_count: int
    atom_count: int


def _formula_horizon(f: Formula, horizon: int) -> int:
    """Last day the formula can be evaluated at, as on the evaluators' grid:
    day `horizon` when the formula reads only `x`, otherwise one day less."""
    chans = channels_of(f)
    unknown = sorted(chans - {"x", "d1(x)"})
    if unknown:
        raise ExpansionError(f"cannot ground channel {unknown[0]!r} over a day horizon")
    return horizon if chans == {"x"} else horizon - 1


def _counted(node: object, nodes) -> object:
    """`node`, once counted against MAX_GROUNDED_NODES."""
    if next(nodes) > MAX_GROUNDED_NODES:
        raise ExpansionError(f"expansion exceeds {MAX_GROUNDED_NODES} grounded nodes")
    return node


def _ground(f: Formula, t: int, last: int, nodes) -> object:
    _counted(f, nodes)
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Atom):
        return GAtom(f.predicate, t)
    if isinstance(f, Not):
        return GNot(_ground(f.operand, t, last, nodes))
    if isinstance(f, And):
        return GAnd((_ground(f.left, t, last, nodes), _ground(f.right, t, last, nodes)))
    if isinstance(f, Or):
        return GOr((_ground(f.left, t, last, nodes), _ground(f.right, t, last, nodes)))
    if isinstance(f, Implies):
        return GOr((GNot(_ground(f.left, t, last, nodes)), _ground(f.right, t, last, nodes)))
    if isinstance(f, (Eventually, Globally)):
        # The window's identity literal: an empty F is false, an empty G true.
        identity = isinstance(f, Globally)
        stop = last if f.interval.unbounded else math.floor(t + f.interval.hi)
        days = range(math.ceil(t + f.interval.lo), stop + 1)
        if not days:
            return identity
        # Slots past the end count too, so a window of 1e15 days fails fast.
        return (GAnd if identity else GOr)(tuple(
            _counted(identity, nodes) if u > last else _ground(f.operand, u, last, nodes)
            for u in days
        ))
    if isinstance(f, Until):
        raise ExpansionError("until is not supported by propositional expansion")
    raise ExpansionError(f"cannot ground {type(f).__name__}")


def _gcount(node: object) -> int:
    if isinstance(node, (GAnd, GOr)):
        return len(node.children) - 1 + sum(_gcount(c) for c in node.children)
    if isinstance(node, GNot):
        return 1 + _gcount(node.child)
    return 0


def _gatoms(node: object) -> int:
    if isinstance(node, (GAnd, GOr)):
        return sum(_gatoms(c) for c in node.children)
    if isinstance(node, GNot):
        return _gatoms(node.child)
    return 1 if isinstance(node, GAtom) else 0


# Stands for the day in an atom's text. The grounded channels are x and d1(x)
# (`_formula_horizon`), so no other part of the text holds it.
_DAY = "\0"


def _rename_expr(e):
    """Term `e` with each channel `c` read as `c[_DAY]`."""
    if isinstance(e, Var):
        return Var(f"{e.name}[{_DAY}]")
    # A constant has no children, and every other term node's fields are
    # exactly its children, in order.
    kids = children(e)
    return type(e)(*map(_rename_expr, kids)) if kids else e


def _gtext(node: object, templates: dict[int, str]) -> str:
    """The text of a grounded formula. `templates` maps each predicate, by
    identity (the atoms grounded from one `Atom` share its predicate), to its
    text with `_DAY` for the day, so each predicate is printed once."""
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, GAtom):
        pred = node.predicate
        template = templates.get(id(pred))
        if template is None:
            shifted = replace(pred, lhs=_rename_expr(pred.lhs), rhs=_rename_expr(pred.rhs))
            template = templates[id(pred)] = print_formula(Atom(shifted))
        return template.replace(_DAY, str(node.day))
    if isinstance(node, GNot):
        return f"!({_gtext(node.child, templates)})"
    if isinstance(node, GAnd):
        return " & ".join(f"({_gtext(c, templates)})" for c in node.children)
    if isinstance(node, GOr):
        return " | ".join(f"({_gtext(c, templates)})" for c in node.children)
    raise ExpansionError(f"cannot render {type(node).__name__}")


def expand_propositional(f: Formula, horizon: int) -> ExpansionReport:
    """Ground a temporal formula into a flat boolean formula over days.

    `horizon` is the last day the position channel carries a sample, so the
    position channel grounds over days 0..horizon and the derivative channel
    over days 0..horizon-1. Bounded windows keep their full slot span, with
    slots past the end written as the window's identity literal (false for
    an eventuality, true for an invariant); unbounded windows stop at the
    end. The grounded formula computes exactly the whole-trace verdict of
    the evaluators on a trace of that length.
    """
    if horizon < 0:
        raise ExpansionError("horizon must be non-negative")
    last = _formula_horizon(f, horizon)
    if last < 0:
        raise ExpansionError("horizon too short for the derivative channel")
    root = _ground(f, 0, last, itertools.count(1))
    if isinstance(root, (GAnd, GOr)):
        ops = sum(_gcount(c) for c in root.children)
    else:
        ops = _gcount(root)
    return ExpansionReport(
        source=print_formula(f),
        horizon=horizon,
        root=root,
        text=_gtext(root, {}),
        operator_count=ops,
        stl_operator_count=operator_count(f),
        atom_count=_gatoms(root),
    )


def evaluate_grounded(node: object, channels: Mapping[str, np.ndarray]) -> bool:
    """Evaluate a grounded formula against per-channel day arrays."""
    if isinstance(node, bool):
        return node
    if isinstance(node, GAtom):

        def value_of(name: str) -> float:
            try:
                return float(channels[name][node.day])
            except KeyError:
                raise ExpansionError(f"unknown channel {name!r}") from None

        return eval_predicate(node.predicate, value_of)
    if isinstance(node, GNot):
        return not evaluate_grounded(node.child, channels)
    if isinstance(node, GAnd):
        return all(evaluate_grounded(c, channels) for c in node.children)
    if isinstance(node, GOr):
        return any(evaluate_grounded(c, channels) for c in node.children)
    raise ExpansionError(f"cannot evaluate {type(node).__name__}")


# ---------------------------------------------------------------------------
# Query rendering.
# ---------------------------------------------------------------------------

def expand_query(name: str, horizon: int, w: int, d: float = 10.0) -> str:
    """Pandas-style dataframe filter equivalent to a jump-and-rebound search.

    Supported names are "ditch" and "spike". The string is documentation of
    what the hand-written query for these patterns looks like at a given
    horizon; it is returned, never executed. Each outer term anchors the
    first jump at one day, so the term count (horizon - w + 1) and the total
    comparison count grow linearly with the horizon.
    """
    if name == "ditch":
        first_op, rebound_op, first_d, rebound_d = ">", "<", d, -d
    elif name == "spike":
        first_op, rebound_op, first_d, rebound_d = "<", ">", -d, d
    else:
        raise ExpansionError(f"no query template for {name!r}")
    if w < 1:
        raise ExpansionError("w must be at least 1")
    if horizon < w:
        raise ExpansionError("horizon must be at least w")
    if (horizon - w + 1) * (w + 2) > MAX_GROUNDED_NODES:
        raise ExpansionError(f"query exceeds {MAX_GROUNDED_NODES} comparisons")
    terms = []
    for i in range(0, horizon - w + 1):
        rebound = " | ".join(
            f"(df.pos_{j} {rebound_op} {_fmt_num(rebound_d)})"
            for j in range(i, i + w + 1)
        )
        terms.append(f"((df.pos_{i} {first_op} {_fmt_num(first_d)}) & ({rebound}))")
    return "df[" + " | ".join(terms) + "]"


# ---------------------------------------------------------------------------
# Clustering.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, days)
    assignments: np.ndarray  # (n,) cluster index, -1 for excluded records
    iterations: int
    distortion_history: tuple[float, ...]


def _impute_rows(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Position matrix with -1 replaced by each row's own mean.

    Returns (matrix, included) where `included` marks rows that carry at
    least one real sample; fully missing rows get no cluster.
    """
    missing = ds.positions == MISSING
    included = ~missing.all(axis=1)
    matrix = ds.positions.copy()
    for i in np.flatnonzero(missing.any(axis=1) & included):
        matrix[i, missing[i]] = ds.positions[i][~missing[i]].mean()
    return matrix, included


def cluster_kmeans(
    ds: Dataset, k: int, seed: int = 0, max_iter: int = 100
) -> KMeansResult:
    """Seeded Lloyd k-means over position rows.

    Missing days are imputed with the record's own mean; records with no
    ranked day at all are excluded (assignment -1). Initial centroids are k
    distinct record rows drawn from a seeded shuffle. An empty cluster keeps
    its previous centroid. Distortion (sum of squared distances to the
    assigned centroid) never increases across iterations.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    matrix, included = _impute_rows(ds)
    X = matrix[included]
    if len(X) < k:
        raise ValueError(f"need at least k={k} usable records, have {len(X)}")

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(X))
    chosen: list[np.ndarray] = []
    for idx in order:
        row = X[idx]
        if not any(np.array_equal(row, c) for c in chosen):
            chosen.append(row)
        if len(chosen) == k:
            break
    if len(chosen) < k:
        raise ValueError(f"fewer than k={k} distinct records to seed centroids")
    centroids = np.stack(chosen)

    assignments = np.full(len(X), -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(len(X)), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = X[assignments == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    full = np.full(len(ds), -1, dtype=np.int64)
    full[np.flatnonzero(included)] = assignments
    return KMeansResult(
        centroids=centroids,
        assignments=full,
        iterations=len(history),
        distortion_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Plot data.
# ---------------------------------------------------------------------------

def rates_plot_data(table: RateTable) -> str:
    """Gnuplot-ready satisfaction rates: one row per category, one column
    per property, in first-seen order."""
    lines_by_category: dict[str, dict[str, float]] = {}
    for row in table.rows:
        lines_by_category.setdefault(row.category, {})[row.property] = row.rate
    properties = list(dict.fromkeys(row.property for row in table.rows))
    lines = ["# category " + " ".join(properties)]
    for cat, rates in lines_by_category.items():
        vals = ["NA" if math.isnan(r := rates[prop]) else f"{r:.6f}" for prop in properties]
        lines.append(" ".join([_plot_field(cat)] + vals))
    return "\n".join(lines) + "\n"


def _plot_field(name: str) -> str:
    """`name` as one gnuplot data field: double-quoted, with inner quotes
    doubled and line breaks written as the escapes \\n and \\r, when it
    holds whitespace or a quote or starts a comment."""
    if name.split() == [name] and '"' not in name and not name.startswith("#"):
        return name
    return '"' + name.replace('"', '""').replace("\n", "\\n").replace("\r", "\\r") + '"'


def centroids_plot_data(result: KMeansResult) -> str:
    """Gnuplot-ready centroid curves: day column, then one column per
    centroid."""
    k, days = result.centroids.shape
    lines = ["# day " + " ".join(f"c{i}" for i in range(k))]
    for day in range(days):
        vals = [f"{result.centroids[i, day]:.4f}" for i in range(k)]
        lines.append(" ".join([str(day)] + vals))
    return "\n".join(lines) + "\n"
