"""Temporal-logic monitoring for time-indexed product ranking signals.

The package evaluates temporal formulas over short daily traces (ranking
positions and their day-over-day differences), ships a small library of
ranking-behavior properties, and provides dataset-level analyses plus a
synthetic data generator. See the README for the formula language and the
CLI.
"""

__version__ = "0.1.0"

from .core.formula import (
    Abs,
    Add,
    And,
    Atom,
    Const,
    Eventually,
    FALSE,
    FalseFormula,
    Formula,
    FormulaError,
    Globally,
    Implies,
    Interval,
    Mul,
    Neg,
    Not,
    Or,
    Predicate,
    Sub,
    TRUE,
    TrueFormula,
    Until,
    Var,
    channels_of,
    desugar,
    operator_count,
)
from .core.semantics import (
    EvaluationError,
    SampleTimeError,
    UnknownChannelError,
    Verdict,
    eval_fast,
    eval_naive,
    eval_rows,
    evaluation_grid,
)
from .core.trace import Trace, TraceError, TraceSet
from .parser import ParseError, SourceSpan, parse_formula, print_formula
from .props import (
    PROPERTY_NAMES,
    PropertyError,
    PropertyParams,
    PropertySpec,
    build,
    default_library,
    describe,
)
from .ingest import (
    Dataset,
    DatasetError,
    GeneratorConfig,
    ProductRecord,
    SchemaError,
    derivative_values,
    filter_complete,
    generate,
    load_dataset,
    position_channels,
    to_traceset,
    traceset_from_positions,
    write_csv,
    write_dataset,
    write_jsonl,
)
from .analytics import (
    ExpansionError,
    ExpansionReport,
    KMeansResult,
    MetricTable,
    RateTable,
    cluster_kmeans,
    evaluate_grounded,
    expand_propositional,
    expand_query,
    metric_distribution,
    satisfaction_rates,
)

__all__ = [
    "__version__",
    # formulas
    "Abs", "Add", "And", "Atom", "Const", "Eventually", "FALSE", "FalseFormula",
    "Formula", "FormulaError", "Globally", "Implies", "Interval", "Mul", "Neg",
    "Not", "Or", "Predicate", "Sub", "TRUE", "TrueFormula", "Until", "Var",
    "channels_of", "desugar", "operator_count",
    # traces and evaluation
    "Trace", "TraceError", "TraceSet", "Verdict", "EvaluationError",
    "SampleTimeError", "UnknownChannelError", "eval_fast",
    "eval_naive", "eval_rows", "evaluation_grid",
    # parsing
    "ParseError", "SourceSpan", "parse_formula", "print_formula",
    # properties
    "PROPERTY_NAMES", "PropertyError", "PropertyParams", "PropertySpec",
    "build", "default_library", "describe",
    # datasets
    "Dataset", "DatasetError", "GeneratorConfig", "ProductRecord", "SchemaError",
    "derivative_values", "filter_complete", "generate", "load_dataset",
    "position_channels", "to_traceset", "traceset_from_positions", "write_csv",
    "write_dataset", "write_jsonl",
    # analyses
    "ExpansionError", "ExpansionReport", "KMeansResult", "MetricTable",
    "RateTable", "cluster_kmeans", "evaluate_grounded", "expand_propositional",
    "expand_query", "metric_distribution", "satisfaction_rates",
]
