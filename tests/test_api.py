"""The public API: adding or removing an exported name must update these lists."""

import stlrank
import stlrank.analytics
import stlrank.core


def test_public_api_is_pinned():
    assert sorted(stlrank.__all__) == [
        "Abs", "Add", "And", "Atom", "Const", "Dataset", "DatasetError", "EvaluationError",
        "Eventually", "ExpansionError", "ExpansionReport", "FALSE", "FalseFormula", "Formula",
        "FormulaError", "GeneratorConfig", "Globally", "Implies", "Interval", "KMeansResult",
        "MetricTable", "Mul", "Neg", "Not", "Or", "PROPERTY_NAMES", "ParseError", "Predicate",
        "ProductRecord", "PropertyError", "PropertyParams", "PropertySpec", "RateTable",
        "SampleTimeError", "SchemaError", "SourceSpan", "Sub", "TRUE", "Trace", "TraceError",
        "TraceSet", "TrueFormula", "UnknownChannelError", "Until", "Var", "Verdict",
        "__version__", "build", "channels_of", "cluster_kmeans", "default_library",
        "derivative_values", "describe", "desugar", "eval_fast", "eval_naive",
        "eval_rows", "evaluate_grounded", "evaluation_grid", "expand_propositional",
        "expand_query", "filter_complete", "generate", "load_dataset", "metric_distribution",
        "operator_count", "parse_formula", "position_channels", "print_formula",
        "satisfaction_rates", "to_traceset", "traceset_from_positions", "write_csv",
        "write_dataset", "write_jsonl",
    ]
    assert sorted(stlrank.core.__all__) == [
        "Abs", "Add", "And", "Atom", "Const", "EvaluationError", "Eventually", "FALSE", "FULL",
        "FalseFormula", "Formula", "FormulaError", "Globally", "Implies", "Interval", "Mul",
        "Neg", "Not", "Or", "Predicate", "SampleTimeError", "Sub", "TRUE", "Trace",
        "TraceError", "TraceSet", "TrueFormula", "UnknownChannelError", "Until", "Var",
        "Verdict", "channels_of", "desugar", "eval_fast", "eval_naive",
        "eval_rows", "evaluation_grid", "operator_count",
    ]
    assert sorted(stlrank.analytics.__all__) == [
        "ExpansionError", "ExpansionReport", "GAnd", "GAtom", "GNot", "GOr", "KMeansResult",
        "MetricRow", "MetricTable", "OVERALL", "RateRow", "RateTable", "centroids_plot_data",
        "cluster_kmeans", "evaluate_grounded", "expand_propositional", "expand_query",
        "metric_distribution", "rates_plot_data", "satisfaction_rates",
    ]
    for module in (stlrank, stlrank.core, stlrank.analytics):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
