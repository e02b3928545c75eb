"""The public API: adding or removing an exported name must update these lists."""

import stlrank
import stlrank.analytics
import stlrank.cli
import stlrank.core
from stlrank import ingest, parser, props
from stlrank.core import kernels


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
    # stlrank.core holds modules only; each name has one public home.
    assert sorted(name for name in vars(stlrank.core) if not name.startswith("_")) == [
        "formula", "kernels", "semantics", "trace",
    ]
    assert sorted(stlrank.analytics.__all__) == [
        "ExpansionError", "ExpansionReport", "GAnd", "GAtom", "GNot", "GOr", "KMeansResult",
        "MetricRow", "MetricTable", "RateRow", "RateTable", "centroids_plot_data",
        "cluster_kmeans", "evaluate_grounded", "expand_propositional", "expand_query",
        "metric_distribution", "rates_plot_data", "satisfaction_rates",
    ]
    for module in (stlrank, stlrank.analytics):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_each_exported_name_has_one_home_module():
    """No two submodules list the same name in `__all__`."""
    names = [name for module in (kernels, parser, props, ingest, stlrank.analytics, stlrank.cli)
             for name in module.__all__]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert "OVERALL" in ingest.__all__
