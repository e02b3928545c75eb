"""The evaluator's modules: `formula` (the syntax tree), `semantics` (the
evaluators), `kernels` (their window scans) and `trace` (kept for the
benchmark). The package re-exports none of their names: the public names
are `stlrank.<name>`."""
