"""Project-invariant static analysis (``repro analyze``).

Six PRs of engine work rest on correctness contracts that, until this
subsystem, lived only in docstrings and reviewers' heads: NumPy stays
behind :mod:`repro.engine.backend`, interned columns are append-only,
shared state is touched under the right lock, packing paths iterate
deterministically.  ``repro.analysis`` turns each contract into a
mechanical checker over the stdlib :mod:`ast` (no third-party
dependencies), so CI can block a PR that breaks an invariant instead of
hoping a reviewer remembers it.

The pieces:

* :mod:`repro.analysis.framework` -- the checker framework: source
  loading, the :class:`~repro.analysis.framework.Finding` model,
  ``# repro: noqa REPxxx -- why`` suppression (justification required),
  JSON and human-readable rendering;
* :mod:`repro.analysis.checkers` -- the rule suite (REP001..REP006; see
  ``docs/INVARIANTS.md`` for the catalog);
* :func:`repro.analysis.run_analysis` -- the one-call entry point the
  ``repro analyze`` CLI and the self-run test share.
"""

from repro.analysis.framework import (
    AnalysisConfig,
    AnalysisReport,
    Checker,
    Finding,
    SourceFile,
    load_source_files,
    render_json,
    render_text,
    run_analysis,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "Checker",
    "Finding",
    "SourceFile",
    "load_source_files",
    "render_json",
    "render_text",
    "run_analysis",
]
