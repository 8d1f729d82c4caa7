"""Static analysis: semantic SQL checks, AWEL linting, execution gates.

The missing correctness layer between model output and execution:

- :mod:`repro.analysis.sql_analyzer` binds a parsed statement with the
  engine's binder (reporting its name errors), type-checks expressions
  and enforces aggregation rules.
- :mod:`repro.analysis.awel_linter` extends ``DAG.validate()`` with
  reachability, arity and stream/batch mode checks.
- :mod:`repro.analysis.gate` wires the analyzer in front of execution
  with one bounded, diagnostics-guided repair retry through the model.
- ``python -m repro.cli lint`` runs both analyzers over SQL files and
  AWEL flow modules.

All findings are :class:`Diagnostic` objects with stable codes
(``SQL001 unknown-table``, ``AWEL006 mode-mismatch``, ...) documented
in README.md.
"""

from repro.analysis.awel_linter import lint_dag
from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    Severity,
    diagnostic,
    has_errors,
    max_severity,
)
from repro.analysis.gate import (
    GateResult,
    catalog_for_source,
    gate_sql,
    review_sql,
)
from repro.analysis.sql_analyzer import (
    SqlAnalyzer,
    analyze_sql,
    analyze_statement,
)

__all__ = [
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "GateResult",
    "Severity",
    "SqlAnalyzer",
    "analyze_sql",
    "analyze_statement",
    "catalog_for_source",
    "diagnostic",
    "gate_sql",
    "has_errors",
    "lint_dag",
    "max_severity",
    "review_sql",
]
