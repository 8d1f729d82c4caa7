"""Structured diagnostics shared by the SQL analyzer and AWEL linter.

Every finding is a :class:`Diagnostic` with a stable code (``SQL002``,
``AWEL006``), a severity, and the offending fragment, so applications,
benchmarks and the ``repro lint`` CLI can all consume the same objects.
Codes are registered centrally in :data:`DIAGNOSTIC_CODES`; emitting an
unregistered code is a programming error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


class Severity(enum.Enum):
    """How bad a finding is; ``ERROR`` blocks the pre-execution gate."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank


#: code -> (default severity, short name). The short name is the
#: kebab-case label used in docs and CLI output.
DIAGNOSTIC_CODES: dict[str, tuple[Severity, str]] = {
    # --- SQL: syntax and semantic resolution -----------------------------
    "SQL000": (Severity.ERROR, "syntax-error"),
    "SQL001": (Severity.ERROR, "unknown-table"),
    "SQL002": (Severity.ERROR, "unknown-column"),
    "SQL003": (Severity.ERROR, "ambiguous-column"),
    "SQL004": (Severity.ERROR, "type-mismatch"),
    "SQL005": (Severity.ERROR, "unknown-function"),
    "SQL006": (Severity.ERROR, "function-arity"),
    # --- SQL: aggregation rules ------------------------------------------
    "SQL007": (Severity.ERROR, "aggregate-in-where"),
    "SQL008": (Severity.ERROR, "nested-aggregate"),
    "SQL009": (Severity.ERROR, "ungrouped-column"),
    # --- SQL: lint-grade smells ------------------------------------------
    "SQL010": (Severity.WARNING, "select-star"),
    "SQL011": (Severity.WARNING, "cartesian-join"),
    "SQL012": (Severity.ERROR, "insert-arity"),
    "SQL013": (Severity.ERROR, "duplicate-alias"),
    "SQL014": (Severity.WARNING, "non-boolean-predicate"),
    "SQL015": (Severity.ERROR, "set-op-arity"),
    "SQL016": (Severity.ERROR, "duplicate-cte"),
    "SQL017": (Severity.ERROR, "cte-column-arity"),
    "SQL018": (Severity.ERROR, "ordinal-out-of-range"),
    # --- AWEL workflow graphs --------------------------------------------
    "AWEL001": (Severity.ERROR, "cycle"),
    "AWEL002": (Severity.ERROR, "orphan-node"),
    "AWEL003": (Severity.ERROR, "unreachable-operator"),
    "AWEL004": (Severity.WARNING, "dangling-output"),
    "AWEL005": (Severity.WARNING, "multi-root"),
    "AWEL006": (Severity.ERROR, "mode-mismatch"),
    "AWEL007": (Severity.ERROR, "input-arity"),
    # --- staticcheck: framework ------------------------------------------
    "STC000": (Severity.WARNING, "unparsable-file"),
    # --- staticcheck: lock discipline ------------------------------------
    "LCK001": (Severity.ERROR, "lock-order-cycle"),
    "LCK002": (Severity.ERROR, "mixed-guard-write"),
    "LCK003": (Severity.WARNING, "unguarded-read"),
    "LCK004": (Severity.ERROR, "locked-helper-without-lock"),
    # --- staticcheck: async hygiene --------------------------------------
    "ASY001": (Severity.ERROR, "blocking-call-in-async"),
    "ASY002": (Severity.ERROR, "unbounded-queue-get-in-async"),
    "ASY003": (Severity.ERROR, "blocking-sync-primitive-in-async"),
    "ASY004": (Severity.WARNING, "thread-hop-twin"),
    # --- staticcheck: determinism ----------------------------------------
    "DET001": (Severity.ERROR, "wall-clock-call"),
    "DET002": (Severity.ERROR, "ambient-random-call"),
    "DET003": (Severity.ERROR, "unseeded-rng"),
    "DET004": (Severity.ERROR, "raw-timing-call"),
    # --- staticcheck: observability conventions --------------------------
    "OBS001": (Severity.ERROR, "span-not-context-managed"),
    "OBS002": (Severity.ERROR, "counter-name-suffix"),
    "OBS003": (Severity.ERROR, "unknown-metric-prefix"),
    "OBS004": (Severity.WARNING, "histogram-unit-suffix"),
    "OBS005": (Severity.WARNING, "registry-lookup-per-call"),
    # --- staticcheck: configuration parity -------------------------------
    "CFG001": (Severity.WARNING, "dead-config-field"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer or linter finding."""

    code: str
    message: str
    severity: Severity
    #: "sql" or "awel" — which analyzer produced the finding.
    source: str = "sql"
    #: The offending fragment: a rendered expression, node id, ...
    subject: str = ""
    #: Optional remediation advice shown to users and repair prompts.
    hint: str = ""

    @property
    def name(self) -> str:
        """The registered kebab-case label for this code."""
        registered = DIAGNOSTIC_CODES.get(self.code)
        return registered[1] if registered else "unregistered"

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly rendering attached to ``AppResponse.metadata``."""
        payload: dict[str, Any] = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.subject:
            payload["subject"] = self.subject
        if self.hint:
            payload["hint"] = self.hint
        return payload

    def render(self) -> str:
        """One-line human rendering used by the CLI and repair prompts."""
        subject = f" [{self.subject}]" if self.subject else ""
        return (
            f"{self.code} {self.severity.value} ({self.name}): "
            f"{self.message}{subject}"
        )


def diagnostic(
    code: str,
    message: str,
    *,
    source: str = "sql",
    subject: str = "",
    hint: str = "",
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a diagnostic with the code's registered default severity."""
    if code not in DIAGNOSTIC_CODES:
        raise ValueError(f"unregistered diagnostic code: {code!r}")
    default_severity, _name = DIAGNOSTIC_CODES[code]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity or default_severity,
        source=source,
        subject=subject,
        hint=hint,
    )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """The worst severity present, or ``None`` for a clean report."""
    worst: Optional[Severity] = None
    for item in diagnostics:
        if worst is None or item.severity > worst:
            worst = item.severity
    return worst


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
