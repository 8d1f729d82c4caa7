"""OBS — observability conventions (docs/observability.md).

- **OBS001** span-not-context-managed: ``tracer.span(...)`` used
  outside a ``with`` statement. A span not closed by ``__exit__``
  never records, never sets error status, and corrupts the
  context-local parent stack for everything after it.
- **OBS002** counter-name-suffix: counter names must end ``_total``.
- **OBS003** unknown-metric-prefix: metric names are namespaced by
  layer (``cache_``, ``serving_``, ...); an unknown first segment is
  either a typo or a missing docs entry.
- **OBS004** histogram-unit-suffix: histogram names carry their unit
  as the suffix (``_ms``, ``_size``, ...); WARNING because new units
  are legitimate — add them here and to the docs together.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.diagnostics import diagnostic
from repro.staticcheck.model import Finding, Project, SourceModule
from repro.staticcheck.rules import register

#: First name segment -> owning layer, per docs/observability.md.
KNOWN_PREFIXES = {
    "agent", "analysis", "app", "awel", "balancer", "cache", "llm",
    "model", "rag", "resilience", "server", "serving", "tenant",
    "vectorstore", "worker",
}

#: Unit suffixes histograms may carry.
HISTOGRAM_SUFFIXES = (
    "_ms", "_s", "_size", "_bytes", "_tokens", "_candidates", "_ratio",
    "_inflight",
)

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}


def _literal_name(call: ast.Call) -> Optional[tuple[str, int]]:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value, call.args[0].lineno
    return None


def _span_receiver(node: ast.expr, module: SourceModule) -> bool:
    """True when ``<node>.span(...)`` is a tracer span call."""
    if isinstance(node, ast.Call):
        name = module.dotted_name(node.func) or ""
        return name.endswith("get_tracer")
    name = module.dotted_name(node) or ""
    return "tracer" in name.lower()


def _with_context_calls(tree: ast.Module) -> set[int]:
    """Line numbers of calls used directly as ``with`` items."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    lines.add(id(item.context_expr))
    return lines


def _module_findings(module: SourceModule) -> Iterable[Finding]:
    managed = _with_context_calls(module.tree)
    defines_tracer = module.rel.endswith("obs/tracer.py")
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue

        # OBS001 — span calls must be with-managed (the tracer module
        # itself constructs and returns spans, so it is exempt).
        if (
            func.attr == "span"
            and not defines_tracer
            and id(node) not in managed
            and _span_receiver(func.value, module)
        ):
            yield Finding(
                diagnostic(
                    "OBS001",
                    "span opened without a context manager never "
                    "finishes and corrupts span parenting",
                    source="static",
                    subject="span",
                    hint="wrap the call in `with tracer.span(...) "
                    "as span:`",
                ),
                module.rel,
                node.lineno,
            )
            continue

        if func.attr not in _INSTRUMENT_METHODS:
            continue
        literal = _literal_name(node)
        if literal is None:
            continue
        name, line = literal

        # OBS002 — counters count events; the unit is "events total".
        if func.attr == "counter" and not name.endswith("_total"):
            yield Finding(
                diagnostic(
                    "OBS002",
                    f"counter name {name!r} must end with '_total'",
                    source="static",
                    subject=name,
                    hint="rename, or use a gauge/histogram if the "
                    "value is not a monotonic count",
                ),
                module.rel,
                line,
            )

        # OBS003 — the first segment namespaces the owning layer.
        prefix = name.split("_", 1)[0]
        if prefix not in KNOWN_PREFIXES:
            yield Finding(
                diagnostic(
                    "OBS003",
                    f"metric name {name!r} does not start with a "
                    "known layer prefix",
                    source="static",
                    subject=name,
                    hint="known prefixes: "
                    + ", ".join(sorted(KNOWN_PREFIXES)),
                ),
                module.rel,
                line,
            )

        # OBS004 — histograms carry their unit as the suffix.
        if func.attr == "histogram" and not name.endswith(
            HISTOGRAM_SUFFIXES
        ):
            yield Finding(
                diagnostic(
                    "OBS004",
                    f"histogram name {name!r} should end with a unit "
                    f"suffix {HISTOGRAM_SUFFIXES}",
                    source="static",
                    subject=name,
                    hint="append the unit, or extend the suffix list "
                    "and docs/observability.md together",
                ),
                module.rel,
                line,
            )


@register(
    "OBS",
    "observability conventions",
    ("OBS001", "OBS002", "OBS003", "OBS004"),
)
def check(project: Project) -> Iterable[Finding]:
    for module in project:
        yield from _module_findings(module)
