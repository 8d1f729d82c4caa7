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
- **OBS005** registry-lookup-per-call: ``registry.counter("...")`` in a
  function other than ``__init__`` pays a lookup and a label sort per
  call; record through a ``MetricHandle``, whose names OBS002–4 check.
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


def _literal_name(args: list[ast.expr]) -> Optional[tuple[str, int]]:
    if args and isinstance(args[0], ast.Constant):
        value = args[0].value
        if isinstance(value, str):
            return value, args[0].lineno
    return None


def _metric_name(call: ast.Call, module: SourceModule) -> Optional[tuple]:
    """``(kind, name, line)`` of ``registry.counter("name")`` or of
    ``MetricHandle(Counter, "name", ...)``; None for anything else."""
    func, args = call.func, call.args
    if isinstance(func, ast.Attribute) and func.attr in _INSTRUMENT_METHODS:
        kind = func.attr
    elif (module.dotted_name(func) or "").endswith("MetricHandle") and args:
        kind = (module.dotted_name(args[0]) or "").rsplit(".", 1)[-1].lower()
        args = args[1:]
    else:
        return None
    literal = _literal_name(args)
    if literal is None or kind not in _INSTRUMENT_METHODS:
        return None
    return (kind, *literal)


def declared_metrics(project: Project) -> dict[str, Optional[tuple]]:
    """``{name: label names}`` of every metric the project declares,
    read as the OBS rules read them. The label names are a
    ``MetricHandle``'s literal tuple; None for a registry lookup,
    which names its labels only when it records."""
    declared: dict[str, Optional[tuple]] = {}
    for module in project:
        for node in ast.walk(module.tree):
            metric = isinstance(node, ast.Call) and _metric_name(node, module)
            if metric and declared.get(metric[1]) is None:
                declared[metric[1]] = _label_names(node)
    return declared


def declared_spans(project: Project) -> set[str]:
    """The literal names of the spans the project opens, read as
    OBS001 reads span calls (the tracer module's own excepted)."""
    return {
        node.args[0].value
        for module in project
        if not module.rel.endswith("obs/tracer.py")
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call)
        and _span_call(node, module)
        and _literal_name(node.args)
    }


def _span_call(call: ast.Call, module: SourceModule) -> bool:
    """True for ``<tracer>.span(...)``."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "span"
        and _receiver(call.func.value, module, "tracer")
    )


def _label_names(call: ast.Call) -> Optional[tuple]:
    if isinstance(call.func, ast.Attribute):
        return None
    keywords = {keyword.arg: keyword.value for keyword in call.keywords}
    labels = call.args[3] if len(call.args) > 3 else keywords.get("labels")
    try:
        return () if labels is None else tuple(ast.literal_eval(labels))
    except ValueError:
        return None


def _receiver(node: ast.expr, module: SourceModule, kind: str) -> bool:
    """True when ``<node>.method(...)`` is called on a tracer or a
    registry (``kind``): ``get_<kind>()`` or a name containing it."""
    if isinstance(node, ast.Call):
        name = module.dotted_name(node.func) or ""
        return name.endswith(f"get_{kind}")
    name = module.dotted_name(node) or ""
    return kind in name.lower()


def _per_call_nodes(tree: ast.Module) -> set[int]:
    """Every node inside a function other than ``__init__``."""
    return {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and function.name != "__init__"
        for node in ast.walk(function)
    }


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
    per_call = _per_call_nodes(module.tree)
    defines_tracer = module.rel.endswith("obs/tracer.py")

    def finding(code: str, line: int, message: str, subject: str, hint: str):
        found = diagnostic(
            code, message, source="static", subject=subject, hint=hint
        )
        return Finding(found, module.rel, line)

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # OBS001 — span calls must be with-managed (the tracer module
        # itself constructs and returns spans, so it is exempt).
        if (
            not defines_tracer
            and id(node) not in managed
            and _span_call(node, module)
        ):
            yield finding(
                "OBS001",
                node.lineno,
                "span opened without a context manager never "
                "finishes and corrupts span parenting",
                "span",
                "wrap the call in `with tracer.span(...) as span:`",
            )
            continue

        metric = _metric_name(node, module)
        if metric is None:
            continue
        kind, name, line = metric

        # OBS005 — look names up in a constructor or a handle only.
        if (
            id(node) in per_call
            and isinstance(func, ast.Attribute)
            and _receiver(func.value, module, "registry")
        ):
            yield finding(
                "OBS005",
                line,
                f"metric {name!r} is looked up in the registry on every call",
                name,
                "record through a module-level MetricHandle",
            )

        # OBS002 — counters count events; the unit is "events total".
        if kind == "counter" and not name.endswith("_total"):
            yield finding(
                "OBS002",
                line,
                f"counter name {name!r} must end with '_total'",
                name,
                "rename, or use a gauge/histogram if the value is not a "
                "monotonic count",
            )

        # OBS003 — the first segment namespaces the owning layer.
        if name.split("_", 1)[0] not in KNOWN_PREFIXES:
            yield finding(
                "OBS003",
                line,
                f"metric name {name!r} does not start with a known layer "
                "prefix",
                name,
                "known prefixes: " + ", ".join(sorted(KNOWN_PREFIXES)),
            )

        # OBS004 — histograms carry their unit as the suffix.
        if kind == "histogram" and not name.endswith(HISTOGRAM_SUFFIXES):
            yield finding(
                "OBS004",
                line,
                f"histogram name {name!r} should end with a unit suffix "
                f"{HISTOGRAM_SUFFIXES}",
                name,
                "append the unit, or extend the suffix list and "
                "docs/observability.md together",
            )


@register(
    "OBS",
    "observability conventions",
    ("OBS001", "OBS002", "OBS003", "OBS004", "OBS005"),
)
def check(project: Project) -> Iterable[Finding]:
    for module in project:
        yield from _module_findings(module)
