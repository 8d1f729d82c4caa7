"""Pretty-printing of span trees for ``repro trace`` and ``/trace``.

The renderer reconstructs parent/child structure from flat span lists
and prints an indented tree with per-stage timings, the share of the
root's wall time each stage took, and error markers on failed spans.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.span import Span

#: Attribute keys promoted into the tree line when present, in order.
_DETAIL_KEYS = (
    "app", "dag", "operator", "agent", "model", "worker", "strategy",
    "method", "path", "status_code",
)


def span_tree(spans: list[Span]) -> tuple[Optional[Span], dict[str, list[Span]]]:
    """(root, children-by-parent-id) for one trace's spans.

    Children are ordered by start time so the tree reads
    chronologically. Returns ``(None, {})`` for an empty trace.
    """
    children: dict[str, list[Span]] = {}
    root: Optional[Span] = None
    for span in sorted(spans, key=lambda s: s.start):
        if span.parent_id is None:
            root = span
        else:
            children.setdefault(span.parent_id, []).append(span)
    return root, children


def render_trace(spans: list[Span]) -> str:
    """Render one trace as an indented tree with timings."""
    root, children = span_tree(spans)
    if root is None:
        return "(no completed trace)"
    lines = [
        f"trace {root.trace_id} — {root.duration_ms:.2f} ms total, "
        f"{len(spans)} spans"
    ]
    _render_span(root, children, root.duration_ms, lines, prefix="", last=True)
    return "\n".join(lines)


def _render_span(
    span: Span,
    children: dict[str, list[Span]],
    total_ms: float,
    lines: list[str],
    prefix: str,
    last: bool,
) -> None:
    connector = "└─" if last else "├─"
    details = [
        str(span.attributes[key])
        for key in _DETAIL_KEYS
        if key in span.attributes
    ]
    # The cache manager's ``cache.<tier>=miss,hit`` outcomes.
    details.extend(
        f"{key}={value}"
        for key, value in span.attributes.items()
        if key.startswith("cache.")
    )
    detail = f" ({', '.join(details)})" if details else ""
    share = (
        f" [{span.duration_ms / total_ms:6.1%}]" if total_ms > 0 else ""
    )
    error = (
        f"  !! error: {span.error_type or 'unknown'}"
        if span.status == "error"
        else ""
    )
    lines.append(
        f"{prefix}{connector} {span.name}{detail} "
        f"{span.duration_ms:.2f} ms{share}{error}"
    )
    child_prefix = prefix + ("   " if last else "│  ")
    kids = children.get(span.span_id, [])
    for index, child in enumerate(kids):
        _render_span(
            child,
            children,
            total_ms,
            lines,
            child_prefix,
            last=index == len(kids) - 1,
        )


def stage_timings(spans: list[Span]) -> list[tuple[str, float]]:
    """Aggregate duration per span name, slowest first (flat summary)."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_ms
    return sorted(totals.items(), key=lambda item: -item[1])
