"""Span exporters: durable JSON-lines output and its reload path.

``JsonLinesExporter`` appends one JSON object per finished span, so a
long-running process leaves a replayable record; :func:`load_spans`
reads the file back into :class:`~repro.obs.span.Span` objects and
:func:`group_traces` reassembles them per trace — the round-trip the
exporter tests certify.
"""

from __future__ import annotations

import json
import pathlib
import threading
from typing import Union

from repro.fileio import write_text_atomic
from repro.obs.span import Span

PathLike = Union[str, pathlib.Path]


class JsonLinesExporter:
    """Append finished spans to a ``.jsonl`` file as they close."""

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), ensure_ascii=False)
        with self._lock:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")


def dump_spans(spans: list[Span], path: PathLike) -> int:
    """Write a batch of spans to ``path`` (overwrites); returns count."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(
        target,
        "".join(
            json.dumps(span.to_dict(), ensure_ascii=False) + "\n"
            for span in spans
        ),
    )
    return len(spans)


def load_spans(path: PathLike) -> list[Span]:
    """Reload every span from a JSON-lines file, in file order."""
    spans: list[Span] = []
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def group_traces(spans: list[Span]) -> dict[str, list[Span]]:
    """Bucket spans by trace id, preserving input order within each."""
    traces: dict[str, list[Span]] = {}
    for span in spans:
        traces.setdefault(span.trace_id, []).append(span)
    return traces
