"""Span files: JSON-lines output and its reload path.

:func:`dump_spans` writes finished spans one JSON object a line, so a
run leaves a replayable record; :func:`load_spans` reads the file back
into :class:`~repro.obs.span.Span` objects and :func:`group_traces`
reassembles them per trace — the round-trip the export tests certify.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.fileio import write_text_atomic
from repro.obs.span import Span

PathLike = Union[str, pathlib.Path]


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
