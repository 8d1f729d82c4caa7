"""Exporter round-trip: spans survive the JSON-lines format exactly."""

from repro.obs import dump_spans, group_traces, load_spans


def _reloadable(span, reloaded):
    return (
        span.name == reloaded.name
        and span.trace_id == reloaded.trace_id
        and span.span_id == reloaded.span_id
        and span.parent_id == reloaded.parent_id
        and span.start == reloaded.start
        and span.end == reloaded.end
        and span.status == reloaded.status
        and span.attributes == reloaded.attributes
        and span.error_type == reloaded.error_type
    )


def test_dump_then_load_round_trips(tmp_path, tracer):
    with tracer.span("root", app="text2sql"):
        with tracer.span("child", operator="generate", 汉字="值"):
            pass
    spans = tracer.last_trace()
    path = tmp_path / "trace.jsonl"
    assert dump_spans(spans, path) == 2
    reloaded = load_spans(path)
    assert len(reloaded) == len(spans)
    for original, copy in zip(spans, reloaded):
        assert _reloadable(original, copy)


def test_error_span_round_trips_error_type(tmp_path, tracer):
    try:
        with tracer.span("boom"):
            raise ValueError("x")
    except ValueError:
        pass
    path = tmp_path / "trace.jsonl"
    dump_spans(tracer.last_trace(), path)
    (reloaded,) = load_spans(path)
    assert reloaded.status == "error"
    assert reloaded.error_type == "ValueError"


def test_group_traces_reassembles_per_trace(tmp_path, tracer):
    for _ in range(2):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
    spans = [
        span
        for trace_id in tracer.trace_ids()
        for span in tracer.trace(trace_id)
    ]
    path = tmp_path / "all.jsonl"
    dump_spans(spans, path)
    grouped = group_traces(load_spans(path))
    assert len(grouped) == 2
    for trace_spans in grouped.values():
        assert {span.name for span in trace_spans} == {"root", "child"}
