"""Unit tests of the benchmark's own arithmetic and tracing.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (the
parent ``benchmarks/conftest.py`` imports ``repro``). Nothing here boots
the stack or relies on that conftest's fixtures: the subjects are pure
functions and a recorder fed synthetic spans.
"""

import asyncio
import contextvars
import statistics
import threading

import pytest

from benchmarks.e2e import stats, trace, workloads
from benchmarks.e2e.trace import Span

# -- percentiles and rounds ----------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile_supported(200, 0.95)
    assert not stats.percentile_supported(199, 0.95)
    assert stats.percentile_supported(1000, 0.99)
    assert not stats.percentile_supported(999, 0.99)
    assert stats.percentile(list(range(199)), 0.95) is None
    assert stats.percentile([], 0.5) is None


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))  # 1..1000, shuffled order must not matter
    assert stats.percentile(samples[::-1], 0.50) == 500
    assert stats.percentile(samples, 0.95) == 950
    assert stats.percentile(samples, 0.99) == 990
    with pytest.raises(ValueError):
        stats.percentile(samples, 1.0)


def test_median_of_rounds_skips_rounds_that_could_not_report():
    assert stats.median_of_rounds([3.0, 1.0, 2.0]) == 2.0
    assert stats.median_of_rounds([None, 4.0, 2.0]) == 3.0
    assert stats.median_of_rounds([None, None]) is None


def _round(turn_ms, wall_s, setup_s, failed=0):
    return {
        "turn_ms": turn_ms, "write_ms": [], "ttft_ms": [],
        "attempted": len(turn_ms) + failed, "succeeded": len(turn_ms),
        "failed": failed, "wall_s": wall_s, "cpu_s": wall_s / 2,
        "setup_s": setup_s, "peak_rss_mb": 60.0 + setup_s,
    }


def test_a_run_pools_its_rounds_before_taking_percentiles():
    # Per round the medians are 1, 2 and 9, whose median is 2; of the
    # 100 pooled samples 60 are 9, so the run's median is 9.
    rounds = [
        _round([1.0] * 20, 1.0, 0.3),
        _round([2.0] * 20, 1.0, 0.5),
        _round([9.0] * 60, 8.0, 0.4, failed=1),
    ]
    metrics, samples = stats.pooled_metrics(rounds)
    assert samples == {"turns": 100, "writes": 0, "ttft": 0}
    assert metrics["turn_ms_p50"] == 9.0
    assert metrics["turn_ms_p95"] is None  # 100 samples leave 5 beyond it
    assert metrics["turns_per_s"] == pytest.approx(100 / 10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(5000.0 / 100)
    assert metrics["setup_s"] == 0.4 and metrics["peak_rss_mb"] == 60.4
    assert metrics["fail_ratio"] == pytest.approx(1 / 101)
    assert metrics["write_ms_p50"] is None


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        stats.worsening(0.0, 1.0, "lower")
    with pytest.raises(ValueError):
        stats.worsening(1.0, 1.0, "sideways")


def test_agree_within_is_symmetric_and_respects_the_bound():
    assert stats.agree_within(100.0, 109.0, "lower", 0.10)
    assert stats.agree_within(109.0, 100.0, "lower", 0.10)
    assert not stats.agree_within(100.0, 112.0, "lower", 0.10)
    assert not stats.agree_within(112.0, 100.0, "higher", 0.10)


def test_quartile_spread_matches_the_driver_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# -- the generator ---------------------------------------------------------


def _inputs() -> workloads.Inputs:
    return workloads.Inputs(
        amounts=tuple(float(v) for v in range(5, 2400, 4)),
        prices=tuple(float(v) for v in range(6, 500, 20)),
        ages=tuple(float(v) for v in range(18, 71)),
        n_users=40,
        n_products=25,
        next_order_id=601,
        kb_topics=(
            ("databases", ("index", "vacuum"), ("DuckDB", "MySQL")),
            ("security", ("encryption", "audit log"), ("TLS",)),
        ),
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_a_byte_identical_op_list(name):
    first = workloads.build_plan(name, 7, 0.1, _inputs())
    second = workloads.build_plan(name, 7, 0.1, _inputs())
    other = workloads.build_plan(name, 8, 0.1, _inputs())
    assert workloads.serialize(first.ops) == workloads.serialize(second.ops)
    assert workloads.serialize(first.warmup) == workloads.serialize(second.warmup)
    assert workloads.serialize(first.ops) != workloads.serialize(other.ops)


def test_chat_unique_never_repeats_a_question():
    plan = workloads.build_plan("chat_unique", 3, 0.25, _inputs())
    texts = [op.text for op in (*plan.warmup, *plan.ops)]
    assert len(set(texts)) == len(texts)
    assert {op.app for op in plan.ops} >= {"knowledge_qa", *workloads.SQL_APPS}


def test_chat2viz_only_gets_grouped_questions():
    plan = workloads.build_plan("chat_unique", 5, 0.5, _inputs())
    charted = [op for op in plan.ops if op.app == "chat2viz"]
    assert charted and all("GROUP BY" in op.gold_sql for op in charted)


def test_filters_always_match_seeded_rows():
    inputs = _inputs()
    plan = workloads.build_plan("gen_concurrent", 11, 0.1, inputs)
    assert len(plan.ops) == 500 and len(plan.warmup) == 20
    streamed = [i for i, op in enumerate(plan.ops) if op.kind == "gen_stream"]
    assert streamed == list(range(15, 500, 16))
    # ``matching`` is what every drawn filter was validated against.
    assert inputs.matching("amount", 5, 5) == 1
    assert inputs.matching("amount", 6, 8) == 0
    assert inputs.matching("age", 18, 70) == 53


def test_every_eighth_op_of_each_lane_is_an_ingest():
    plan = workloads.build_plan("dash_write_mix", 2, 1.0, _inputs())
    assert len(plan.ops) == 320
    for lane in workloads.lanes(plan.ops):
        kinds = [op.kind for _, op in lane]
        assert [i for i, k in enumerate(kinds) if k == "ingest"] == list(
            range(7, len(kinds), 8)
        )
    ids = [
        int(statement.split("(")[1].split(",")[0])
        for op in plan.ops
        for statement in op.statements
    ]
    assert ids == list(range(601, 601 + len(ids)))
    small = [
        op for op in plan.ops if op.kind == "chat" and "orders" not in op.gold_sql
    ]
    assert small, "a third of the pool reads only users/products"


def test_chat_repeat_replays_a_pool_of_forty():
    plan = workloads.build_plan("chat_repeat", 4, 0.2, _inputs())
    assert len({op.text for op in plan.ops}) <= 40
    assert len(plan.warmup) == 40 * len(workloads.TENANTS)
    assert {op.text for op in plan.ops} <= {op.text for op in plan.warmup}


def test_verification_sample_is_a_seeded_tenth():
    sample = workloads.verification_sample(9, 1200)
    assert len(sample) == 120 and sample == workloads.verification_sample(9, 1200)
    assert sample != workloads.verification_sample(10, 1200)


# -- self time on synthetic spans -------------------------------------------


def _span(span_id, parent, layer, start, end, name=None):
    return Span(span_id, parent, 0, layer, name or layer, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, "server", 0.0, 10.0),
        _span(2, 1, "apps", 1.0, 9.0),
        _span(3, 2, "smmf", 2.0, 5.0),
    ]
    self_s = trace.self_times(spans).self_s
    assert self_s == {1: 2.0, 2: 5.0, 3: 3.0}
    assert sum(self_s.values()) == 10.0


def test_overlapping_concurrent_children_are_counted_once():
    spans = [
        _span(1, None, "agents", 0.0, 10.0),
        _span(2, 1, "smmf", 1.0, 6.0),
        _span(3, 1, "smmf", 4.0, 8.0),  # overlaps span 2 on [4, 6]
        _span(4, 1, "smmf", 12.0, 13.0),  # outlives the parent: clipped away
    ]
    self_s = trace.self_times(spans).self_s
    assert self_s[1] == pytest.approx(3.0)  # 10 - |[1, 8]|
    rows = trace.table(spans, trace.self_times(spans))
    assert rows["smmf"].calls == 3 and rows["smmf"].self_ms == pytest.approx(10_000.0)


def test_serving_gives_up_time_behind_parentless_model_runs():
    spans = [
        _span(1, None, "smmf", 0.0, 10.0),
        _span(2, 1, "serving", 1.0, 9.0),
        _span(3, None, "llm", 3.0, 5.0),  # the engine's own context
        _span(4, None, "llm", 4.0, 7.0),
        _span(5, None, "llm", 20.0, 21.0),  # someone else's batch, later
    ]
    breakdown = trace.self_times(spans)
    assert breakdown.self_s[2] == pytest.approx(4.0)  # 8 - |[3, 7]|
    assert breakdown.blocking_s == pytest.approx(4.0)
    assert breakdown.self_s[1] == pytest.approx(2.0)


def test_merge_intervals():
    assert trace.merge_intervals([(3, 4), (1, 2), (2, 3.5), (6, 6), (5, 7)]) == [
        (1, 4),
        (5, 7),
    ]


def test_statement_kind():
    assert trace.statement_kind("  select 1") == "read"
    assert trace.statement_kind("WITH t AS (SELECT 1) SELECT * FROM t") == "read"
    assert trace.statement_kind("EXPLAIN SELECT 1") == "read"
    for sql in ("BEGIN", "COMMIT", "INSERT INTO t VALUES (1)", "CREATE TABLE t (a)"):
        assert trace.statement_kind(sql) == "write"


# -- the recorder and its wrappers -------------------------------------------


class _Clock:
    """Advances one second per reading: every span has a known length."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_nest_and_record_errors():
    recorder = trace.Recorder(clock=_Clock())

    def inner():
        raise KeyError("boom")

    wrapped_inner = trace.wrap(recorder, "llm", "llm.inner", inner)

    def outer():
        try:
            wrapped_inner()
        except KeyError:
            return "handled"

    assert trace.wrap(recorder, "smmf", "smmf.outer", outer)() == "handled"
    inner_span, outer_span = recorder.spans
    assert (inner_span.layer, inner_span.error) == ("llm", True)
    assert inner_span.parent == outer_span.span_id and outer_span.parent is None
    assert not outer_span.error
    assert trace.self_times(recorder.spans).self_s[outer_span.span_id] == 2.0


def test_parent_follows_a_copied_context_into_another_thread():
    recorder = trace.Recorder()
    child = trace.wrap(recorder, "llm", "llm.child", lambda: None)

    def parent():
        context = contextvars.copy_context()
        thread = threading.Thread(target=context.run, args=(child,))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        bare = threading.Thread(target=child)  # no context: an orphan
        bare.start()
        bare.join(timeout=10)
        assert not bare.is_alive()

    trace.wrap(recorder, "serving", "serving.parent", parent)()
    adopted, orphan, root = recorder.spans
    assert adopted.parent == root.span_id
    assert orphan.parent is None and root.parent is None


def test_coroutines_and_async_generators_are_spanned():
    recorder = trace.Recorder()

    async def leaf():
        await asyncio.sleep(0)
        return 1

    wrapped_leaf = trace.wrap(recorder, "serving", "serving.leaf", leaf)

    async def stream():
        for _ in range(3):
            yield await wrapped_leaf()

    wrapped_stream = trace.wrap(recorder, "smmf", "smmf.stream", stream)

    async def main():
        trace.Recorder.set_op(42)
        return [item async for item in wrapped_stream()]

    assert asyncio.run(main()) == [1, 1, 1]
    *leaves, stream_span = recorder.spans
    assert len(leaves) == 3
    assert all(s.parent == stream_span.span_id and s.op == 42 for s in leaves)
    assert stream_span.parent is None and stream_span.layer == "smmf"


def test_cache_compute_is_charged_to_the_calling_layer():
    recorder = trace.Recorder(clock=_Clock())

    class Manager:
        def cached(self, tier, key, compute, **attributes):
            return compute()

    cached = trace._wrap_cached(recorder, Manager.cached)

    def execute():
        return cached(Manager(), "sql", "key", lambda: "rows", database="sales")

    assert trace.wrap(recorder, "sqlengine", "sqlengine.read", execute)() == "rows"
    compute, lookup, read = recorder.spans
    assert (compute.layer, compute.name) == ("sqlengine", "sqlengine.compute")
    assert (lookup.layer, lookup.name) == ("cache", "cache.sql")
    assert compute.parent == lookup.span_id and lookup.parent == read.span_id
    rows = trace.table(recorder.spans, trace.self_times(recorder.spans))
    assert rows["cache"].self_ms == 2000.0  # 3 s lookup minus 1 s compute
    assert rows["sqlengine"].self_ms == 3000.0


def test_install_patches_and_uninstall_restores():
    class Base:
        def inherited(self):
            return "base"

    class Owner(Base):
        def own(self):
            return "own"

    recorder = trace.Recorder()
    installation = trace.Installation()
    for attribute in ("own", "inherited"):
        installation.patch(
            Owner,
            attribute,
            lambda fn, a=attribute: trace.wrap(recorder, "x", f"x.{a}", fn),
        )
    assert (Owner().own(), Owner().inherited()) == ("own", "base")
    assert [span.name for span in recorder.spans] == ["x.own", "x.inherited"]
    Base().inherited()
    assert len(recorder.spans) == 2, "the base class itself is left alone"
    installation.uninstall()
    assert "inherited" not in vars(Owner)
    Owner().own()
    assert len(recorder.spans) == 2


def test_jsonl_export_round_trips(tmp_path):
    import json

    recorder = trace.Recorder(clock=_Clock())
    trace.wrap(recorder, "server", "server.handle", lambda: None)()
    path = tmp_path / "trace.jsonl"
    assert recorder.export_jsonl(str(path)) == 1
    (line,) = path.read_text().splitlines()
    assert json.loads(line) == {
        "id": 1, "parent": None, "op": None, "layer": "server",
        "name": "server.handle", "start": 1.0, "end": 2.0, "error": False,
    }


def test_layer_table_renders_the_sum_against_latency():
    spans = [
        _span(1, None, "server", 0.0, 0.010),
        _span(2, 1, "serving", 0.002, 0.008),
        _span(3, None, "llm", 0.004, 0.006),
    ]
    breakdown = trace.self_times(spans)
    text = trace.render_layer_table(
        trace.table(spans, breakdown), breakdown.blocking_s * 1000.0, 10.0
    )
    assert "sum / latency" in text and "100.0%" in text.splitlines()[-1]
