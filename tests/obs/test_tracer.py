"""Span lifecycle: nesting, parenting, error closure, retention."""

import asyncio
import itertools

import pytest

from repro.obs import NOOP_SPAN, STATUS_ERROR, STATUS_OK, Span, Tracer
from repro.runtime import set_clocks


@pytest.fixture
def ticking_clock():
    """Span clocks that read 0.0, 0.25, 0.5, ... seconds."""
    ticks = itertools.count()
    previous = set_clocks(mono=lambda: next(ticks) * 0.25)
    yield
    set_clocks(*previous)


class TestNesting:
    def test_root_span_has_no_parent(self, tracer):
        with tracer.span("root") as span:
            assert span.parent_id is None
            assert span.trace_id
        assert span.ended
        assert span.status == STATUS_OK

    def test_child_parents_to_enclosing_span(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id

    def test_siblings_share_parent_not_ids(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_stack_unwinds_after_exit(self, tracer):
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        # A fully closed trace does not leak into the next one.
        assert second.parent_id is None
        assert second.trace_id != first.trace_id

    def test_current_span_tracks_innermost(self, tracer):
        assert tracer.current_span() is None
        with tracer.span("root") as root:
            assert tracer.current_span() is root
            with tracer.span("child") as child:
                assert tracer.current_span() is child
            assert tracer.current_span() is root
        assert tracer.current_span() is None

    def test_asyncio_tasks_inherit_parent(self, tracer):
        """Tasks spawned inside a span parent to it — the AWEL runner
        relies on this (one task per operator)."""

        async def leaf(name):
            with tracer.span(name) as span:
                await asyncio.sleep(0)
            return span

        async def scenario():
            with tracer.span("root") as root:
                spans = await asyncio.gather(leaf("a"), leaf("b"))
            return root, spans

        root, leaves = asyncio.run(scenario())
        for span in leaves:
            assert span.parent_id == root.span_id
            assert span.trace_id == root.trace_id


class TestErrorPath:
    def test_raising_block_closes_span_as_error(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        assert span.ended
        assert span.status == STATUS_ERROR
        assert span.error_type == "ValueError"

    def test_error_span_is_still_recorded(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError
        spans = tracer.last_trace()
        assert [s.name for s in spans] == ["boom"]

    def test_inner_error_does_not_poison_outer_span(self, tracer):
        with tracer.span("root") as root:
            with pytest.raises(KeyError):
                with tracer.span("inner"):
                    raise KeyError("x")
        assert root.status == STATUS_OK


class TestRetention:
    def test_ring_buffer_evicts_oldest_trace(self):
        tracer = Tracer(max_traces=2)
        for name in ("one", "two", "three"):
            with tracer.span(name):
                pass
        ids = tracer.trace_ids()
        assert len(ids) == 2
        names = [tracer.trace(tid)[0].name for tid in ids]
        assert names == ["two", "three"]

    def test_last_trace_requires_finished_root(self, tracer):
        assert tracer.last_trace() == []
        with tracer.span("root"):
            with tracer.span("child"):
                pass
            # Child finished, root still open -> trace not complete yet.
            assert tracer.last_trace() == []
        assert {s.name for s in tracer.last_trace()} == {"root", "child"}

    def test_disabled_tracer_yields_noop_and_records_nothing(self, tracer):
        tracer.disable()
        with tracer.span("ignored") as span:
            span.set_attribute("k", "v")  # must not blow up
        assert span is NOOP_SPAN
        assert tracer.trace_ids() == []
        tracer.enable()
        with tracer.span("kept"):
            pass
        assert len(tracer.trace_ids()) == 1

    def test_exporter_receives_each_finished_span(self):
        class Collect:
            def __init__(self):
                self.names = []

            def export(self, span):
                self.names.append(span.name)

        exporter = Collect()
        tracer = Tracer(exporter=exporter)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        with tracer.span("second-root"):
            pass
        # Children close (and export) before their parents.
        assert exporter.names == ["child", "root", "second-root"]

class TestSpanData:
    def test_finish_is_idempotent(self):
        span = Span(name="s", trace_id="t", span_id="1")
        span.finish()
        first_end = span.end
        span.finish(status=STATUS_ERROR)
        assert span.end == first_end
        # Status updates still apply after the first close.
        assert span.status == STATUS_ERROR

    def test_duration_zero_while_open(self):
        span = Span(name="s", trace_id="t", span_id="1")
        assert span.duration_ms == 0.0
        span.finish()
        assert span.duration_ms >= 0.0


class TestLatencyRecorder:
    """A span given a latency recorder observes its own duration, from
    the two clock reads it makes anyway, once, under the outcome the
    recorder is chosen by at exit."""

    @staticmethod
    def recorder(observed):
        """A latency chooser that logs ``(outcome, ms)``."""
        return lambda outcome: lambda ms: observed.append((outcome, ms))

    def test_clean_exit_observes_the_span_duration(
        self, tracer, ticking_clock
    ):
        observed = []
        with tracer.span("timed", self.recorder(observed), k=1) as span:
            pass
        assert observed == [("ok", span.duration_ms)] == [("ok", 250.0)]
        assert span.attributes == {"k": 1}
        with tracer.span("timed", self.recorder(observed)) as span:
            span.set_outcome("404")
        assert observed[1:] == [("404", 250.0)]

    def test_raising_block_observes_under_error(self, tracer):
        observed = []
        with pytest.raises(ValueError):
            with tracer.span("timed", self.recorder(observed)) as span:
                span.set_outcome("200")
                raise ValueError("boom")
        assert [outcome for outcome, _ms in observed] == ["error"]
        assert tracer.last_trace()[0].status == STATUS_ERROR
        assert tracer.current_span() is None

    def test_disabled_tracer_still_observes_once(self, tracer, ticking_clock):
        tracer.disable()
        observed = []
        with tracer.span("timed", self.recorder(observed), k=1) as span:
            span.set_attribute("ignored", True)
            span.set_outcome("false")
            # A timing-only span is no parent: nothing is current.
            assert tracer.current_span() is None
        assert observed == [("false", 250.0)]
        assert span is not NOOP_SPAN
        with pytest.raises(ValueError):
            with tracer.span("timed", self.recorder(observed)):
                raise ValueError("boom")
        assert observed[1:] == [("error", 250.0)]
        assert tracer.span("plain") is NOOP_SPAN
        assert tracer.trace_ids() == []
