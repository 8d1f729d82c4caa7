"""``worker_inflight`` agrees with the worker's count at quiescence.

The gauge is set under the worker lock, so two requests finishing on
one replica together cannot publish their counts in reverse order.
"""

import pytest

from repro.llm.base import LanguageModel
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.smmf.worker import ModelWorker
from tests.interleave import leave_together


class Silent(LanguageModel):
    def __init__(self):
        super().__init__("silent", frozenset({"chat"}))

    def complete(self, request):  # pragma: no cover - never generates
        raise AssertionError("no generation in this test")


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def test_inflight_gauge_after_two_requests_finish_together(registry):
    worker = ModelWorker(Silent(), worker_id="replica-a")
    worker._begin()
    worker._begin()
    gauge = registry.get("worker_inflight")
    assert gauge.value(worker="replica-a") == 2

    leave_together(
        lambda: worker._end(served=1),
        lambda: worker._end(served=1),
        instrument=gauge,
        owner=worker,
    )

    assert worker.load_snapshot() == (0, 2)
    assert gauge.value(worker="replica-a") == 0
