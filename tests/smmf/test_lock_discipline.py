"""Regression tests for the lock-discipline (LCK) remediation.

``repro check`` flagged attributes that were written under a lock but
read without it: the controller's logical clock and the worker counters
surfaced through ``health_snapshot``. These tests pin the fixed
behavior — consistent snapshots under concurrent mutation — so the
hand-verified discipline stays load-bearing even where a race would
only show up under contention.
"""

import threading

import pytest

from repro.llm import ChatModel, GenerationRequest
from repro.smmf import ModelController, ModelWorker


def make_worker(name="chat"):
    return ModelWorker(ChatModel(name))


class TestWorkerStatsSnapshot:
    def test_snapshot_reports_all_counters(self):
        worker = make_worker()
        worker.handle(GenerationRequest("hello"))
        worker.fail_next = 1
        with pytest.raises(Exception):
            worker.handle(GenerationRequest("boom"))
        stats = worker.stats_snapshot()
        assert stats == {
            "inflight": 0,
            "served": 1,
            "failed": 1,
            "cancelled_streams": 0,
            "alive": True,
            "prefix_entries": 0,
        }

    def test_snapshot_sees_kill_and_restart(self):
        worker = make_worker()
        worker.kill()
        assert worker.stats_snapshot()["alive"] is False
        worker.restart()
        assert worker.stats_snapshot()["alive"] is True

    def test_snapshot_consistent_under_concurrent_traffic(self):
        """Counters read mid-traffic always satisfy the invariant
        served + failed == issued once the threads join, and no
        snapshot ever observes negative in-flight counts."""
        worker = make_worker()
        requests_per_thread = 50
        observed = []
        stop = threading.Event()

        def traffic():
            for index in range(requests_per_thread):
                if index % 10 == 9:
                    worker.inject_failures(1)
                try:
                    worker.handle(GenerationRequest("q"))
                except Exception:
                    pass

        def watcher():
            while not stop.is_set():
                observed.append(worker.stats_snapshot())

        threads = [threading.Thread(target=traffic) for _ in range(4)]
        spy = threading.Thread(target=watcher)
        spy.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        spy.join()

        for stats in observed:
            assert stats["inflight"] >= 0
            assert 0 <= stats["served"] + stats["failed"] <= 200
        final = worker.stats_snapshot()
        assert final["inflight"] == 0
        assert final["served"] + final["failed"] == 4 * requests_per_thread


class TestControllerClockReads:
    def test_clock_property_reads_under_lock(self):
        controller = ModelController()
        controller.advance_clock(1.5)
        assert controller.clock == pytest.approx(1.5)
        assert controller._now() == pytest.approx(1.5)

    def test_concurrent_advances_never_lose_ticks(self):
        controller = ModelController()
        ticks_per_thread = 200

        def advance():
            for _ in range(ticks_per_thread):
                controller.advance_clock(0.001)

        threads = [threading.Thread(target=advance) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert controller.clock == pytest.approx(4 * ticks_per_thread * 0.001)

    def test_health_snapshot_uses_atomic_worker_stats(self):
        controller = ModelController()
        worker = make_worker()
        controller.register_worker(worker)
        worker.handle(GenerationRequest("hello"))
        (row,) = controller.health_snapshot()
        assert row["served"] == 1
        assert row["failed"] == 0
        assert row["alive"] is True
        assert row["inflight"] == 0
