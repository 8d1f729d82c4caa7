"""One single-flight for threads and coroutines alike.

``get_or_compute`` (blocking) and ``aget_or_compute`` (awaitable)
claim and land the same flights, so a sync leader serves async waiters
and an async leader serves sync waiters. No sleeps: the store counts
claims on a semaphore, so each test knows every waiter has joined the
flight before it lets the leader finish.
"""

import asyncio
import sys
import threading

import pytest

from repro.cache.store import CacheStore, Uncached

WAIT_S = 10.0


class ObservedStore(CacheStore):
    """Releases ``claimed`` once per claim, after the claim is made."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.claimed = threading.Semaphore(0)

    def _claim(self, key, on_land=None):
        outcome = super()._claim(key, on_land)
        self.claimed.release()
        return outcome

    def await_claims(self, count):
        for _ in range(count):
            assert self.claimed.acquire(timeout=WAIT_S)


class Boom(Exception):
    pass


class SyncLeader:
    """A thread leading key ``"k"``; its compute parks until ``finish``."""

    def __init__(self, store, outcome="sync answer"):
        self.release = threading.Event()
        self.calls = 0
        self.result = None

        def compute():
            self.calls += 1
            assert self.release.wait(WAIT_S)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        def lead():
            try:
                self.result = store.get_or_compute("k", compute)
            except BaseException as exc:  # noqa: BLE001 - inspected later
                self.result = exc

        self.thread = threading.Thread(target=lead)
        self.thread.start()
        store.await_claims(1)

    def finish(self):
        self.release.set()
        self.thread.join(WAIT_S)
        return self.result


def sync_waiters(store, count, compute=lambda: "recomputed"):
    """``count`` threads that claim ``"k"``; ``join()`` returns each
    one's ``(value, hit)`` or raised exception."""
    results = [None] * count

    def wait(index):
        try:
            results[index] = store.get_or_compute("k", compute)
        except BaseException as exc:  # noqa: BLE001 - inspected later
            results[index] = exc

    threads = [
        threading.Thread(target=wait, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    store.await_claims(count)

    def join():
        for thread in threads:
            thread.join(WAIT_S)
        return results

    return join


async def gather_outcomes(tasks):
    return await asyncio.gather(*tasks, return_exceptions=True)


class TestSyncLeaderAsyncWaiters:
    def test_async_waiters_share_the_threads_compute(self):
        store = ObservedStore()
        leader = SyncLeader(store)
        recomputed = []

        async def compute():
            recomputed.append(1)
            return "async answer"

        async def main():
            waiters = [
                asyncio.create_task(store.aget_or_compute("k", compute))
                for _ in range(3)
            ]
            await asyncio.sleep(0)  # each task runs to its first await
            store.await_claims(3)
            # The loop is free while the waiters wait on the flight.
            assert not any(task.done() for task in waiters)
            await asyncio.to_thread(leader.finish)
            return await gather_outcomes(waiters)

        assert asyncio.run(main()) == [("sync answer", True)] * 3
        assert leader.result == ("sync answer", False)
        assert (leader.calls, recomputed) == (1, [])
        stats = store.stats()
        assert (stats.misses, stats.coalesced, stats.hits) == (1, 3, 0)
        assert store.peek("k") == (True, "sync answer")


class TestAsyncLeaderSyncWaiters:
    def test_threads_share_the_coroutines_compute(self):
        store = ObservedStore()
        computed = []

        async def main():
            release = asyncio.Event()

            async def compute():
                computed.append(1)
                await release.wait()
                return "async answer"

            leader = asyncio.create_task(store.aget_or_compute("k", compute))
            await asyncio.sleep(0)
            store.await_claims(1)
            join = sync_waiters(store, 3)
            release.set()
            result = await leader
            return result, await asyncio.to_thread(join)

        result, waited = asyncio.run(main())
        assert result == ("async answer", False)
        assert waited == [("async answer", True)] * 3
        assert computed == [1]
        stats = store.stats()
        assert (stats.misses, stats.coalesced) == (1, 3)


class TestRaisingLeader:
    def test_sync_leaders_error_reaches_every_waiter(self):
        store = ObservedStore()
        error = Boom("sync leader failed")
        leader = SyncLeader(store, outcome=error)

        async def never():
            raise AssertionError("a waiter must not compute")

        async def main():
            tasks = [
                asyncio.create_task(store.aget_or_compute("k", never))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            store.await_claims(2)
            join = sync_waiters(store, 2)
            await asyncio.to_thread(leader.finish)
            return await gather_outcomes(tasks), await asyncio.to_thread(join)

        awaited, waited = asyncio.run(main())
        assert leader.result is error
        assert awaited == [error, error]
        assert waited == [error, error]
        self.assert_nothing_cached(store)

    def test_async_leaders_error_reaches_every_waiter(self):
        store = ObservedStore()
        error = Boom("async leader failed")

        async def main():
            release = asyncio.Event()

            async def compute():
                await release.wait()
                raise error

            async def never():
                raise AssertionError("a waiter must not compute")

            leader = asyncio.create_task(store.aget_or_compute("k", compute))
            await asyncio.sleep(0)
            waiters = [
                asyncio.create_task(store.aget_or_compute("k", never))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            store.await_claims(3)
            join = sync_waiters(store, 2)
            release.set()
            awaited = await gather_outcomes([leader, *waiters])
            return awaited, await asyncio.to_thread(join)

        awaited, waited = asyncio.run(main())
        assert awaited == [error] * 3
        assert waited == [error, error]
        self.assert_nothing_cached(store)

    @staticmethod
    def assert_nothing_cached(store):
        assert "k" not in store
        assert store._flights == {}
        stats = store.stats()
        assert (stats.puts, stats.coalesced) == (0, 0)
        # The next caller computes afresh.
        assert store.get_or_compute("k", lambda: "later") == ("later", False)


class TestCancellation:
    def test_a_cancelled_waiter_leaves_the_flight_to_the_others(self):
        store = ObservedStore()
        leader = SyncLeader(store)

        async def never():
            raise AssertionError("a waiter must not compute")

        async def main():
            doomed, kept = (
                asyncio.create_task(store.aget_or_compute("k", never))
                for _ in range(2)
            )
            await asyncio.sleep(0)
            store.await_claims(2)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            assert "k" in store._flights
            await asyncio.to_thread(leader.finish)
            return await kept

        assert asyncio.run(main()) == ("sync answer", True)
        assert leader.result == ("sync answer", False)
        stats = store.stats()
        assert (stats.misses, stats.coalesced) == (1, 1)
        assert store.peek("k") == (True, "sync answer")

    def test_a_cancelled_leader_lands_uncached_and_waiters_reclaim(self):
        store = ObservedStore()
        fresh = []

        def sync_compute():
            fresh.append("sync")
            return "fresh"

        async def async_compute():
            fresh.append("async")
            return "fresh"

        async def main():
            parked = asyncio.Event()

            async def compute():
                await parked.wait()  # never set: only cancellation ends it
                return "stale"

            leader = asyncio.create_task(store.aget_or_compute("k", compute))
            await asyncio.sleep(0)
            waiter = asyncio.create_task(
                store.aget_or_compute("k", async_compute)
            )
            await asyncio.sleep(0)
            store.await_claims(2)
            join = sync_waiters(store, 1, compute=sync_compute)
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            return await waiter, await asyncio.to_thread(join)

        awaited, waited = asyncio.run(main())
        # Whichever waiter claimed first led the second flight; the
        # other shared it. Nobody inherited the leader's cancellation.
        assert len(fresh) == 1
        assert awaited == ("fresh", fresh != ["async"])
        assert waited == [("fresh", fresh != ["sync"])]
        assert store.peek("k") == (True, "fresh")
        assert store._flights == {}
        assert store.stats().misses == 2


class TestStress:
    def test_threads_and_coroutines_compute_each_key_once(self):
        """Eight threads and four event loops (eight coroutines each)
        race over 64 keys with a tiny switch interval: every key
        is computed exactly once and every lookup is counted once."""
        store = CacheStore(capacity=128)
        keys, rounds = 64, 5
        computed = []
        lock = threading.Lock()
        errors = []

        gate = threading.Event()

        def compute(key):
            with lock:
                computed.append(key)
            sum(range(20000))  # hold the flight open across switches
            return ("value", key)

        async def acompute(key):
            await asyncio.sleep(0)
            return compute(key)

        def sync_worker():
            try:
                assert gate.wait(WAIT_S)
                for _ in range(rounds):
                    for key in range(keys):
                        value, _hit = store.get_or_compute(
                            key, lambda key=key: compute(key)
                        )
                        assert value == ("value", key)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        async def coroutine():
            for _ in range(rounds):
                for key in range(keys):
                    value, _hit = await store.aget_or_compute(
                        key, lambda key=key: acompute(key)
                    )
                    assert value == ("value", key)

        def loop_worker():
            async def main():
                await asyncio.gather(*(coroutine() for _ in range(8)))

            try:
                assert gate.wait(WAIT_S)
                asyncio.run(main())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=sync_worker) for _ in range(8)]
        threads += [threading.Thread(target=loop_worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            gate.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(computed) == list(range(keys))
        stats = store.stats()
        assert stats.misses == keys
        assert stats.lookups == (8 + 4 * 8) * rounds * keys


class TestUncachedValue:
    def test_the_flight_shares_a_value_it_never_stores(self):
        store = ObservedStore()
        leader = SyncLeader(store, outcome=Uncached("degraded"))
        join = sync_waiters(store, 2)
        assert leader.finish() == ("degraded", False)
        assert join() == [("degraded", True)] * 2
        assert store.peek("k") == (False, None)
        assert store.get_or_compute("k", lambda: "fresh") == ("fresh", False)

    def test_an_async_leader_returns_it_unstored(self):
        store = CacheStore()

        async def compute():
            return Uncached("degraded")

        assert asyncio.run(store.aget_or_compute("k", compute)) == (
            "degraded",
            False,
        )
        assert len(store) == 0
