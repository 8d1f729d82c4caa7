"""ASY rules: blocking calls inside async bodies."""

from tests.staticcheck.conftest import analyze, codes


class TestAsy001BlockingCall:
    def test_time_sleep_flagged(self):
        source = """\
        import time

        async def run():
            time.sleep(0.1)
        """
        found = analyze(source, {"ASY"})
        assert codes(found) == ["ASY001"]

    def test_asyncio_sleep_clean(self):
        source = """\
        import asyncio

        async def run():
            await asyncio.sleep(0.1)
        """
        assert analyze(source, {"ASY"}) == []

    def test_lock_acquire_flagged(self):
        source = """\
        async def run(self):
            self._lock.acquire()
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY001"]

    def test_nonblocking_acquire_clean(self):
        source = """\
        async def run(self):
            self._lock.acquire(blocking=False)
        """
        assert analyze(source, {"ASY"}) == []

    def test_open_flagged(self):
        source = """\
        async def run(path):
            with open(path) as handle:
                return handle.read()
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY001"]

    def test_sync_code_not_flagged(self):
        source = """\
        import time

        def run():
            time.sleep(0.1)
        """
        assert analyze(source, {"ASY"}) == []

    def test_nested_sync_def_exempt(self):
        # A def nested in an async def runs wherever it is invoked —
        # here, handed to an executor (the SMMF client pattern).
        source = """\
        import time, asyncio

        async def run():
            def blocking():
                time.sleep(0.1)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, blocking)
        """
        assert analyze(source, {"ASY"}) == []


class TestAsy002QueueGet:
    def test_unbounded_get_flagged(self):
        source = """\
        async def drain(self):
            return self._queue.get()
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY002"]

    def test_get_with_timeout_clean(self):
        source = """\
        async def drain(self):
            return self._queue.get(timeout=0.5)
        """
        assert analyze(source, {"ASY"}) == []

    def test_dict_get_not_flagged(self):
        source = """\
        async def lookup(self, key):
            return self._mapping.get(key)
        """
        assert analyze(source, {"ASY"}) == []


class TestAsy003SyncPrimitives:
    def test_condition_wait_flagged(self):
        source = """\
        async def run(self):
            self._cond.wait()
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY003"]

    def test_event_wait_with_timeout_still_flagged(self):
        # threading.Event.wait(timeout) parks the loop for the whole
        # timeout; only awaiting is loop-safe.
        source = """\
        async def run(self):
            self._ready.wait(0.5)
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY003"]

    def test_awaited_wait_clean(self):
        source = """\
        async def run(self):
            await self._event.wait()
        """
        assert analyze(source, {"ASY"}) == []

    def test_wait_under_wait_for_clean(self):
        # The call is not the direct await operand, but it is inside
        # the awaited expression — asyncio.wait_for(event.wait(), ...)
        # is the canonical timed wait.
        source = """\
        import asyncio

        async def run(self):
            await asyncio.wait_for(self._kick.wait(), timeout=1.0)
        """
        assert analyze(source, {"ASY"}) == []

    def test_thread_join_flagged(self):
        source = """\
        async def run(self):
            self._thread.join()
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY003"]

    def test_str_join_clean(self):
        source = """\
        async def render(self, parts):
            return ", ".join(parts)
        """
        assert analyze(source, {"ASY"}) == []

    def test_blocking_queue_put_flagged(self):
        source = """\
        async def push(self, item):
            self._queue.put(item)
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY003"]

    def test_nonblocking_queue_put_clean(self):
        source = """\
        async def push(self, item):
            self._queue.put(item, block=False)
        """
        assert analyze(source, {"ASY"}) == []

    def test_queue_put_with_timeout_clean(self):
        source = """\
        async def push(self, item):
            self._queue.put(item, timeout=0.5)
        """
        assert analyze(source, {"ASY"}) == []

    def test_list_append_not_flagged(self):
        source = """\
        async def push(self, item):
            self._items.put(item)
        """
        assert analyze(source, {"ASY"}) == []

    def test_sync_def_exempt(self):
        source = """\
        def run(self):
            self._cond.wait()
            self._thread.join()
        """
        assert analyze(source, {"ASY"}) == []


class TestAsy004ThreadHopTwin:
    def test_return_await_to_thread_of_the_sync_twin_flagged(self):
        source = """\
        import asyncio

        class Client:
            async def agenerate(self, model, prompt, **kwargs):
                return await asyncio.to_thread(
                    self.generate, model, prompt, **kwargs
                )
        """
        found = analyze(source, {"ASY"})
        assert codes(found) == ["ASY004"]
        assert found[0].diagnostic.subject == "agenerate"
        assert found[0].line == 4

    def test_docstring_and_bare_await_still_flagged(self):
        source = """\
        import asyncio

        class Server:
            async def ahandle(self, request):
                \"\"\"Async handle.\"\"\"
                await asyncio.to_thread(self.handle, request)
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY004"]

    def test_from_import_alias_resolved(self):
        source = """\
        from asyncio import to_thread

        class Store:
            async def aflush(self):
                return await to_thread(self.flush)
        """
        assert codes(analyze(source, {"ASY"})) == ["ASY004"]

    def test_a_body_that_does_more_is_clean(self):
        source = """\
        import asyncio

        class Client:
            async def agenerate(self, prompt):
                if self.cached(prompt):
                    return self.lookup(prompt)
                return await asyncio.to_thread(self.generate, prompt)
        """
        assert analyze(source, {"ASY"}) == []

    def test_other_callee_or_receiver_is_clean(self):
        source = """\
        import asyncio

        class Policy:
            async def arun(self, delay):
                return await asyncio.to_thread(self._sleep, delay)

            async def aask(self, client, prompt):
                return await asyncio.to_thread(client.ask, prompt)

            async def fetch(self):
                return await asyncio.to_thread(self.etch)
        """
        assert analyze(source, {"ASY"}) == []

    def test_an_async_implementation_is_clean(self):
        source = """\
        class Client:
            async def agenerate(self, prompt):
                return await self._server.ahandle(prompt)
        """
        assert analyze(source, {"ASY"}) == []

    def test_waivable_with_a_reason(self):
        source = """\
        import asyncio

        class Agent:
            # staticcheck: allow ASY004 - the default subclasses override
            async def areply(self, message):
                return await asyncio.to_thread(self.reply, message)
        """
        assert analyze(source, {"ASY"}) == []
