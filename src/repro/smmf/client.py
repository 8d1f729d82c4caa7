"""Client SDK applications use to talk to SMMF.

The client fronts the serving stack with the **inference cache
tier**: repeated ``generate``/``agenerate`` calls with the same (model,
exact prompt, parameters) are answered from cache and never reach the
worker pool. Cache keys are scoped to one client instance, so two
serving stacks in one process never share entries. To fan many prompts
out concurrently, ``asyncio.gather`` their ``agenerate`` calls.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Optional, Union

from repro.cache.keys import inference_key, instance_token
from repro.cache.manager import get_cache_manager
from repro.cache.store import Uncached
from repro.obs.metrics import Counter, MetricHandle
from repro.resilience.config import ResilienceConfig
from repro.resilience.retry import RetryPolicy
from repro.smmf.api_server import ApiRequest, ApiServer

#: Statuses worth retrying: 429 is scheduler backpressure (comes with
#: a ``retry_after`` hint), 503 is a transient serving failure (all
#: replicas down mid-recovery, scheduler restarting).
_TRANSIENT_STATUSES = (429, 503)

#: A fresh answer from the serving stack; a degraded one is
#: :class:`Uncached`.
_Answer = Union[str, Uncached]

_STALE_SERVED = MetricHandle(
    Counter, "resilience_stale_served_total",
    "turns answered from stale cache after a serving failure",
)


def _classify_client_error(
    exc: BaseException,
) -> tuple[bool, Optional[float]]:
    if isinstance(exc, ClientError) and exc.status in _TRANSIENT_STATUSES:
        return True, exc.retry_after
    return False, None


class ClientError(Exception):
    """A request was rejected by the server.

    ``retry_after`` carries the server's backoff hint (seconds) when
    the rejection was backpressure (a 429 from the serving scheduler);
    it is ``None`` for every other failure. ``code`` is the server's
    stable machine identifier for the failure (``"tenant_throttled"``,
    ``"scheduler_overloaded"``, ...) — branch on it, not the message.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        code: Optional[str] = None,
    ) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.retry_after = retry_after
        self.code = code


class LLMClient:
    """Thin convenience wrapper over the API server protocol.

    >>> # client = LLMClient(api_server)
    >>> # client.generate("chat", "hello", task="chat")
    """

    def __init__(
        self,
        server: ApiServer,
        resilience: Optional[ResilienceConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._server = server
        self._cache_token = instance_token()
        self._resilience = resilience or ResilienceConfig()
        self._retry_policy = RetryPolicy(
            self._resilience.retry, sleep=sleep, rng=rng, layer="client"
        )
        #: Lifetime count of turns served stale from cache (degraded).
        self.stale_serves = 0
        #: Lifetime count of responses the server marked ``degraded``
        #: (answered by the fallback model, not the requested one).
        self.degraded_serves = 0

    def generate(
        self,
        model: str,
        prompt: str,
        task: Optional[str] = None,
        max_tokens: int = 512,
        metadata: Optional[dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> str:
        """Generate text; raises :class:`ClientError` on any failure.

        Successful responses are cached in the inference tier; errors
        and degraded answers (served by the fallback model) are never
        cached, so a failed or degraded call retries the stack next
        time.
        ``timeout_s`` is the serving deadline: a request still queued
        in the serving engine when it expires fails with a 504 instead
        of waiting forever (it does not key the cache — a deadline is
        an SLO, not part of the answer).
        """
        manager = get_cache_manager()
        turn = _CachedTurn(
            self, manager, model, prompt, task, max_tokens, metadata
        )
        try:
            return manager.cached(
                "inference",
                turn.key,
                lambda: self._generate_uncached(
                    model, prompt, task, max_tokens, metadata, timeout_s
                ),
            )
        except ClientError as exc:
            return turn.stale_or_raise(exc)

    async def agenerate(
        self,
        model: str,
        prompt: str,
        task: Optional[str] = None,
        max_tokens: int = 512,
        metadata: Optional[dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> str:
        """Async :meth:`generate`, async end-to-end: no thread is
        parked per request, so concurrent agents share batches.

        The inference-tier lookup shares one single-flight with sync
        callers (a thread computing a key serves coroutines waiting on
        it, and the other way round); a miss awaits ``ahandle`` (the
        engine's ``aschedule``), backing off via the retry policy's
        async path.
        """
        manager = get_cache_manager()
        turn = _CachedTurn(
            self, manager, model, prompt, task, max_tokens, metadata
        )
        try:
            return await manager.acached(
                "inference",
                turn.key,
                lambda: self._agenerate_uncached(
                    model, prompt, task, max_tokens, metadata, timeout_s
                ),
            )
        except ClientError as exc:
            return turn.stale_or_raise(exc)

    async def astream(
        self,
        model: str,
        prompt: str,
        task: Optional[str] = None,
        max_tokens: int = 512,
        metadata: Optional[dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ):
        """Stream chunks of a response as they are generated: an async
        generator, async end-to-end — no thread is parked per stream;
        chunks are awaited straight off the engine's bounded per-stream
        buffer.

        Streams bypass the inference cache (a partial transcript is
        not a cacheable answer). Closing the generator (``aclose()``,
        or breaking out of the ``async for``) cancels the request: its
        batch slot and worker in-flight count free mid-generation.
        Admission and mid-stream failures both raise
        :class:`ClientError` with the same codes as :meth:`generate`,
        plus ``stream_closed`` (server shut down mid-stream) and
        ``client_cancelled``.
        """
        result = await self._server.ahandle_stream(
            self._stream_request(
                model, prompt, task, max_tokens, metadata, timeout_s
            )
        )
        self._raise_for_status(result)
        try:
            async for chunk in result.chunks:
                yield chunk
        except BaseException as exc:
            raise self._error(ApiServer._guard(exc)) from exc
        finally:
            await result.chunks.aclose()

    @staticmethod
    def _request_body(
        model: str,
        prompt: str,
        task: Optional[str],
        max_tokens: int,
        metadata: Optional[dict[str, Any]],
        timeout_s: Optional[float],
    ) -> dict[str, Any]:
        body: dict[str, Any] = {
            "model": model,
            "prompt": prompt,
            "task": task,
            "max_tokens": max_tokens,
            "metadata": metadata or {},
        }
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return body

    @staticmethod
    def _generate_request(body: dict[str, Any]) -> ApiRequest:
        return ApiRequest("POST", "/v1/generate", body)

    @classmethod
    def _stream_request(cls, *fields: Any) -> ApiRequest:
        return ApiRequest(
            "POST", "/v1/generate/stream", cls._request_body(*fields)
        )

    @staticmethod
    def _error(result) -> ClientError:
        """The structured error for a rejection — a non-200 response,
        or the server's mapping of a failure that arrived mid-stream —
        so callers branch on ``code``/``retry_after`` identically for
        both shapes."""
        return ClientError(
            result.status,
            result.body.get("error", "unknown error"),
            retry_after=result.body.get("retry_after"),
            code=result.body.get("code"),
        )

    def _raise_for_status(self, result) -> None:
        if result.status != 200:
            raise self._error(result)

    def _generate_uncached(
        self,
        model: str,
        prompt: str,
        task: Optional[str],
        max_tokens: int,
        metadata: Optional[dict[str, Any]],
        timeout_s: Optional[float] = None,
    ) -> _Answer:
        """One logical round trip through the serving stack.

        Transient rejections (429/503) are retried under the
        :class:`RetryPolicy` — a 429's
        ``retry_after`` hint floors the backoff, so shed requests wait
        out the backlog the server predicted instead of failing the
        user's turn.
        """
        body = self._request_body(
            model, prompt, task, max_tokens, metadata, timeout_s
        )
        return self._retry_policy.run(
            lambda: self._roundtrip(body),
            classify=_classify_client_error,
        )

    async def _agenerate_uncached(
        self,
        model: str,
        prompt: str,
        task: Optional[str],
        max_tokens: int,
        metadata: Optional[dict[str, Any]],
        timeout_s: Optional[float] = None,
    ) -> _Answer:
        body = self._request_body(
            model, prompt, task, max_tokens, metadata, timeout_s
        )
        return await self._retry_policy.arun(
            lambda: self._aroundtrip(body),
            classify=_classify_client_error,
        )

    def _roundtrip(self, body: dict[str, Any]) -> _Answer:
        return self._unpack(
            self._server.handle(self._generate_request(body))
        )

    async def _aroundtrip(self, body: dict[str, Any]) -> _Answer:
        return self._unpack(
            await self._server.ahandle(self._generate_request(body))
        )

    def _unpack(self, response) -> _Answer:
        """What every unary round trip does with the server's answer,
        sync or async: raise on rejection, return the text. A degraded
        answer is counted and wrapped :class:`Uncached`: it reaches the
        caller and any coalesced waiters but is never stored under the
        requested model's key."""
        self._raise_for_status(response)
        if response.body.get("degraded"):
            self.degraded_serves += 1
            return Uncached(response.body["text"])
        return response.body["text"]

    def serving_stats(self) -> dict[str, Any]:
        """Serving engine statistics (``GET /v1/serving``)."""
        return self._server.handle(ApiRequest("GET", "/v1/serving")).body

    def models(self) -> list[str]:
        response = self._server.handle(ApiRequest("GET", "/v1/models"))
        return response.body["models"]

    def health(self) -> dict[str, Any]:
        return self._server.handle(ApiRequest("GET", "/v1/health")).body

    def metrics(self) -> dict[str, Any]:
        return self._server.handle(ApiRequest("GET", "/v1/metrics")).body[
            "metrics"
        ]


class _CachedTurn:
    """One inference-tier turn's bookkeeping, shared by ``generate`` and
    ``agenerate``: the key and the degradation ladder's last rung
    (stale-on-503)."""

    __slots__ = ("client", "key", "stale")

    def __init__(self, client: LLMClient, manager: Any, *request: Any):
        """``request``: ``(model, prompt, task, max_tokens, metadata)``."""
        self.client = client
        self.key = inference_key(client._cache_token, *request)
        # Snapshot the cached answer for this exact request — fresh *or
        # expired* — before the lookup can expire-evict it; served only
        # if the stack then 503s. A 1-tuple so "" still counts.
        self.stale: Optional[tuple[str]] = None
        if client._resilience.serve_stale:
            found, text = manager.peek_stale("inference", self.key)
            if found:
                self.stale = (text,)

    def stale_or_raise(self, exc: ClientError) -> str:
        if self.stale is None or exc.status != 503:
            raise exc
        self.client.stale_serves += 1
        _STALE_SERVED.labels()()
        return self.stale[0]
