"""HTTP-shaped API server over the controller.

The paper's deployment layer has "an API server and a model handler".
Requests/responses here are dataclasses shaped like HTTP (method, path,
JSON body, status code) so the protocol is faithful while staying
in-process (DESIGN.md records the substitution).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.llm.base import GenerationRequest, LLMError
from repro.serving.scheduler import (
    DeadlineExceeded,
    SchedulerClosed,
    SchedulerOverloaded,
    StreamCancelled,
    StreamClosed,
)
from repro.smmf.controller import ModelController, SmmfError, model_metrics


@dataclass
class ApiRequest:
    method: str
    path: str
    body: dict[str, Any] = field(default_factory=dict)


@dataclass
class ApiResponse:
    status: int
    body: dict[str, Any]

    def json(self) -> str:
        return json.dumps(self.body)


@dataclass
class ApiStreamResponse:
    """A chunked (SSE-shaped) response.

    ``chunks`` is the async token iterator on a 200. Admission
    failures surface as a non-200 status with the same error body
    :class:`ApiResponse` carries; mid-stream failures raise out of the
    iterator (the connection would drop mid-transfer over real HTTP).
    """

    status: int
    body: dict[str, Any]
    chunks: Optional[Any] = None


class _InvalidRequest(Exception):
    """The request body cannot be turned into a generation request."""


#: ``(exception class, HTTP status, stable code)``, first match wins.
_ERROR_STATUS = (
    (_InvalidRequest, 400, "invalid_request"),
    (SchedulerOverloaded, 429, "scheduler_overloaded"),
    (DeadlineExceeded, 504, "deadline_exceeded"),
    # 499: the nginx convention for "client closed the request".
    (StreamCancelled, 499, "client_cancelled"),
    (StreamClosed, 503, "stream_closed"),
    (SchedulerClosed, 503, "scheduler_closed"),
    (SmmfError, 503, "smmf_unavailable"),
    (LLMError, 422, "llm_error"),
)

#: The one route with an awaitable fast path (see ``ApiServer.ahandle``).
_GENERATE_ROUTE = ("POST", "/v1/generate")


class ApiServer:
    """Routes ``/v1/*`` endpoints onto a :class:`ModelController`."""

    def __init__(self, controller: ModelController) -> None:
        self.controller = controller

    def handle(self, request: ApiRequest) -> ApiResponse:
        route = (request.method.upper(), request.path)
        if route == _GENERATE_ROUTE:
            return self._generate(request.body)
        if route == ("GET", "/v1/models"):
            return ApiResponse(200, {"models": self.controller.models()})
        if route == ("GET", "/v1/health"):
            return self._health()
        if route == ("GET", "/v1/metrics"):
            return ApiResponse(200, {"metrics": model_metrics()})
        if route == ("GET", "/v1/serving"):
            return self._serving()
        return ApiResponse(
            404,
            {
                "error": f"no route {request.method} {request.path}",
                "code": "route_not_found",
            },
        )

    @staticmethod
    def _parse_generation(
        body: dict[str, Any],
    ) -> tuple[str, GenerationRequest, Optional[float]]:
        model = body.get("model")
        prompt = body.get("prompt")
        if not model or prompt is None:
            raise _InvalidRequest("body requires 'model' and 'prompt'")
        generation_request = GenerationRequest(
            prompt=prompt,
            task=body.get("task"),
            max_tokens=int(body.get("max_tokens", 512)),
            temperature=float(body.get("temperature", 0.0)),
            metadata=dict(body.get("metadata", {})),
        )
        timeout_s = body.get("timeout_s")
        return (
            model,
            generation_request,
            float(timeout_s) if timeout_s is not None else None,
        )

    @staticmethod
    def _guard(exc: BaseException) -> ApiResponse:
        """The one request/serving-error → HTTP mapping
        (:data:`_ERROR_STATUS`), shared by the unary and streaming
        endpoints — and by the client for failures that arrive
        mid-stream — so codes stay identical; anything else is
        re-raised."""
        for kind, status, code in _ERROR_STATUS:
            if isinstance(exc, kind):
                # Scheduler errors carry their own stable code, which
                # subclasses (tenant throttling) override.
                body = {"error": str(exc), "code": getattr(exc, "code", code)}
                if isinstance(exc, SchedulerOverloaded):
                    body["retry_after"] = exc.retry_after
                return ApiResponse(status, body)
        raise exc

    @staticmethod
    def _generated(response) -> ApiResponse:
        body = {
            "text": response.text,
            "model": response.model,
            "usage": {
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
                "total_tokens": response.total_tokens,
            },
            "finish_reason": response.finish_reason,
        }
        # Only present when the degradation ladder answered (fallback
        # model), keeping the happy-path body byte-identical.
        if response.degraded:
            body["degraded"] = True
        return ApiResponse(200, body)

    # ``_generate``/``_agenerate`` differ only in the line that waits:
    # parsing, the error mapping and the response body are shared.

    def _generate(self, body: dict[str, Any]) -> ApiResponse:
        try:
            model, generation_request, timeout_s = self._parse_generation(
                body
            )
            response = self.controller.scheduler.schedule(
                model, generation_request, timeout_s=timeout_s
            )
        except Exception as exc:
            return self._guard(exc)
        return self._generated(response)

    async def _agenerate(self, body: dict[str, Any]) -> ApiResponse:
        try:
            model, generation_request, timeout_s = self._parse_generation(
                body
            )
            response = await self.controller.scheduler.aschedule(
                model, generation_request, timeout_s=timeout_s
            )
        except Exception as exc:
            return self._guard(exc)
        return self._generated(response)

    async def ahandle(self, request: ApiRequest) -> ApiResponse:
        """Async :meth:`handle`.

        ``POST /v1/generate`` awaits the scheduler's ``aschedule``, so
        no thread is parked per in-flight request and concurrent
        callers coalesce into shared batches; every other route is a
        lock-only read, answered inline.
        """
        if (request.method.upper(), request.path) == _GENERATE_ROUTE:
            return await self._agenerate(request.body)
        return self.handle(request)

    async def ahandle_stream(self, request: ApiRequest) -> ApiStreamResponse:
        """``POST /v1/generate/stream``: token streaming, async
        end-to-end (admission in the caller's task, chunks awaited off
        the engine's loop).

        The stream rides the engine's bounded per-request
        :class:`TokenStream` (end-to-end backpressure; closing the
        returned iterator cancels the member mid-generation).
        """
        route = (request.method.upper(), request.path)
        if route != ("POST", "/v1/generate/stream"):
            return ApiStreamResponse(
                404,
                {
                    "error": f"no stream route {request.method} "
                    f"{request.path}",
                    "code": "route_not_found",
                },
            )
        try:
            model, generation_request, timeout_s = self._parse_generation(
                request.body
            )
            chunks = self.controller.scheduler.astream(
                model, generation_request, timeout_s=timeout_s
            )
        except Exception as exc:
            mapped = self._guard(exc)
            return ApiStreamResponse(mapped.status, mapped.body)
        return ApiStreamResponse(200, {}, chunks=chunks)

    def _serving(self) -> ApiResponse:
        return ApiResponse(200, self.controller.scheduler.stats())

    def _health(self) -> ApiResponse:
        workers = self.controller.workers()
        up = sum(1 for r in workers if r.healthy and r.worker.alive)
        return ApiResponse(
            200 if up else 503,
            {
                "workers": len(workers),
                "healthy": up,
                "models": self.controller.models(),
                "detail": self.controller.health_snapshot(),
            },
        )
