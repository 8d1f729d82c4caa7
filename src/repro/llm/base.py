"""The language-model interface served by SMMF."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.rag.embedder import tokenize_words


class LLMError(Exception):
    """A model failed to produce a response."""


@dataclass
class GenerationRequest:
    """One inference call.

    ``task`` is an optional routing hint ("text2sql", "plan", "qa",
    "summary"); models that serve several tasks dispatch on it, and the
    SMMF balancer can route by capability.
    """

    prompt: str
    task: Optional[str] = None
    max_tokens: int = 512
    temperature: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass
class GenerationResponse:
    """The model's answer plus usage accounting."""

    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int
    finish_reason: str = "stop"
    #: True when the answer came from the degradation ladder (fallback
    #: model or stale cache) rather than the requested model's pool.
    degraded: bool = False

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


def count_tokens(text: str) -> int:
    """Token accounting used by every simulated model."""
    return len(tokenize_words(text))


def chunk_text(text: str) -> list[str]:
    """Split a completion into the token-sized chunks streaming emits.

    The continuous-batching engine chunks every streamed member's
    response with this: the first word bare, every following word
    with its leading space, so the chunks join back to the text.
    """
    words = text.split(" ")
    return [
        word if index == 0 else f" {word}"
        for index, word in enumerate(words)
    ]


class LanguageModel(abc.ABC):
    """A deployable model: name, capabilities, and generate()."""

    def __init__(self, name: str, capabilities: frozenset[str]) -> None:
        self.name = name
        self.capabilities = capabilities

    @abc.abstractmethod
    def complete(self, request: GenerationRequest) -> str:
        """Produce the completion text for ``request``."""

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        """Run inference with usage accounting and budget enforcement."""
        if request.task is not None and request.task not in self.capabilities:
            raise LLMError(
                f"model {self.name!r} does not support task "
                f"{request.task!r} (capabilities: {sorted(self.capabilities)})"
            )
        text = self.complete(request)
        completion_tokens = count_tokens(text)
        finish_reason = "stop"
        if completion_tokens > request.max_tokens:
            words = text.split()
            text = " ".join(words[: request.max_tokens])
            completion_tokens = request.max_tokens
            finish_reason = "length"
        return GenerationResponse(
            text=text,
            model=self.name,
            prompt_tokens=self.count_prompt_tokens(request.prompt),
            completion_tokens=completion_tokens,
            finish_reason=finish_reason,
        )

    def count_prompt_tokens(self, prompt: str) -> int:
        """Usage accounting; a model with a prefix store overrides it
        to count a shared prefix once."""
        return count_tokens(prompt)

    def cached_prefixes(self) -> int:
        """Entries the replica's prefix store holds (no store: 0)."""
        return 0

    def drop_prefixes(self) -> None:
        """Empty the prefix store, as the process dying would."""

    def generate_batch(
        self, requests: list[GenerationRequest]
    ) -> list[GenerationResponse]:
        """Run a batch of inference calls; responses align with inputs.

        The base implementation is a plain loop, so every model gains
        the API for free. Models whose execution can amortize work
        across a batch (one run per distinct prompt, one prefix
        compile per distinct prefix, one latency window on simulated
        hardware) override this — that override is what the serving
        engine's fused steps exploit.
        """
        return [self.generate(request) for request in requests]

    def start_batch(
        self, requests: list[GenerationRequest]
    ) -> "BatchExecution":
        """Open a resumable batched run (the continuous-batching hook).

        Where :meth:`generate_batch` is one closed-world call, a
        :class:`BatchExecution` is a *live* batch: the serving engine
        admits newly arrived compatible requests into it between
        forward passes and cancels members whose consumer walked away.
        The base execution drives :meth:`generate_batch` one fused
        pass at a time, so every model supports step-level scheduling
        without further code; models with their own batch economics
        (e.g. :class:`repro.serving.simulation.LatencySimModel`)
        inherit them automatically because each step *is* a
        ``generate_batch`` call.
        """
        return BatchExecution(self, requests)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class BatchExecution:
    """One in-flight batched inference run with admit/step/cancel.

    The vLLM-style decomposition of ``generate_batch``: instead of one
    call over a frozen request list, the batch is a set of *members*
    that changes between steps. :meth:`step` runs one fused forward
    pass over every admitted-but-uncomputed member; :meth:`admit` adds
    a member mid-run; :meth:`cancel` removes one whose consumer
    disconnected — before its pass, it never executes at all.

    Not thread-safe by itself: the serving engine serializes all calls
    per execution (one engine task owns one execution).
    """

    def __init__(
        self, model: LanguageModel, requests: list[GenerationRequest]
    ) -> None:
        self.model = model
        self._requests: dict[int, GenerationRequest] = {}
        self._responses: dict[int, GenerationResponse] = {}
        self._next_member = 0
        for request in requests:
            self.admit(request)

    def admit(self, request: GenerationRequest) -> int:
        """Add one member; returns its id (stable for this run)."""
        member = self._next_member
        self._next_member += 1
        self._requests[member] = request
        return member

    def cancel(self, member: int) -> None:
        """Drop a member; uncomputed members never run."""
        self._requests.pop(member, None)
        self._responses.pop(member, None)

    def pending(self) -> list[int]:
        """Members admitted but not yet computed, in admission order."""
        return [
            member
            for member in sorted(self._requests)
            if member not in self._responses
        ]

    def step(self) -> list[int]:
        """One fused forward pass over every pending member.

        Returns the member ids computed by this pass. Raises whatever
        ``generate_batch`` raises (:class:`LLMError` for a poison
        prompt — no member is marked computed, so the caller can
        isolate them individually).
        """
        todo = self.pending()
        if not todo:
            return []
        responses = self.model.generate_batch(
            [self._requests[member] for member in todo]
        )
        for member, response in zip(todo, responses):
            self._responses[member] = response
        return todo

    def response(self, member: int) -> GenerationResponse:
        return self._responses[member]


def batch_key(request: GenerationRequest) -> tuple:
    """Identity of a request for deduplicated batch execution.

    Two requests with equal keys are served by one model run; metadata
    is deliberately excluded because the deterministic models condition
    only on prompt/task/budget (metadata is routing context).
    """
    return (
        request.prompt,
        request.task,
        request.max_tokens,
        request.temperature,
    )


def deduplicated_batch(
    model: LanguageModel, requests: list[GenerationRequest]
) -> list[GenerationResponse]:
    """Batch execution for deterministic models: one run per distinct
    request.

    Identical requests in one batch — the common shape under concurrent
    sessions asking the same question — run the model exactly once and
    share the response object (responses are immutable dataclasses).
    Distinct requests still execute one ``generate`` each, in order,
    so output is position-for-position identical to the base loop;
    what distinct requests can share (a compiled prompt prefix) is the
    calling model's business — see ``SqlCoderModel.generate_batch``.
    """
    computed: dict[tuple, GenerationResponse] = {}
    responses: list[GenerationResponse] = []
    for request in requests:
        key = batch_key(request)
        response = computed.get(key)
        if response is None:
            response = computed[key] = model.generate(request)
        responses.append(response)
    return responses
