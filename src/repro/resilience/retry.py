"""Retry with exponential backoff, jitter and server hints.

One :class:`RetryPolicy` instance wraps one layer's transient-failure
handling. The clock-side effects are injectable: the SMMF client
sleeps real wall time between attempts, while the controller "sleeps"
by advancing its logical clock (which is also what drives health
probes and breaker reset timeouts), so every retry test is
deterministic without a real sleep anywhere.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import random
import time
from typing import Awaitable, Callable, Iterator, Optional, TypeVar

from repro.obs.metrics import Counter, MetricHandle
from repro.obs.tracer import get_tracer
from repro.resilience.config import RetryConfig
from repro.runtime import default_rng

T = TypeVar("T")

#: ``classify(exc) -> (retryable, retry_after_hint_or_None)``.
Classifier = Callable[[BaseException], tuple[bool, Optional[float]]]


_RETRIES = MetricHandle(
    Counter, "resilience_retries_total",
    "retried attempts by layer and policy", ("layer", "error"),
)


class RetryPolicy:
    """Budget-capped exponential backoff around a callable.

    ``sleep`` receives each computed delay; pass ``time.sleep`` for
    wall-clock waiting or a logical-clock advance for simulated time.
    ``rng`` seeds the jitter — tests inject a seeded generator so the
    exact delay sequence is reproducible.
    """

    def __init__(
        self,
        config: Optional[RetryConfig] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        layer: str = "client",
    ) -> None:
        self.config = config or RetryConfig()
        self._sleep = sleep
        self._rng = rng or default_rng()
        self.layer = layer

    def delay(self, attempt: int, hint: Optional[float] = None) -> float:
        """Backoff before retry ``attempt`` (1-based), >= the hint.

        A 429's ``retry_after`` is a server promise that nothing frees
        up sooner, so it floors (never replaces) the computed backoff.
        """
        base = self.config.base_delay_s * (
            self.config.multiplier ** (attempt - 1)
        )
        base = min(base, self.config.max_delay_s)
        delay = base + base * self.config.jitter * self._rng.random()
        if hint is not None:
            delay = max(delay, hint)
        return delay

    @contextlib.contextmanager
    def _backoff(
        self,
        exc: BaseException,
        classify: Classifier,
        attempt: int,
        waited: float,
        on_retry: Optional[Callable[[int, float], None]],
    ) -> Iterator[float]:
        """Every decision about one failed attempt, shared by
        :meth:`run` and :meth:`arun`: re-raise ``exc`` unchanged when
        it is not retryable or attempts/budget have run out; otherwise
        count the retry and yield the delay to wait inside the
        ``smmf.retry`` span."""
        retryable, hint = classify(exc)
        if not retryable or attempt >= self.config.max_attempts:
            raise exc
        delay = self.delay(attempt, hint)
        budget = self.config.budget_s
        if budget is not None and waited + delay > budget:
            raise exc
        _RETRIES.labels(self.layer, type(exc).__name__)()
        with get_tracer().span(
            "smmf.retry",
            layer=self.layer,
            attempt=attempt,
            delay_s=round(delay, 4),
        ):
            if on_retry is not None:
                on_retry(attempt, delay)
            yield delay

    def run(
        self,
        fn: Callable[[], T],
        classify: Classifier,
        on_retry: Optional[Callable[[int, float], None]] = None,
    ) -> T:
        """Call ``fn``, retrying transient failures per the config.

        ``classify`` decides retryability and extracts the server's
        backoff hint; anything non-retryable (or any failure once
        attempts/budget run out) re-raises unchanged. Each retry is
        counted (``resilience_retries_total``) and wrapped in an
        ``smmf.retry`` span carrying the attempt number and delay.
        """
        waited = 0.0
        for attempt in itertools.count(1):
            try:
                return fn()
            except BaseException as exc:  # noqa: BLE001 - reclassified
                with self._backoff(
                    exc, classify, attempt, waited, on_retry
                ) as delay:
                    waited += delay
                    self._sleep(delay)

    async def arun(
        self,
        fn: Callable[[], Awaitable[T]],
        classify: Classifier,
        on_retry: Optional[Callable[[int, float], None]] = None,
    ) -> T:
        """:meth:`run` for an awaitable ``fn``: the same decisions
        (:meth:`_backoff`), awaited instead of blocked on.

        The backoff sleep runs off the loop (``asyncio.to_thread``), so
        a retrying caller never blocks the event loop, and an injected
        logical-clock ``sleep`` keeps async retry tests deterministic
        exactly like the sync path.
        """
        waited = 0.0
        for attempt in itertools.count(1):
            try:
                return await fn()
            except BaseException as exc:  # noqa: BLE001 - reclassified
                with self._backoff(
                    exc, classify, attempt, waited, on_retry
                ) as delay:
                    waited += delay
                    await asyncio.to_thread(self._sleep, delay)
