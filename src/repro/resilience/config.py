"""Configuration for the resilience layer.

Every knob is plain data so :class:`repro.core.config.DbGptConfig` can
embed a :class:`ResilienceConfig` without importing the policies (the
same pattern as :class:`repro.cache.config.CacheConfig` and
:class:`repro.serving.config.ServingConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class RetryConfig:
    """Exponential-backoff retry policy knobs.

    The computed delay for attempt *n* (1-based) is
    ``min(base_delay_s * multiplier**(n-1), max_delay_s)`` plus up to
    ``jitter`` of itself, floored at the server's ``retry_after`` hint
    when one was given. Total time spent waiting across one logical
    call never exceeds ``budget_s``.
    """

    #: Total tries, including the first. 1 disables retries.
    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    #: Fraction of the backoff added as random jitter (0 disables).
    jitter: float = 0.1
    #: Hard cap on cumulative backoff per call; ``None`` = unbounded.
    budget_s: Optional[float] = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget_s is not None and self.budget_s < 0:
            raise ValueError("budget_s must be non-negative (or None)")


@dataclass
class BreakerConfig:
    """Per-worker circuit-breaker knobs.

    ``failure_threshold`` consecutive :class:`WorkerCrashed` failures
    open the breaker; after ``reset_timeout_s`` it half-opens and lets
    ``half_open_probes`` trial requests through — one success closes
    it, one failure re-opens it.
    """

    failure_threshold: int = 3
    reset_timeout_s: float = 5.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass
class ResilienceConfig:
    """Configuration for retry, breakers and recovery.

    Every :class:`repro.smmf.ModelController` and
    :class:`repro.smmf.LLMClient` runs the resilience layer; there is
    no path without it. ``enabled`` is kept only because existing
    callers spell ``ResilienceConfig(enabled=True)`` — among them the
    production profile of the end-to-end benchmark
    (``benchmarks/e2e/stack.py``); ``False`` is rejected. Retries off
    is ``retry=RetryConfig(max_attempts=1)``.
    """

    enabled: bool = True
    retry: RetryConfig = field(default_factory=RetryConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: How often the health monitor re-probes a non-serving worker.
    probe_interval_s: float = 1.0
    #: Degradation ladder, rung 1: when every replica of a model is
    #: unavailable, route to this model instead (response is marked
    #: ``degraded``). ``None`` disables fallback routing.
    fallback_model: Optional[str] = None
    #: Degradation ladder, rung 2: when the serving stack is down and
    #: the inference cache holds an answer for the exact request (even
    #: an expired one), serve it stale rather than failing the turn.
    serve_stale: bool = False

    def __post_init__(self) -> None:
        if not self.enabled:
            raise ValueError(
                "the resilience layer cannot be disabled; SMMF has no "
                "other recovery path"
            )
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
