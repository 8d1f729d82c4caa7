"""Configuration for the concurrent serving scheduler.

Every knob is plain data so :class:`repro.core.config.DbGptConfig` can
embed a :class:`ServingConfig` without importing the scheduler (the
same pattern as :class:`repro.cache.config.CacheConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ServingConfig:
    """Knobs for the SMMF continuous-batching scheduler.

    Every :class:`repro.smmf.ModelController` dispatches through the
    engine; there is no scheduler-less path to switch to. ``enabled``
    is kept only because existing callers spell
    ``ServingConfig(enabled=True)`` — among them the production
    profile of the end-to-end benchmark (``benchmarks/e2e/stack.py``);
    ``False`` is rejected.
    """

    enabled: bool = True
    #: Hard bound on queued-but-undispatched requests. Admission past
    #: this sheds the request with a 429-style error instead of letting
    #: latency grow without bound.
    queue_capacity: int = 128
    #: Most members one live batch seats — the size of the largest
    #: fused ``generate_batch`` pass on one worker.
    max_batch_size: int = 16
    #: Live batches (or single dispatches) in flight at once — the
    #: width of the engine's step executor.
    pool_width: int = 4
    #: Per-request deadline applied when the caller does not pass one;
    #: ``None`` means requests wait as long as it takes.
    default_timeout_s: Optional[float] = None
    #: Bound on buffered-but-unconsumed chunks per token stream. A
    #: consumer that lags this far behind pauses *its own* stream's
    #: delivery (per-stream backpressure) without stalling co-members
    #: of the same batch.
    stream_buffer: int = 32

    def __post_init__(self) -> None:
        if not self.enabled:
            raise ValueError(
                "the serving engine cannot be disabled; SMMF has no "
                "other dispatch path"
            )
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.pool_width <= 0:
            raise ValueError("pool_width must be positive")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive (or None)")
        if self.stream_buffer <= 0:
            raise ValueError("stream_buffer must be positive")
