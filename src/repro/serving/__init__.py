"""Concurrent serving: the batching engine in front of SMMF.

The paper's SMMF exists to serve many simultaneous chat sessions
across model replicas; ``repro.serving`` adds the concurrency layer
that makes the worker pool earn its replicas: :class:`RequestScheduler`,
an asyncio continuous-batching engine with a bounded admission queue,
structured backpressure, per-request deadlines, end-to-end token
streaming with per-stream backpressure, and mid-generation
cancellation. See ``docs/serving.md`` for the design and tuning guide.
"""

from repro.serving.config import ServingConfig
from repro.serving.engine import RequestScheduler
from repro.serving.loop import LoopRunner, LoopRunnerClosed, get_loop_runner
from repro.serving.scheduler import (
    BATCH_SIZE_BUCKETS,
    DeadlineExceeded,
    SchedulerClosed,
    SchedulerError,
    SchedulerOverloaded,
    StreamCancelled,
    StreamClosed,
    shape_key,
)
from repro.serving.simulation import LatencySimModel
from repro.serving.streams import TokenStream

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DeadlineExceeded",
    "LatencySimModel",
    "LoopRunner",
    "LoopRunnerClosed",
    "RequestScheduler",
    "SchedulerClosed",
    "SchedulerError",
    "SchedulerOverloaded",
    "ServingConfig",
    "StreamCancelled",
    "StreamClosed",
    "TokenStream",
    "get_loop_runner",
    "shape_key",
]
