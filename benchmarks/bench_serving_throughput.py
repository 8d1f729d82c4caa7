"""Concurrent-serving throughput: the continuous-batching engine vs
sequential dispatch.

Three claims worth certifying:

1. 16 concurrent clients over latency-simulating workers sustain
   **at least 3x the requests/second** of one client sending one
   request at a time through the same engine, and the
   scheduler actually coalesces (**mean batch size > 1**) rather than
   winning on thread parallelism alone.
2. At concurrency 64 the speedup over sequential dispatch stays
   **above 7.97x** and requests are admitted into in-flight batches
   (``admitted_into_flight > 0``). Both bars are ratios to the
   sequential run on the same box, so they do not move with box speed.
3. End-to-end token streaming delivers a first chunk promptly:
   p50/p95 **time-to-first-token** through the full
   worker → controller → api_server → client path is measured and
   recorded.

Methodology: :class:`repro.serving.LatencySimModel` stands in for GPU
inference (one fixed latency window per forward pass, small marginal
cost per batched sequence — the economics that make micro-batching pay
on real accelerators). The baseline deploys the same four replicas
behind the same engine and issues every request from one client
thread, one at a time (each a cohort of one); measured runs issue the
same workload as ``asyncio.gather`` over ``LLMClient.agenerate``, at
most ``concurrency`` in flight behind a semaphore, timed best-of-three
fresh deployments after an untimed warmup; the streams are
``LLMClient.astream`` coroutines behind the same kind of semaphore.
The inference cache is pinned off by the harness conftest and every
prompt is distinct, so every request reaches a worker. Numbers land
in ``BENCH_serving.json`` at the repo root; CI re-asserts the same
bars from the artifact. This is a drill-down bench: the end-to-end
serving numbers are ``gen_concurrent`` in ``benchmarks/e2e``.
"""

import asyncio
import json
import pathlib
import statistics
import time

from repro.runtime import run_sync
from repro.serving import LatencySimModel, ServingConfig
from repro.smmf import ModelSpec, deploy

REQUESTS = 64
CONCURRENCY = 16
HIGH_REQUESTS = 256
HIGH_CONCURRENCY = 64
STREAMS = 32
REPLICAS = 4
LATENCY_S = 0.005
PER_ITEM_S = 0.0002
OUTPUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"
#: Floors on the speedup over sequential dispatch, at 16 and at 64
#: clients (the engine runs at roughly 8x and 21x).
MIN_SPEEDUP = 3.0
MIN_HIGH_SPEEDUP = 7.97


def _specs():
    return [
        ModelSpec(
            "sim",
            lambda: LatencySimModel(
                "sim", latency_s=LATENCY_S, per_item_s=PER_ITEM_S
            ),
            replicas=REPLICAS,
            latency_ms=LATENCY_S * 1000,
        )
    ]


def _prompts(count=REQUESTS):
    return [f"question number {i}" for i in range(count)]


def _config():
    return ServingConfig(
        queue_capacity=512,
        max_batch_size=16,
        pool_width=REPLICAS,
    )


async def _generate_all(client, prompts, concurrency):
    """Every prompt through ``agenerate``, ``concurrency`` clients at a
    time; answers align with ``prompts``."""
    clients = asyncio.Semaphore(concurrency)

    async def one(prompt):
        async with clients:
            return await client.agenerate("sim", prompt, task="chat")

    return await asyncio.gather(*(one(prompt) for prompt in prompts))


def _run_scheduled(prompts, concurrency):
    """Deploy with the scheduler, push the workload, return metrics."""
    controller, client = deploy(_specs(), serving=_config())
    try:
        start = time.perf_counter()
        answers = run_sync(_generate_all(client, prompts, concurrency))
        elapsed = time.perf_counter() - start
        stats = controller.scheduler.stats()
    finally:
        controller.scheduler.close()
    return answers, elapsed, stats


def _best_of(prompts, concurrency, reps=3):
    """Best of ``reps`` fresh deployments: one scheduler wave is only
    ~50 ms of wall clock, so single-shot timings swing +-10% with OS
    jitter — the ratio bars need the noise floor, not one draw."""
    best = None
    for _ in range(reps):
        result = _run_scheduled(prompts, concurrency)
        if best is None or result[1] < best[1]:
            best = result
    return best


async def _stream_all(client, count, concurrency):
    """``count`` streams through ``astream``, ``concurrency`` at a
    time; returns each one's time to first chunk in milliseconds."""
    clients = asyncio.Semaphore(concurrency)

    async def one(i):
        async with clients:
            start = time.perf_counter()
            chunks = client.astream(
                "sim", f"stream question {i}", task="chat"
            )
            first = await anext(chunks)
            ttft = time.perf_counter() - start
            rest = [chunk async for chunk in chunks]
            assert first and isinstance(rest, list)
            return ttft * 1000.0

    return await asyncio.gather(*(one(i) for i in range(count)))


def _measure_ttft():
    """p50/p95 time-to-first-token over concurrent end-to-end streams."""
    controller, client = deploy(_specs(), serving=_config())
    try:
        ttfts = sorted(run_sync(_stream_all(client, STREAMS, CONCURRENCY)))
    finally:
        controller.scheduler.close()
    return {
        "streams": STREAMS,
        "p50": round(statistics.median(ttfts), 3),
        "p95": round(ttfts[max(0, int(len(ttfts) * 0.95) - 1)], 3),
        "max": round(ttfts[-1], 3),
    }


def test_scheduler_throughput_vs_sequential():
    # -- warmup: spin up thread pools / code paths, discard timings -----
    _run_scheduled(_prompts(32), CONCURRENCY)

    # -- baseline: one client thread, one request at a time -------------
    baseline_controller, baseline_client = deploy(_specs(), serving=_config())
    try:
        start = time.perf_counter()
        baseline_answers = [
            baseline_client.generate("sim", prompt, task="chat")
            for prompt in _prompts()
        ]
        sequential_s = time.perf_counter() - start
    finally:
        baseline_controller.scheduler.close()

    # -- measured: 16 concurrent clients --------------------------------
    scheduled_answers, scheduled_s, stats = _best_of(_prompts(), CONCURRENCY)

    # -- measured: concurrency 64, where in-flight admission pays -------
    _, high_continuous_s, high_stats = _best_of(
        _prompts(HIGH_REQUESTS), HIGH_CONCURRENCY
    )

    ttft = _measure_ttft()

    assert scheduled_answers == baseline_answers
    sequential_rps = REQUESTS / sequential_s
    scheduled_rps = REQUESTS / scheduled_s
    high_continuous_rps = HIGH_REQUESTS / high_continuous_s
    speedup = scheduled_rps / sequential_rps
    high_speedup = high_continuous_rps / sequential_rps
    mean_batch = stats["mean_batch_size"]

    payload = {
        "workload": {
            "requests": REQUESTS,
            "concurrency": CONCURRENCY,
            "replicas": REPLICAS,
            "latency_ms": LATENCY_S * 1000,
            "per_item_ms": PER_ITEM_S * 1000,
        },
        "sequential": {
            "seconds": round(sequential_s, 4),
            "rps": round(sequential_rps, 1),
        },
        "scheduled": {
            "mode": "continuous",
            "seconds": round(scheduled_s, 4),
            "rps": round(scheduled_rps, 1),
            "batches": stats["dispatched_batches"],
            "mean_batch_size": mean_batch,
            "admitted_into_flight": stats["admitted_into_flight"],
            "shed": stats["shed"],
            "expired": stats["expired"],
        },
        "concurrency64": {
            "requests": HIGH_REQUESTS,
            "concurrency": HIGH_CONCURRENCY,
            "continuous_rps": round(high_continuous_rps, 1),
            "speedup_vs_sequential": round(high_speedup, 2),
            "admitted_into_flight": high_stats["admitted_into_flight"],
        },
        "ttft_ms": ttft,
        "speedup": round(speedup, 2),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print("\nconcurrent serving: continuous batching vs sequential")
    print(f"  sequential   : {sequential_rps:8.1f} req/s "
          f"({sequential_s * 1000:.0f} ms total)")
    print(f"  continuous   : {scheduled_rps:8.1f} req/s "
          f"({scheduled_s * 1000:.0f} ms total)")
    print(f"  speedup      : {speedup:.1f}x at concurrency {CONCURRENCY}")
    print(f"  mean batch   : {mean_batch:.2f} over "
          f"{stats['dispatched_batches']} batches")
    print(f"  @64 clients  : {high_continuous_rps:8.1f} req/s "
          f"({high_speedup:.1f}x sequential)")
    print(f"  ttft         : p50 {ttft['p50']:.2f} ms, "
          f"p95 {ttft['p95']:.2f} ms over {STREAMS} streams")
    print(f"  written to   : {OUTPUT.name}")

    assert speedup >= MIN_SPEEDUP, (
        f"scheduler only {speedup:.2f}x over sequential "
        f"(need >= {MIN_SPEEDUP}x)"
    )
    assert mean_batch > 1.0, (
        f"mean batch size {mean_batch} — scheduler never coalesced"
    )
    assert high_speedup > MIN_HIGH_SPEEDUP, (
        f"scheduler only {high_speedup:.2f}x over sequential at "
        f"concurrency {HIGH_CONCURRENCY} (need > {MIN_HIGH_SPEEDUP}x)"
    )
    admitted = (
        stats["admitted_into_flight"] + high_stats["admitted_into_flight"]
    )
    assert admitted > 0, "no request was admitted into a live batch"
    assert ttft["p95"] > 0.0
