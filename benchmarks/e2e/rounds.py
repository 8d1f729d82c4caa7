"""One round of one workload, run inside a fresh child process.

Set up (timed as ``setup_s``), warm, run the timed region from this one
process, then — outside the timed region — verify outputs and, in a
traced round, export the spans. The result goes back to the parent as
one JSON object on standard output.
"""

from __future__ import annotations

import asyncio
import operator
import os
import resource
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cache.manager import get_cache_manager
from repro.llm.base import GenerationRequest
from repro.llm.sql_coder import SqlCoderModel
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer

from benchmarks.e2e import OUT_DIR, trace
from benchmarks.e2e import stack as stacks
from benchmarks.e2e.workloads import (
    GEN_CLIENTS,
    LANES,
    SIZING_SECONDS,
    WORKLOADS,
    Op,
    Plan,
    build_plan,
    lanes,
    verification_sample,
)

SQL_MODEL = "sql-coder"


@dataclass
class Outcome:
    """What one client observed; merged after the timed region."""

    #: (op index, kind, seconds)
    latencies: list[tuple[int, str, float]] = field(default_factory=list)
    #: seconds to the first streamed chunk
    first_chunks: list[float] = field(default_factory=list)
    #: op index -> response body / generated text, for the checked sample
    kept: dict[int, Any] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    succeeded: int = 0

    def merge(self, other: "Outcome") -> None:
        self.latencies.extend(other.latencies)
        self.first_chunks.extend(other.first_chunks)
        self.kept.update(other.kept)
        self.failures.extend(other.failures)
        self.attempted += other.attempted
        self.succeeded += other.succeeded


def chat_clients() -> int:
    """Closed-loop client threads: never more than the cores we have."""
    return min(LANES, os.cpu_count() or 1)


# -- load generation -------------------------------------------------------


def _run_chat_op(stack: stacks.Stack, lane: int, op: Op) -> tuple[bool, Any]:
    if op.kind == "ingest":
        stack.database.execute("BEGIN")
        for statement in op.statements:
            stack.database.execute(statement)
        stack.database.execute("COMMIT")
        return True, None
    response = stack.chat(lane, op)
    ok = response.status == 200 and response.body.get("ok") is True
    return ok, response.body


def _chat_client(
    stack: stacks.Stack,
    work: list[tuple[int, int, Op]],
    sample: frozenset[int],
    deadline: float,
    traced: bool,
    outcome: Outcome,
) -> None:
    for index, lane, op in work:
        if time.perf_counter() > deadline:
            return
        if traced:
            trace.Recorder.set_op(index)
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            ok, body = _run_chat_op(stack, lane, op)
        except Exception:  # noqa: BLE001 - a failed op must not kill the client
            outcome.failures.append(
                f"op {index} ({op.app or op.kind}) raised:\n"
                + traceback.format_exc(limit=6)
            )
            continue
        outcome.latencies.append((index, op.kind, time.perf_counter() - started))
        if not ok:
            outcome.failures.append(
                f"op {index} ({op.app}) {op.text!r}: {str(body)[:300]}"
            )
            continue
        outcome.succeeded += 1
        if index in sample and op.kind == "chat":
            outcome.kept[index] = body


def run_chat(
    stack: stacks.Stack,
    ops: tuple[Op, ...],
    sample: frozenset[int],
    deadline: float,
    traced: bool,
) -> Outcome:
    """Drive ``ops`` from ``chat_clients()`` closed-loop threads."""
    n_clients = chat_clients()
    dealt = lanes(ops)
    outcomes = [Outcome() for _ in range(n_clients)]
    threads = []
    for client in range(n_clients):
        work = sorted(
            (index, lane, op)
            for lane in range(client, LANES, n_clients)
            for index, op in dealt[lane]
        )
        threads.append(
            threading.Thread(
                target=_chat_client,
                args=(stack, work, sample, deadline, traced, outcomes[client]),
                name=f"e2e-client-{client}",
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = Outcome()
    for outcome in outcomes:
        merged.merge(outcome)
    return merged


async def _gen_client(
    stack: stacks.Stack,
    work: list[tuple[int, Op]],
    sample: frozenset[int],
    deadline: float,
    traced: bool,
    outcome: Outcome,
) -> None:
    client = stack.dbgpt.client
    for index, op in work:
        if time.perf_counter() > deadline:
            return
        if traced:
            trace.Recorder.set_op(index)
        prompt = stack.prompt_for(op.text)
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            if op.kind == "gen_stream":
                chunks = []
                async for chunk in client.astream(
                    SQL_MODEL, prompt, task="text2sql"
                ):
                    if not chunks:
                        outcome.first_chunks.append(
                            time.perf_counter() - started
                        )
                    chunks.append(chunk)
                text = "".join(chunks)
            else:
                text = await client.agenerate(
                    SQL_MODEL, prompt, task="text2sql"
                )
        except Exception:  # noqa: BLE001 - a failed op must not kill the client
            outcome.failures.append(
                f"op {index} ({op.kind}) raised:\n"
                + traceback.format_exc(limit=6)
            )
            continue
        outcome.latencies.append((index, op.kind, time.perf_counter() - started))
        outcome.succeeded += 1
        if index in sample:
            outcome.kept[index] = text


def run_gen(
    stack: stacks.Stack,
    ops: tuple[Op, ...],
    sample: frozenset[int],
    deadline: float,
    traced: bool,
) -> Outcome:
    """Drive ``ops`` from one thread running ``GEN_CLIENTS`` coroutines."""
    dealt = lanes(ops, GEN_CLIENTS)
    outcomes = [Outcome() for _ in range(GEN_CLIENTS)]

    async def main() -> None:
        await asyncio.gather(
            *(
                _gen_client(stack, work, sample, deadline, traced, outcome)
                for work, outcome in zip(dealt, outcomes)
            )
        )

    asyncio.run(main())
    merged = Outcome()
    for outcome in outcomes:
        merged.merge(outcome)
    return merged


def run_ops(
    stack: stacks.Stack,
    plan: Plan,
    ops: tuple[Op, ...],
    sample: frozenset[int] = frozenset(),
    deadline: float = float("inf"),
    traced: bool = False,
) -> Outcome:
    runner = run_gen if plan.workload == "gen_concurrent" else run_chat
    return runner(stack, ops, sample, deadline, traced)


# -- output verification ---------------------------------------------------


def _rows(database: Any, sql: str) -> list[tuple]:
    """Result rows in a form two equivalent queries agree on: order
    ignored, floats rounded (join order changes summation order)."""
    rows = [
        tuple(
            round(value, 6) if isinstance(value, float) else value
            for value in row
        )
        for row in database.execute(sql).rows
    ]
    return sorted(rows, key=repr)


def _check_chat(stack: stacks.Stack, op: Op, body: dict) -> Optional[str]:
    metadata = body.get("metadata", {})
    if op.app == "knowledge_qa":
        topics = [
            stack.corpus.doc_topics.get(doc_id)
            for doc_id in metadata.get("citations", [])
        ]
        on_topic = sum(topic == op.topic for topic in topics)
        if not topics or topics[0] != op.topic or on_topic * 2 <= len(topics):
            return f"cited topics {topics}, expected {op.topic!r}"
        return None
    if op.app == "data_analysis":
        if metadata.get("failures") or metadata.get("charts") != op.charts:
            return (
                f"charts={metadata.get('charts')} failures="
                f"{metadata.get('failures')}, expected {op.charts} charts"
            )
        return None
    produced = body["text"] if op.app == "text2sql" else metadata.get("sql")
    if not produced:
        return "no SQL in the response"
    if _rows(stack.database, produced) != _rows(stack.database, op.gold_sql):
        return f"{produced!r} does not match gold {op.gold_sql!r} by execution"
    return None


def verify(
    stack: stacks.Stack, plan: Plan, outcome: Outcome, first_ingest_id: int
) -> list[str]:
    """Mismatches on the checked sample, after the timed region."""
    mismatches = []
    reference = SqlCoderModel(SQL_MODEL)
    for index in sorted(outcome.kept):
        op, observed = plan.ops[index], outcome.kept[index]
        if op.kind == "chat":
            problem = _check_chat(stack, op, observed)
        else:
            expected = reference.complete(
                GenerationRequest(stack.prompt_for(op.text), task="text2sql")
            )
            problem = (
                None
                if observed == expected
                else f"generated {observed!r}, model completes {expected!r}"
            )
        if problem is not None:
            mismatches.append(f"op {index} ({op.app or op.kind}) {op.text!r}: {problem}")
    ingested = sum(
        len(plan.ops[index].statements)
        for index, kind, _ in outcome.latencies
        if kind == "ingest"
    )
    stored = stack.database.execute(
        f"SELECT COUNT(*) FROM orders WHERE order_id >= {first_ingest_id}"
    ).scalar()
    if stored != ingested:
        mismatches.append(
            f"ingest transactions inserted {ingested} rows, {stored} are stored"
        )
    return mismatches


# -- layer counters --------------------------------------------------------


def _cache_counts() -> dict[str, dict[str, int]]:
    """hits / lookups / evictions per tier, shared stores plus every
    tenant partition."""
    manager = get_cache_manager()
    tiers: dict[str, dict[str, int]] = {}
    rows = list(manager.stats().items())
    for partitions in manager.tenant_stats().values():
        rows.extend(partitions.items())
    for tier, row in rows:
        if not row.get("enabled", True):
            continue
        counts = tiers.setdefault(tier, {"hits": 0, "lookups": 0, "evictions": 0})
        counts["hits"] += row["hits"] + row["coalesced"]
        counts["lookups"] += row["hits"] + row["coalesced"] + row["misses"]
        counts["evictions"] += row["evictions"] + row["expirations"]
    return tiers


def _registry_total(name: str) -> float:
    metric = get_registry().get(name)
    return metric.total() if metric is not None else 0.0


def program_counters(stack: stacks.Stack) -> dict[str, float]:
    """Lifetime counts from the layers' own public statistics."""
    serving = stack.dbgpt.serving_stats()
    counts: dict[str, float] = {
        "serving.requests": serving["dispatched_requests"],
        "serving.batches": serving["dispatched_batches"],
        "serving.admitted_into_flight": serving["admitted_into_flight"],
        "serving.shed": serving["shed"],
        "serving.expired": serving["expired"],
        "tenancy.throttled": sum(
            row["throttled"] for row in stack.dbgpt.fabric.quotas.snapshot().values()
        ),
        "resilience.retries": _registry_total("resilience_retries_total"),
        "resilience.fallbacks": _registry_total("resilience_fallbacks_total"),
    }
    for tier, row in _cache_counts().items():
        for key, value in row.items():
            counts[f"cache.{tier}.{key}"] = value
    return counts


class _SpanCounter:
    """Counts the built-in tracer's finished spans (traced rounds only)."""

    def __init__(self) -> None:
        self.count = 0

    def export(self, _span: Any) -> None:
        self.count += 1


def layer_metrics(
    recorder: trace.Recorder,
    before: dict[str, float],
    after: dict[str, float],
    builtin_spans: int,
    outcome: Outcome,
) -> tuple[dict[str, float], str]:
    """The per-layer metrics of a traced round and the printable table.

    Times and call counts come from the recorded spans; the counts the
    layers keep themselves (scheduler, cache, quotas, resilience) are
    differences of :func:`program_counters` across the timed region.
    """
    spans = recorder.spans
    breakdown = trace.self_times(spans)
    layers = trace.table(spans, breakdown)
    names = trace.table(spans, breakdown, key=operator.attrgetter("name"))
    delta = {key: after[key] - before.get(key, 0) for key in after}
    ops = max(1, len(outcome.latencies))
    none = trace.LayerRow()

    def calls(*span_names: str) -> int:
        return sum(names.get(name, none).calls for name in span_names)

    def self_ms(*span_names: str) -> float:
        return sum(names.get(name, none).self_ms for name in span_names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for layer_name, count_name in (
        ("server", "calls"),
        ("tenancy", "calls"),
        ("apps", "calls"),
        ("analysis", "gates"),
    ):
        row = layers.get(layer_name, none)
        metrics[f"{layer_name}.{count_name}"] = row.calls
        metrics[f"{layer_name}.self_ms"] = row.self_ms
    for layer_name in ("awel", "agents", "rag", "smmf", "cache", "datasources"):
        metrics[f"{layer_name}.self_ms"] = layers.get(layer_name, none).self_ms
    reads, writes = calls("sqlengine.read"), calls("sqlengine.write")
    recall_hits = calls("agents.recall.hit")
    metrics.update(
        {
            "tenancy.throttled": delta["tenancy.throttled"],
            # ``run`` and ``arun`` delegate to their async twins, so the
            # async span is the one that counts a run once.
            "awel.runs": calls("awel.WorkflowRunner.run_async"),
            "agents.plans": calls("agents.DataAnalysisTeam.arun"),
            "agents.recall_ratio": ratio(
                recall_hits, recall_hits + calls("agents.recall.miss")
            ),
            "rag.retrievals": calls("rag.KnowledgeBase.retrieve"),
            # With the inference tier on, ``agenerate`` runs ``generate``.
            "smmf.requests": calls(
                "smmf.LLMClient.generate", "smmf.LLMClient.astream"
            ),
            "smmf.errors": layers.get("smmf", none).errors,
            "serving.requests": delta["serving.requests"],
            "serving.wait_ms": layers.get("serving", none).self_ms,
            "serving.mean_batch_size": ratio(
                delta["serving.requests"], delta["serving.batches"]
            ),
            "serving.admitted_into_flight": delta["serving.admitted_into_flight"],
            "serving.shed": delta["serving.shed"],
            "serving.expired": delta["serving.expired"],
            "llm.completions": sum(
                row.calls
                for name, row in names.items()
                if name.startswith("llm.") and name.endswith(".generate")
            ),
            "llm.busy_ms": layers.get("llm", none).self_ms,
            "resilience.retries": delta["resilience.retries"],
            "resilience.fallbacks": delta["resilience.fallbacks"],
            "datasources.queries": calls("datasources.EngineSource.query"),
            "sqlengine.reads": reads,
            "sqlengine.writes": writes,
            "sqlengine.read_ms": self_ms("sqlengine.read", "sqlengine.compute"),
            "sqlengine.write_ms": self_ms("sqlengine.write"),
            "sqlengine.statements_per_op": ratio(reads + writes, ops),
            "obs.spans_per_op": ratio(builtin_spans, ops),
        }
    )
    evictions = 0.0
    for tier in ("inference", "rag", "sql"):
        lookups = delta.get(f"cache.{tier}.lookups", 0)
        metrics[f"cache.{tier}.lookups"] = lookups
        metrics[f"cache.{tier}.hit_ratio"] = ratio(
            delta.get(f"cache.{tier}.hits", 0), lookups
        )
        evictions += delta.get(f"cache.{tier}.evictions", 0)
    metrics["cache.evictions"] = evictions
    latency_ms = sum(seconds for _, _, seconds in outcome.latencies) * 1000.0
    blocking_ms = breakdown.blocking_s * 1000.0
    accounted = blocking_ms + sum(
        row.self_ms for name, row in layers.items() if name != "llm"
    )
    metrics["harness.self_sum_ratio"] = ratio(accounted, latency_ms)
    return metrics, trace.render_layer_table(layers, blocking_ms, latency_ms)


# -- the round ---------------------------------------------------------------


def run_round(
    workload_name: str, seed: int, round_seconds: float, traced: bool
) -> dict:
    """Run one round; returns the JSON-able result for the parent.

    ``round_seconds`` is the length the timed region is sized for: it
    sets the op count (``SIZING_SECONDS`` gives the counts in
    ``WORKLOADS``), not a duration to run for.
    """
    workload = WORKLOADS[workload_name]
    scale = round_seconds / SIZING_SECONDS

    clock = time.perf_counter()
    data = stacks.load_data(seed, workload.n_orders)
    stack = stacks.boot(data, workload)
    setup_s = time.perf_counter() - clock
    try:
        # Building the op list is the benchmark's work, not the
        # program's: the set-up clock stops around it.
        plan = build_plan(workload_name, seed, scale, data.inputs)
        sample = verification_sample(seed, len(plan.ops))
        clock = time.perf_counter()
        stacks.warm_apps(stack, workload)
        warm = run_ops(stack, plan, plan.warmup)
        setup_s += time.perf_counter() - clock
        if warm.failures:
            raise RuntimeError(f"warm-up failed: {warm.failures[0]}")

        recorder = trace.Recorder()
        span_counter = _SpanCounter()
        installation = None
        if traced:
            installation = trace.install(recorder)
            get_tracer().exporter = span_counter
        before = program_counters(stack)
        cpu_started = time.process_time()
        started = time.perf_counter()
        # A safety net only: the op count is fixed so that layer counts
        # repeat; a box far slower than the sizing one stops early (and
        # says so) instead of overrunning the driver's limit.
        deadline = started + max(20.0, 4.0 * round_seconds)
        outcome = run_ops(stack, plan, plan.ops, sample, deadline, traced)
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_started
        after = program_counters(stack)
        if installation is not None:
            installation.uninstall()
            get_tracer().exporter = None
        mismatches = verify(stack, plan, outcome, data.inputs.next_order_id)
    finally:
        stack.shutdown()

    failed = len(outcome.failures) + len(mismatches)
    # The parent pools the samples of a run's rounds before it takes
    # percentiles, so the round hands back samples, not percentiles.
    # Ingest transactions are the only ops that are not turns.
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "ops": len(plan.ops),
        "attempted": outcome.attempted,
        "succeeded": outcome.succeeded,
        "failed": failed,
        "failures": (outcome.failures + mismatches)[:5],
        "checked": len(outcome.kept),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "turn_ms": [s * 1000.0 for _, kind, s in outcome.latencies if kind != "ingest"],
        "write_ms": [s * 1000.0 for _, kind, s in outcome.latencies if kind == "ingest"],
        "ttft_ms": [seconds * 1000.0 for seconds in outcome.first_chunks],
    }
    if traced:
        result["layers"], result["layer_table"] = layer_metrics(
            recorder, before, after, span_counter.count, outcome
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        result["trace_file"] = os.path.join(
            OUT_DIR, f"trace_{workload_name}.jsonl"
        )
        result["spans"] = recorder.export_jsonl(result["trace_file"])
    return result
