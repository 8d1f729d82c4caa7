"""Workflow execution: async scheduling over the DAG."""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from repro.awel.dag import DAG, DAGContext
from repro.awel.errors import AwelError
from repro.awel.operators import (
    SKIPPED,
    BranchOperator,
    JoinOperator,
    Operator,
    ReduceOperator,
    StreamFilterOperator,
    StreamifyOperator,
    StreamMapOperator,
    UnstreamifyOperator,
)
from repro.obs.metrics import Counter, Histogram, MetricHandle
from repro.obs.tracer import get_tracer
from repro.runtime import run_sync

#: Operators whose execution produces or consumes lazy streams; their
#: spans are tagged ``mode=stream`` (everything else is ``batch``).
_STREAM_OPERATORS = (
    StreamifyOperator,
    StreamMapOperator,
    StreamFilterOperator,
    ReduceOperator,
    UnstreamifyOperator,
)


_DAG_RUNS = MetricHandle(
    Counter, "awel_dag_runs_total", "DAG executions by outcome",
    ("dag", "status"),
)
_OPERATOR_LATENCY = MetricHandle(
    Histogram, "awel_operator_latency_ms",
    "wall time of one operator execution", ("type",),
)
_OPERATOR_RUNS = MetricHandle(
    Counter, "awel_operator_runs_total",
    "operator executions by type and mode", ("type", "mode"),
)


def _operator_mode(node: Operator) -> str:
    return "stream" if isinstance(node, _STREAM_OPERATORS) else "batch"


class WorkflowRunner:
    """Executes a DAG asynchronously.

    Every operator runs as its own task that awaits its upstream
    results, so independent subgraphs proceed concurrently — the
    "asynchronous operations" AWEL advertises.
    """

    def __init__(self, dag: DAG) -> None:
        dag.validate()
        self.dag = dag

    async def run_async(
        self, payload: Any = None, ctx: Optional[DAGContext] = None
    ) -> DAGContext:
        try:
            with get_tracer().span(
                "awel.dag", dag=self.dag.name, nodes=len(self.dag.nodes)
            ):
                result = await self._run_async(payload, ctx)
        except Exception:
            _DAG_RUNS.labels(self.dag.name, "error")()
            raise
        _DAG_RUNS.labels(self.dag.name, "ok")()
        return result

    async def _run_async(
        self, payload: Any = None, ctx: Optional[DAGContext] = None
    ) -> DAGContext:
        ctx = ctx or DAGContext(payload)
        tracer = get_tracer()
        loop = asyncio.get_running_loop()
        futures: dict[str, asyncio.Future] = {
            node_id: loop.create_future() for node_id in self.dag.nodes
        }

        async def run_node(node: Operator) -> None:
            # Any failure — including one raised while awaiting an
            # upstream — must resolve this node's future, or downstream
            # tasks would await it forever and deadlock the run.
            try:
                upstream_ids = self.dag.upstream_of(node.node_id)
                upstream_values = [
                    await futures[up_id] for up_id in upstream_ids
                ]
                if futures[node.node_id].done():
                    # A branch pre-resolved this node as a not-taken path.
                    return
                # Branch-skip semantics: drop skipped inputs for joins;
                # otherwise a skipped input skips this node too.
                if any(value is SKIPPED for value in upstream_values):
                    if isinstance(node, JoinOperator):
                        upstream_values = [
                            v for v in upstream_values if v is not SKIPPED
                        ]
                        if not upstream_values:
                            futures[node.node_id].set_result(SKIPPED)
                            ctx.results[node.node_id] = SKIPPED
                            return
                    else:
                        futures[node.node_id].set_result(SKIPPED)
                        ctx.results[node.node_id] = SKIPPED
                        return
                # The span context manager guarantees closure on the
                # exception path: a raising operator still ends its
                # span with status="error" and the exception type.
                kind = type(node).__name__
                mode = _operator_mode(node)
                with tracer.span(
                    "awel.operator",
                    _OPERATOR_LATENCY.labels(kind),
                    operator=node.node_id,
                    type=kind,
                    mode=mode,
                ):
                    result = await node.execute(ctx, upstream_values)
                _OPERATOR_RUNS.labels(kind, mode)()
            except Exception as exc:
                if not futures[node.node_id].done():
                    futures[node.node_id].set_exception(exc)
                raise
            ctx.results[node.node_id] = result
            futures[node.node_id].set_result(result)
            if isinstance(node, BranchOperator):
                chosen = node.choose(result)
                for down_id in self.dag.downstream_of(node.node_id):
                    if down_id != chosen:
                        _mark_branch_skipped(self.dag, down_id, ctx, futures)

        tasks = [
            asyncio.create_task(run_node(node))
            for node in self.dag.topological_order()
        ]
        done, _pending = await asyncio.wait(
            tasks, return_when=asyncio.ALL_COMPLETED
        )
        # Mark future exceptions retrieved (cascaded copies of the task
        # errors) so asyncio does not warn about them at GC time.
        for future in futures.values():
            if future.done() and not future.cancelled():
                future.exception()
        errors = [t.exception() for t in done if t.exception() is not None]
        if errors:
            raise errors[0]
        return ctx

    def run(self, payload: Any = None) -> DAGContext:
        """Synchronous convenience wrapper.

        Safe to call from inside a running event loop too (an operator
        of one DAG synchronously invoking another workflow — e.g. an
        app whose ``chat`` runs a pipeline, itself wrapped as an AWEL
        operator); see :func:`repro.runtime.run_sync`.
        """
        return run_sync(self.run_async(payload))


def _mark_branch_skipped(
    dag: DAG,
    node_id: str,
    ctx: DAGContext,
    futures: dict[str, "asyncio.Future"],
) -> None:
    """Pre-resolve a not-taken branch head as SKIPPED.

    Only the direct downstream is marked; transitive propagation is
    handled by each node observing SKIPPED inputs.
    """
    future = futures[node_id]
    if not future.done():
        future.set_result(SKIPPED)
        ctx.results[node_id] = SKIPPED


def run_dag(dag: DAG, payload: Any = None) -> Any:
    """Run a DAG and return its single leaf's result.

    For multi-leaf DAGs use :class:`WorkflowRunner` and read
    ``ctx.results`` instead.
    """
    runner = WorkflowRunner(dag)
    ctx = runner.run(payload)
    leaves = dag.leaves()
    if len(leaves) != 1:
        raise AwelError(
            f"run_dag needs exactly one leaf, found "
            f"{[leaf.node_id for leaf in leaves]}"
        )
    return ctx.results[leaves[0].node_id]
