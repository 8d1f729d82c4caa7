"""Workflow execution: a DAG's chains, scheduled over asyncio."""

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
)
from repro.obs.metrics import Counter, Histogram, MetricHandle, registry_token
from repro.obs.tracer import get_tracer
from repro.runtime import run_sync

_DAG_RUNS = MetricHandle(
    Counter, "awel_dag_runs_total", "DAG executions by outcome",
    ("dag", "status"),
)
#: ``status``: ``ok``, or ``error`` when the operator raised.
_OPERATOR_LATENCY = MetricHandle(
    Histogram, "awel_operator_latency_ms",
    "wall time of one operator execution", ("type", "mode", "status"),
)


class _Step:
    """One operator as a plan runs it, with its metric series bound."""

    def __init__(self, dag: DAG, node: Operator) -> None:
        kind, mode = type(node).__name__, node.mode
        self.node = node
        self.node_id = node.node_id
        self.upstream = tuple(dag.upstream_of(node.node_id))
        self.downstream = tuple(dag.downstream_of(node.node_id))
        self.is_join = isinstance(node, JoinOperator)
        self.is_branch = isinstance(node, BranchOperator)
        self.latency = {
            status: _OPERATOR_LATENCY.labels(kind, mode, status)
            for status in ("ok", "error")
        }.__getitem__
        self.attributes = {
            "operator": node.node_id, "type": kind, "mode": mode
        }


class _Plan:
    """A validated DAG cut into chains: maximal runs of nodes where
    each inner edge is the only out-edge of its tail and the only
    in-edge of its head. Chains are listed in the topological order of
    their heads; ``depends[i]`` holds the chains chain ``i`` reads."""

    def __init__(self, dag: DAG) -> None:
        self.version = dag.version
        self.registry = registry_token()
        self.order = [_Step(dag, node) for node in dag.validate()]
        self.chains: list[list[_Step]] = []
        self.depends: list[tuple[int, ...]] = []
        chain_of: dict[str, int] = {}
        for step in self.order:
            ups = step.upstream
            if len(ups) == 1 and len(dag.downstream_of(ups[0])) == 1:
                index = chain_of[ups[0]]
                self.chains[index].append(step)
            else:
                index = len(self.chains)
                self.chains.append([step])
                self.depends.append(
                    tuple(sorted({chain_of[up] for up in ups}))
                )
            chain_of[step.node_id] = index
        self.span_attributes = {"dag": dag.name, "nodes": len(dag.nodes)}
        self.ok = _DAG_RUNS.labels(dag.name, "ok")
        self.error = _DAG_RUNS.labels(dag.name, "error")


class WorkflowRunner:
    """Executes a DAG asynchronously, chain by chain.

    The DAG is cut into chains once (see :class:`_Plan`; a DAG edited
    afterwards is re-planned on its next run). The first chain runs
    inline in :meth:`run_async`'s own coroutine and every other chain
    as one task that awaits the chains it reads from, so a pipeline
    costs no task at all while independent subgraphs still proceed
    concurrently — the "asynchronous operations" AWEL advertises.

    Per node, in topological order:

    - a node with a failed upstream fails too, without running;
    - a direct downstream a branch did not choose is SKIPPED;
    - a SKIPPED input skips the node, except that a join runs on its
      other inputs (and is SKIPPED only when all are);
    - otherwise the operator runs; if it raises (or a branch chooses a
      node that is not its downstream) it fails.

    Independent chains finish despite a failure; the run then raises
    the error of the earliest failed node in topological order.
    """

    def __init__(self, dag: DAG) -> None:
        self.dag = dag
        self._plan = _Plan(dag)

    async def run_async(
        self, payload: Any = None, ctx: Optional[DAGContext] = None
    ) -> DAGContext:
        plan = self._plan
        if (
            plan.version != self.dag.version
            or plan.registry is not registry_token()
        ):
            plan = self._plan = _Plan(self.dag)
        try:
            with get_tracer().span("awel.dag", **plan.span_attributes):
                result = await self._run_async(plan, payload, ctx)
        except Exception:
            plan.error()
            raise
        plan.ok()
        return result

    async def _run_async(
        self, plan: _Plan, payload: Any, ctx: Optional[DAGContext]
    ) -> DAGContext:
        if ctx is None:
            ctx = DAGContext(payload)
        results = ctx.results
        tracer = get_tracer()
        #: node id -> the error it failed with (its own or inherited).
        failed: dict[str, Exception] = {}
        not_taken: set[str] = set()
        #: chain index -> what to await for that chain to have run.
        done: list[Any] = []

        async def run_chain(index: int) -> None:
            for dependency in plan.depends[index]:
                await done[dependency]
            for step in plan.chains[index]:
                node_id = step.node_id
                inputs = []
                for up in step.upstream:
                    if up in failed:
                        failed[node_id] = failed[up]
                        break
                    inputs.append(results[up])
                else:
                    if node_id in not_taken:
                        results[node_id] = SKIPPED
                        continue
                    if any(value is SKIPPED for value in inputs):
                        if step.is_join:
                            inputs = [v for v in inputs if v is not SKIPPED]
                        if not step.is_join or not inputs:
                            results[node_id] = SKIPPED
                            continue
                    try:
                        # The span closes on the exception path too,
                        # with status="error" and the exception type.
                        with tracer.span(
                            "awel.operator", step.latency, **step.attributes
                        ):
                            value = await step.node.execute(ctx, inputs)
                        if step.is_branch:
                            chosen = step.node.choose(value)
                            not_taken.update(
                                d for d in step.downstream if d != chosen
                            )
                    except Exception as exc:
                        failed[node_id] = exc
                        continue
                    results[node_id] = value

        tasks = [
            asyncio.create_task(run_chain(index))
            for index in range(1, len(plan.chains))
        ]
        if tasks:
            done.append(asyncio.get_running_loop().create_future())
            done.extend(tasks)
        try:
            await run_chain(0)
            if tasks:
                done[0].set_result(None)
                for task in tasks:
                    await task
        finally:
            for task in tasks:
                task.cancel()
        if failed:
            raise next(
                failed[step.node_id]
                for step in plan.order
                if step.node_id in failed
            )
        return ctx

    def run(self, payload: Any = None) -> DAGContext:
        """Synchronous convenience wrapper.

        Safe to call from inside a running event loop too (an operator
        of one DAG synchronously invoking another workflow — e.g. an
        app whose ``chat`` runs a pipeline, itself wrapped as an AWEL
        operator); see :func:`repro.runtime.run_sync`.
        """
        return run_sync(self.run_async(payload))


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
