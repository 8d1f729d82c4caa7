"""AWEL in a few lines: batch, branch, triggered and stream workflows.

Demonstrates the protocol layer: declaring agentic workflows as DAGs
of operators, Airflow-style, starting a run from a trigger, and the
stream mode whose first result arrives before the batch would finish.

Run with::

    python examples/awel_workflows.py
"""

import asyncio

from repro.awel import (
    DAG,
    BranchOperator,
    InputOperator,
    JoinOperator,
    ManualTrigger,
    MapOperator,
    ReduceOperator,
    StreamMapOperator,
    StreamifyOperator,
    WorkflowRunner,
    run_dag,
)
from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource


# A module-level flow so `python -m repro.cli lint examples/` has an
# AWEL graph to check (building a DAG never executes it).
with DAG("lintable-enrich") as LINT_DEMO_DAG:
    _src = InputOperator(name="rows")
    _stream = StreamifyOperator(name="to_stream")
    _enrich = StreamMapOperator(lambda row: row, name="enrich")
    _total = ReduceOperator(lambda acc, row: (acc or 0) + 1, name="total")
    _src >> _stream >> _enrich >> _total


def batch_pipeline(dbgpt: DBGPT) -> None:
    """A linear agentic workflow: question -> SQL -> execution -> text."""
    source = dbgpt.sources.get("sales")

    with DAG("question-to-answer") as dag:
        question = InputOperator(name="question")
        to_sql = MapOperator(
            lambda q: dbgpt.chat("text2sql", q).payload, name="to_sql"
        )
        execute = MapOperator(
            lambda sql: source.query(sql).scalar(), name="execute"
        )
        phrase = MapOperator(
            lambda value: f"The answer is {value}.", name="phrase"
        )
        question >> to_sql >> execute >> phrase

    answer = run_dag(dag, "How many orders are there?")
    print(f"batch workflow> {answer}")


def branching_pipeline() -> None:
    """Route by data volume: small answers inline, big ones summarized."""
    with DAG("route-by-size") as dag:
        src = InputOperator(name="rows")
        branch = BranchOperator(
            lambda rows: "inline" if len(rows) <= 3 else "summarize",
            name="branch",
        )
        inline = MapOperator(
            lambda rows: f"rows: {rows}", name="inline"
        )
        summarize = MapOperator(
            lambda rows: f"{len(rows)} rows (summarized)", name="summarize"
        )
        merge = JoinOperator(lambda *v: v[0], name="merge")
        src >> branch
        branch >> inline >> merge
        branch >> summarize >> merge

    print(f"branch small > {run_dag(dag, [1, 2])}")
    print(f"branch large > {run_dag(dag, list(range(10)))}")


def triggered_pipeline() -> None:
    """Airflow-style trigger: each fire is one run with its own payload,
    and the run's context comes back to the caller."""
    with DAG("revenue-report") as dag:
        rows = InputOperator(name="rows")
        total = MapOperator(
            lambda rows: sum(amount for _region, amount in rows), name="total"
        )
        rows >> total

    trigger = ManualTrigger(dag)
    for batch in ([("north", 120.0), ("south", 80.0)], [("east", 45.0)]):
        ctx = trigger.fire(batch)
        print(f"manual trigger> total {ctx.results['total']}")


async def stream_pipeline() -> None:
    """Stream mode: first chart is ready before the last row arrives."""
    rows = [("north", 120.0), ("south", 80.0), ("east", 45.0), ("west", 30.0)]
    with DAG("stream-enrich") as dag:
        src = InputOperator(value=rows, name="src")
        to_stream = StreamifyOperator(name="to_stream")
        enrich = StreamMapOperator(
            lambda row: {"region": row[0], "revenue": row[1]},
            name="enrich", cost=1,
        )
        total = ReduceOperator(
            lambda acc, row: acc + row["revenue"], 0.0, name="total"
        )
        src >> to_stream >> enrich >> total

    runner = WorkflowRunner(dag)
    ctx = await runner.run_async()
    print(f"stream total > {ctx.results['total']} "
          f"(clock: {ctx.clock} logical work units)")


def main() -> None:
    dbgpt = DBGPT.boot()
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=200)))
    batch_pipeline(dbgpt)
    branching_pipeline()
    triggered_pipeline()
    asyncio.run(stream_pipeline())


if __name__ == "__main__":
    main()
