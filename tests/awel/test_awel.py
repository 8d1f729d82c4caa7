"""Tests for AWEL: DAG construction, operators, streams, triggers."""

import asyncio
import gc
import weakref

import pytest

from repro.awel import (
    DAG,
    AwelError,
    BranchOperator,
    CycleError,
    InputOperator,
    JoinOperator,
    ManualTrigger,
    MapOperator,
    ReduceOperator,
    ScheduleTrigger,
    StreamFilterOperator,
    StreamMapOperator,
    StreamifyOperator,
    UnstreamifyOperator,
    WorkflowRunner,
    run_dag,
    stream_of,
)
from repro.awel.operators import SKIPPED


class TestDagConstruction:
    def test_context_manager_registers_nodes(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(str)
            a >> b
        assert len(dag) == 2

    def test_operator_outside_dag_rejected(self):
        with pytest.raises(AwelError, match="outside a DAG"):
            InputOperator()

    def test_explicit_dag_argument(self):
        dag = DAG("d")
        a = InputOperator(dag=dag)
        b = MapOperator(str, dag=dag)
        a >> b
        assert len(dag) == 2

    def test_rshift_returns_right_operand(self):
        with DAG("d"):
            a = InputOperator()
            b = MapOperator(str)
            c = MapOperator(str)
            result = a >> b >> c
        assert result is c

    def test_lshift_wires_reverse(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(str)
            b << a
        assert dag.upstream_of(b.node_id) == [a.node_id]

    def test_duplicate_edge_rejected(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(str)
            a >> b
            with pytest.raises(AwelError, match="already exists"):
                a >> b

    def test_duplicate_node_name_rejected(self):
        with DAG("d"):
            InputOperator(name="x")
            with pytest.raises(AwelError, match="duplicate"):
                InputOperator(name="x")

    def test_cross_dag_edge_rejected(self):
        with DAG("d1"):
            a = InputOperator()
        with DAG("d2"):
            b = MapOperator(str)
        with pytest.raises(AwelError):
            a >> b

    def test_cycle_detected(self):
        with DAG("d") as dag:
            a = MapOperator(str, name="a")
            b = MapOperator(str, name="b")
            a >> b
            b >> a
        with pytest.raises(CycleError):
            dag.validate()

    def test_topological_order_respects_edges(self):
        with DAG("d") as dag:
            a = InputOperator(name="a")
            b = MapOperator(str, name="b")
            c = MapOperator(str, name="c")
            a >> b
            a >> c
            order = [n.node_id for n in dag.topological_order()]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")

    def test_roots_and_leaves(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(str)
            a >> b
        assert dag.roots() == [a]
        assert dag.leaves() == [b]


class TestExecution:
    def test_chain(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(lambda v: v + 1)
            c = MapOperator(lambda v: v * 10)
            a >> b >> c
        assert run_dag(dag, 4) == 50

    def test_input_fixed_value(self):
        with DAG("d") as dag:
            a = InputOperator(value=7)
            b = MapOperator(lambda v: v * 2)
            a >> b
        assert run_dag(dag) == 14

    def test_join_combines_inputs(self):
        with DAG("d") as dag:
            a = InputOperator(value=2)
            b = InputOperator(value=5)
            j = JoinOperator(lambda x, y: x + y)
            a >> j
            b >> j
        assert run_dag(dag) == 7

    def test_async_function_awaited(self):
        async def double(v):
            return v * 2

        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(double)
            a >> b
        assert run_dag(dag, 21) == 42

    def test_multi_leaf_run_dag_rejected(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(str)
            c = MapOperator(str)
            a >> b
            a >> c
        with pytest.raises(AwelError, match="exactly one leaf"):
            run_dag(dag, 1)

    def test_runner_exposes_all_results(self):
        with DAG("d") as dag:
            a = InputOperator(name="src")
            b = MapOperator(lambda v: v * 2, name="dbl")
            a >> b
        ctx = WorkflowRunner(dag).run(3)
        assert ctx.results["src"] == 3
        assert ctx.results["dbl"] == 6

    def test_operator_error_propagates(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(lambda v: 1 / v)
            a >> b
        with pytest.raises(ZeroDivisionError):
            run_dag(dag, 0)

    def test_independent_branches_run_concurrently(self):
        order = []

        async def slow(v):
            await asyncio.sleep(0.02)
            order.append("slow")
            return v

        async def fast(v):
            order.append("fast")
            return v

        with DAG("d") as dag:
            a = InputOperator()
            s = MapOperator(slow)
            f = MapOperator(fast)
            j = JoinOperator(lambda x, y: (x, y))
            a >> s >> j
            a >> f >> j
        run_dag(dag, 1)
        assert order == ["fast", "slow"]


class TestBranching:
    def make_dag(self):
        with DAG("d") as dag:
            src = InputOperator(name="src")
            branch = BranchOperator(
                lambda v: "big" if v > 10 else "small", name="br"
            )
            big = MapOperator(lambda v: f"big:{v}", name="big")
            small = MapOperator(lambda v: f"small:{v}", name="small")
            join = JoinOperator(lambda *vals: vals[0], name="join")
            src >> branch
            branch >> big >> join
            branch >> small >> join
        return dag

    def test_branch_routes_big(self):
        assert run_dag(self.make_dag(), 50) == "big:50"

    def test_branch_routes_small(self):
        assert run_dag(self.make_dag(), 5) == "small:5"

    def test_untaken_path_is_skipped(self):
        dag = self.make_dag()
        ctx = WorkflowRunner(dag).run(50)
        assert ctx.results["small"] is SKIPPED

    def test_skip_propagates_through_maps(self):
        with DAG("d") as dag:
            src = InputOperator(name="src")
            branch = BranchOperator(lambda v: "yes", name="br")
            yes = MapOperator(lambda v: v, name="yes")
            no = MapOperator(lambda v: v, name="no")
            after_no = MapOperator(lambda v: v, name="after_no")
            join = JoinOperator(lambda *vals: vals, name="join")
            src >> branch
            branch >> yes >> join
            branch >> no >> after_no >> join
        ctx = WorkflowRunner(dag).run(1)
        assert ctx.results["after_no"] is SKIPPED
        assert ctx.results["join"] == (1,)

    def test_invalid_branch_choice_raises(self):
        with DAG("d") as dag:
            src = InputOperator()
            branch = BranchOperator(lambda v: "nowhere")
            out = MapOperator(lambda v: v, name="out")
            src >> branch >> out
        with pytest.raises(AwelError, match="not downstream"):
            run_dag(dag, 1)


class TestStreams:
    def test_streamify_and_reduce(self):
        with DAG("d") as dag:
            src = InputOperator(value=[1, 2, 3, 4])
            s = StreamifyOperator()
            m = StreamMapOperator(lambda v: v * v)
            r = ReduceOperator(lambda acc, v: acc + v, 0)
            src >> s >> m >> r
        assert run_dag(dag) == 30

    def test_stream_filter(self):
        with DAG("d") as dag:
            src = InputOperator(value=list(range(10)))
            s = StreamifyOperator()
            f = StreamFilterOperator(lambda v: v % 2 == 0)
            u = UnstreamifyOperator()
            src >> s >> f >> u
        assert run_dag(dag) == [0, 2, 4, 6, 8]

    def test_stream_laziness_first_element(self):
        async def scenario():
            items = list(range(100))
            with DAG("d") as dag:
                src = InputOperator(value=items)
                s = StreamifyOperator()
                m = StreamMapOperator(lambda v: v, cost=1)
                src >> s >> m
            runner = WorkflowRunner(dag)
            ctx = await runner.run_async()
            stream = ctx.results[m.node_id]
            first = await stream.first()
            return first, ctx.clock

        first, clock = asyncio.run(scenario())
        assert first == 0
        # Only one element was pulled through the map stage.
        assert clock == 1

    def test_streamify_rejects_scalar(self):
        with DAG("d") as dag:
            src = InputOperator(value=42)
            s = StreamifyOperator()
            u = UnstreamifyOperator()
            src >> s >> u
        with pytest.raises(AwelError, match="expects a list"):
            run_dag(dag)

    def test_stream_map_requires_stream(self):
        with DAG("d") as dag:
            src = InputOperator(value=3)
            m = StreamMapOperator(lambda v: v)
            src >> m
        with pytest.raises(AwelError, match="requires a stream"):
            run_dag(dag)

    def test_stream_of_helpers(self):
        async def scenario():
            stream = stream_of([1, 2, 3])
            return await stream.map(lambda v: v + 1).collect()

        assert asyncio.run(scenario()) == [2, 3, 4]

    def test_empty_stream_first_raises(self):
        async def scenario():
            await stream_of([]).first()

        with pytest.raises(ValueError):
            asyncio.run(scenario())


class TestTriggers:
    def make_dag(self):
        with DAG("d") as dag:
            a = InputOperator()
            b = MapOperator(
                lambda v: (v if isinstance(v, int) else 0) + 1, name="out"
            )
            a >> b
        return dag

    def test_manual_trigger_records_runs(self):
        """The run's record is the context ``fire`` returns."""
        trigger = ManualTrigger(self.make_dag())
        ctx = trigger.fire(41)
        assert ctx.payload == 41
        assert ctx.results["out"] == 42

    def test_a_fired_context_dies_with_its_caller(self):
        trigger = ManualTrigger(self.make_dag())
        ctx = trigger.fire(41)
        fired = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert fired() is None

    def test_schedule_trigger_interval(self):
        trigger = ScheduleTrigger(self.make_dag(), interval=3, payload=1)
        assert trigger.tick(2) == []
        assert len(trigger.tick(1)) == 1
        assert len(trigger.tick(7)) == 2

    def test_schedule_invalid_interval(self):
        with pytest.raises(AwelError):
            ScheduleTrigger(self.make_dag(), interval=0)

    def test_http_trigger_matching(self):
        from repro.awel import HttpTrigger

        trigger = HttpTrigger(self.make_dag(), "/run", method="post")
        assert trigger.matches("POST", "/run")
        assert not trigger.matches("GET", "/run")
        ctx = trigger.fire({"k": 1})
        assert ctx.payload == {"k": 1}
