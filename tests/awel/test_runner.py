"""Tests for the chain scheduler behind WorkflowRunner.

A pipeline runs inline (no task of its own), a DAG of k chains costs
k - 1 tasks, the raised error does not depend on which branch failed
first in time, an edited DAG is re-planned, and a differential over
random small DAGs holds the runner to a plain sequential interpreter
of the documented semantics.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.awel import (
    DAG,
    AwelError,
    BranchOperator,
    DAGContext,
    InputOperator,
    JoinOperator,
    MapOperator,
    WorkflowRunner,
)
from repro.awel.operators import SKIPPED
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.runtime import run_sync


@pytest.fixture
def tasks_created(monkeypatch):
    """How many tasks event loops were asked to create."""
    created = []
    create_task = asyncio.BaseEventLoop.create_task

    def counting(loop, *args, **kwargs):
        created.append(args[0])
        return create_task(loop, *args, **kwargs)

    monkeypatch.setattr(asyncio.BaseEventLoop, "create_task", counting)
    return created


def pipeline():
    with DAG("pipeline") as dag:
        a = InputOperator(name="a")
        b = MapOperator(lambda v: v + 1, name="b")
        c = MapOperator(lambda v: v * 10, name="c")
        d = MapOperator(str, name="d")
        a >> b >> c >> d
    return dag


def diamond():
    with DAG("diamond") as dag:
        a = InputOperator(name="a")
        b = MapOperator(lambda v: v + 1, name="b")
        c = MapOperator(lambda v: v + 2, name="c")
        j = JoinOperator(lambda x, y: x * y, name="j")
        a >> b >> j
        a >> c >> j
    return dag


def two_pipelines():
    with DAG("two") as dag:
        a = InputOperator(name="a")
        b = MapOperator(lambda v: v + 1, name="b")
        c = InputOperator(value=5, name="c")
        d = MapOperator(lambda v: v - 1, name="d")
        a >> b
        c >> d
    return dag


class TestTasks:
    def test_chain_creates_no_task_beyond_run_sync(self, tasks_created):
        ctx = WorkflowRunner(pipeline()).run(4)
        assert ctx.results["d"] == "50"
        # The one task is run_sync's own, around the whole run.
        assert len(tasks_created) == 1

    @pytest.mark.parametrize(
        "build, chains", [(pipeline, 1), (two_pipelines, 2), (diamond, 4)]
    )
    def test_k_chains_create_k_minus_one_tasks(
        self, tasks_created, build, chains
    ):
        dag = build()
        runner = WorkflowRunner(dag)

        async def scenario():
            before = len(tasks_created)
            await runner.run_async(3)
            return len(tasks_created) - before

        assert run_sync(scenario()) == chains - 1

    def test_diamond_results(self):
        ctx = WorkflowRunner(diamond()).run(3)
        assert ctx.results["j"] == 4 * 5


class TestErrors:
    def test_error_of_earliest_failed_node_in_topological_order(self):
        async def slow_value_error(v):
            await asyncio.sleep(0.005)
            raise ValueError("slow")

        def fast_key_error(v):
            raise KeyError("fast")

        with DAG("d") as dag:
            a = InputOperator(name="a")
            slow = MapOperator(slow_value_error, name="b_slow")
            fast = MapOperator(fast_key_error, name="c_fast")
            done = MapOperator(lambda v: v, name="d_independent")
            a >> slow
            a >> fast
            a >> done
        assert [n.node_id for n in dag.topological_order()][:2] == [
            "a",
            "b_slow",
        ]
        runner = WorkflowRunner(dag)
        for _ in range(5):
            ctx = DAGContext(1)
            # c_fast fails first in time; b_slow is first in order.
            with pytest.raises(ValueError, match="slow"):
                run_sync(runner.run_async(1, ctx))
            # The independent chain still finished.
            assert ctx.results["d_independent"] == 1
            assert "b_slow" not in ctx.results
            assert "c_fast" not in ctx.results

    def test_failure_fails_descendants_without_running_them(self):
        ran = []

        def boom(v):
            raise RuntimeError("boom")

        with DAG("d") as dag:
            a = InputOperator(name="a")
            b = MapOperator(boom, name="b")
            c = MapOperator(lambda v: ran.append(v), name="c")
            a >> b >> c
        ctx = DAGContext(1)
        with pytest.raises(RuntimeError, match="boom"):
            run_sync(WorkflowRunner(dag).run_async(1, ctx))
        assert ran == []
        assert set(ctx.results) == {"a"}

    def test_invalid_branch_choice_fails_the_branch(self):
        with DAG("d") as dag:
            src = InputOperator(name="src")
            branch = BranchOperator(lambda v: "nowhere", name="br")
            left = MapOperator(lambda v: v, name="left")
            right = MapOperator(lambda v: v, name="right")
            src >> branch
            branch >> left
            branch >> right
        ctx = DAGContext(1)
        with pytest.raises(AwelError, match="not downstream"):
            run_sync(WorkflowRunner(dag).run_async(1, ctx))
        assert set(ctx.results) == {"src"}


class TestReplanning:
    def test_dag_edited_after_runner_built_is_replanned(self):
        dag = pipeline()
        runner = WorkflowRunner(dag)
        assert runner.run(1).results["d"] == "20"
        e = MapOperator(lambda v: v + "!", name="e", dag=dag)
        dag.nodes["d"] >> e
        assert runner.run(1).results["e"] == "20!"

    def test_new_metrics_registry_is_followed(self):
        runner = WorkflowRunner(pipeline())
        runner.run(1)
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            runner.run(1)
        finally:
            set_registry(previous)
        runs = fresh.get("awel_operator_latency_ms")
        assert runs.count(type="MapOperator", mode="batch", status="ok") == 3
        dag_runs = fresh.get("awel_dag_runs_total")
        assert dag_runs.value(dag="pipeline", status="ok") == 1


# ---------------------------------------------------------------------------
# Differential: random small DAGs against a sequential reference.
# ---------------------------------------------------------------------------

_KINDS = ("input", "map", "join", "branch")


@st.composite
def dag_specs(draw):
    """A list of node specs; node i reads only from nodes before it."""
    count = draw(st.integers(2, 7))
    specs = []
    for index in range(count):
        kind = "input" if index == 0 else draw(st.sampled_from(_KINDS))
        if kind == "input":
            upstream = []
        elif kind == "join":
            upstream = draw(
                st.lists(
                    st.integers(0, index - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        else:
            upstream = [draw(st.integers(0, index - 1))]
        specs.append(
            {
                "kind": kind,
                "upstream": upstream,
                "constant": draw(st.integers(0, 9)),
                "raises": kind != "input" and draw(st.booleans())
                and draw(st.booleans()),
                "yields": draw(st.integers(0, 2)),
            }
        )
    return specs


def _name(index):
    return f"n{index:02d}"


def _error_type(index):
    return type(f"Boom{index}", (Exception,), {})


def _compute(spec, inputs):
    """What a node that does not raise returns for ``inputs``."""
    if spec["kind"] == "input":
        return spec["constant"]
    if spec["kind"] == "join":
        return sum(inputs) + spec["constant"]
    if spec["kind"] == "map":
        return inputs[0] * 3 + spec["constant"]
    return inputs[0]  # a branch passes its value through


def _choice(candidates, value):
    return candidates[value % len(candidates)] if candidates else "nowhere"


def build(specs, error_types):
    """The DAG for ``specs``; each operator runs ``_compute``, some of
    them asynchronously, yielding to the loop ``yields`` times."""
    downstream = {_name(i): [] for i in range(len(specs))}
    with DAG("random") as dag:
        nodes = []
        for index, spec in enumerate(specs):

            def body(*inputs, index=index, spec=spec):
                if spec["raises"]:
                    raise error_types[index](index)
                return _compute(spec, list(inputs))

            def async_body(*inputs, body=body, spec=spec):
                async def run():
                    for _ in range(spec["yields"]):
                        await asyncio.sleep(0)
                    return body(*inputs)

                return run()

            fn = async_body if spec["yields"] else body
            name = _name(index)
            if spec["kind"] == "input":
                node = InputOperator(value=spec["constant"], name=name)
            elif spec["kind"] == "join":
                node = JoinOperator(fn, name=name)
            elif spec["kind"] == "map":
                node = MapOperator(fn, name=name)
            else:

                def chooser(value, index=index, name=name, spec=spec):
                    if spec["raises"]:
                        raise error_types[index](index)
                    return _choice(downstream[name], value)

                node = BranchOperator(chooser, name=name)
            nodes.append(node)
        for index, spec in enumerate(specs):
            for up in spec["upstream"]:
                nodes[up] >> nodes[index]
                downstream[_name(up)].append(_name(index))
    return dag


def reference(specs, dag, error_types):
    """The documented semantics, one node at a time in topological
    order: results, and the type of the error the run must raise."""
    results, failed, not_taken = {}, {}, set()
    for node in dag.topological_order():
        name = node.node_id
        index = int(name[1:])
        spec = specs[index]
        ups = dag.upstream_of(name)
        inherited = [up for up in ups if up in failed]
        if inherited:
            failed[name] = failed[inherited[0]]
            continue
        if name in not_taken:
            results[name] = SKIPPED
            continue
        inputs = [results[up] for up in ups]
        if any(value is SKIPPED for value in inputs):
            inputs = [value for value in inputs if value is not SKIPPED]
            if spec["kind"] != "join" or not inputs:
                results[name] = SKIPPED
                continue
        if spec["raises"]:
            failed[name] = error_types[index]
            continue
        value = _compute(spec, inputs)
        if spec["kind"] == "branch":
            downs = dag.downstream_of(name)
            chosen = _choice(downs, value)
            if chosen not in downs:
                failed[name] = AwelError
                continue
            not_taken.update(down for down in downs if down != chosen)
        results[name] = value
    order = [node.node_id for node in dag.topological_order()]
    first = next((failed[name] for name in order if name in failed), None)
    return results, first


class TestDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dag_specs())
    def test_runner_matches_reference(self, specs):
        error_types = [_error_type(i) for i in range(len(specs))]
        dag = build(specs, error_types)
        expected, expected_error = reference(specs, dag, error_types)
        ctx = DAGContext(None)
        raised = None
        try:
            run_sync(WorkflowRunner(dag).run_async(None, ctx))
        except Exception as exc:  # noqa: BLE001 - compared below
            raised = type(exc)
        assert raised is expected_error
        assert set(ctx.results) == set(expected)
        skipped = {k for k, v in ctx.results.items() if v is SKIPPED}
        assert skipped == {k for k, v in expected.items() if v is SKIPPED}
        for name, value in expected.items():
            if value is not SKIPPED:
                assert ctx.results[name] == value, name
