"""Operators: the discrete tasks AWEL composes into workflows."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.awel.dag import DAG, DAGContext
from repro.awel.errors import AwelError
from repro.awel.flow import AsyncStream, stream_of

_node_counter = itertools.count(1)

#: Sentinel carried in ``ctx.results`` for branches that were not taken.
SKIPPED = object()


class Operator:
    """Base operator.

    ``>>`` wires edges and returns the right operand so chains read
    left-to-right; ``cost`` is the logical ticks one invocation (or one
    stream element) charges to the run clock.
    """

    #: The ``mode`` of this operator's spans and run counts: operators
    #: that produce or consume lazy streams say ``stream``.
    mode = "batch"

    def __init__(
        self,
        name: Optional[str] = None,
        dag: Optional[DAG] = None,
        cost: int = 1,
    ) -> None:
        self.node_id = name or f"{type(self).__name__}-{next(_node_counter)}"
        self.cost = cost
        # Explicit `is not None`: an empty DAG is falsy (len() == 0).
        owner = dag if dag is not None else DAG.current()
        if owner is None:
            raise AwelError(
                f"operator {self.node_id!r} created outside a DAG context; "
                "pass dag= or construct inside `with DAG(...)`"
            )
        self.dag = owner
        owner.add_node(self)

    def __rshift__(self, other: "Operator") -> "Operator":
        self.dag.add_edge(self, other)
        return other

    def __lshift__(self, other: "Operator") -> "Operator":
        self.dag.add_edge(other, self)
        return other

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.node_id!r})"


def _single_input(operator: Operator, inputs: list[Any]) -> Any:
    if len(inputs) != 1:
        raise AwelError(
            f"{operator.node_id!r} expects exactly one input, "
            f"got {len(inputs)}"
        )
    return inputs[0]


class InputOperator(Operator):
    """Feeds the run payload (or a fixed value) into the graph."""

    def __init__(self, value: Any = None, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._value = value

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        if inputs:
            raise AwelError(
                f"{self.node_id!r} is a source and accepts no inputs"
            )
        return self._value if self._value is not None else ctx.payload


class MapOperator(Operator):
    """Apply a function to the single upstream value."""

    def __init__(self, fn: Callable[..., Any], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._fn = fn

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        ctx.tick(self.cost)
        result = self._fn(value)
        if hasattr(result, "__await__"):
            result = await result
        return result


class JoinOperator(Operator):
    """Combine all upstream values with an n-ary function."""

    def __init__(self, fn: Callable[..., Any], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._fn = fn

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        ctx.tick(self.cost)
        result = self._fn(*inputs)
        if hasattr(result, "__await__"):
            result = await result
        return result


class BranchOperator(Operator):
    """Route the input down exactly one downstream edge.

    ``chooser(value)`` returns the node_id (or the operator) that should
    run; every other direct downstream of the branch is skipped, and
    skips propagate to nodes all of whose inputs were skipped.
    """

    def __init__(
        self,
        chooser: Callable[[Any], Any],
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self._chooser = chooser

    def choose(self, value: Any) -> str:
        chosen = self._chooser(value)
        if isinstance(chosen, Operator):
            chosen = chosen.node_id
        downstream = self.dag.downstream_of(self.node_id)
        if chosen not in downstream:
            raise AwelError(
                f"branch chose {chosen!r}, which is not downstream of "
                f"{self.node_id!r} (candidates: {downstream})"
            )
        return chosen

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        ctx.tick(self.cost)
        return value


class StreamifyOperator(Operator):
    """Turn a list input into a lazy stream."""

    mode = "stream"

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        if isinstance(value, AsyncStream):
            return value
        if not isinstance(value, (list, tuple)):
            raise AwelError(
                f"{self.node_id!r} expects a list/tuple, got {type(value)}"
            )
        return stream_of(list(value))


class StreamMapOperator(Operator):
    """Element-wise lazy transform of a stream."""

    mode = "stream"

    def __init__(self, fn: Callable[[Any], Any], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._fn = fn

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        if not isinstance(value, AsyncStream):
            raise AwelError(f"{self.node_id!r} requires a stream input")
        return value.map(self._fn, on_element=lambda: ctx.tick(self.cost))


class StreamFilterOperator(Operator):
    """Lazy element filter over a stream."""

    mode = "stream"

    def __init__(self, predicate: Callable[[Any], bool], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._predicate = predicate

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        if not isinstance(value, AsyncStream):
            raise AwelError(f"{self.node_id!r} requires a stream input")
        return value.filter(self._predicate)


class ReduceOperator(Operator):
    """Fold a stream into one value."""

    mode = "stream"

    def __init__(
        self,
        fn: Callable[[Any, Any], Any],
        initial: Any = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self._fn = fn
        self._initial = initial

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        if not isinstance(value, AsyncStream):
            raise AwelError(f"{self.node_id!r} requires a stream input")
        ctx.tick(self.cost)
        return await value.reduce(self._fn, self._initial)


class UnstreamifyOperator(Operator):
    """Materialize a stream back into a list (a batch barrier)."""

    mode = "stream"

    async def execute(self, ctx: DAGContext, inputs: list[Any]) -> Any:
        value = _single_input(self, inputs)
        if not isinstance(value, AsyncStream):
            return value
        return await value.collect()
