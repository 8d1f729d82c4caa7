"""DAG container, construction context and execution context."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Optional

from repro.awel.errors import AwelError, CycleError

if TYPE_CHECKING:  # pragma: no cover
    from repro.awel.operators import Operator

_CURRENT = threading.local()


class DAG:
    """A named workflow graph of operators.

    Usable as a context manager so operators created inside the block
    auto-register (the Airflow idiom AWEL adopts)::

        with DAG("flow") as dag:
            a = InputOperator()
            b = MapOperator(str.upper)
            a >> b
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: dict[str, "Operator"] = {}
        self._downstream: dict[str, list[str]] = {}
        self._upstream: dict[str, list[str]] = {}
        #: Bumped by every node or edge added; runners re-plan on it.
        self.version = 0

    # -- construction ------------------------------------------------------

    def __enter__(self) -> "DAG":
        stack = getattr(_CURRENT, "stack", None)
        if stack is None:
            stack = _CURRENT.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _CURRENT.stack.pop()

    @staticmethod
    def current() -> Optional["DAG"]:
        stack = getattr(_CURRENT, "stack", None)
        return stack[-1] if stack else None

    def add_node(self, node: "Operator") -> None:
        if node.node_id in self.nodes:
            raise AwelError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self._downstream.setdefault(node.node_id, [])
        self._upstream.setdefault(node.node_id, [])
        self.version += 1

    def add_edge(self, upstream: "Operator", downstream: "Operator") -> None:
        for node in (upstream, downstream):
            if node.node_id not in self.nodes:
                raise AwelError(
                    f"operator {node.node_id!r} belongs to another DAG"
                )
        if downstream.node_id in self._downstream[upstream.node_id]:
            raise AwelError(
                f"edge {upstream.node_id!r} -> {downstream.node_id!r} "
                "already exists"
            )
        self._downstream[upstream.node_id].append(downstream.node_id)
        self._upstream[downstream.node_id].append(upstream.node_id)
        self.version += 1

    # -- topology ----------------------------------------------------------

    def upstream_of(self, node_id: str) -> list[str]:
        return list(self._upstream[node_id])

    def downstream_of(self, node_id: str) -> list[str]:
        return list(self._downstream[node_id])

    def roots(self) -> list["Operator"]:
        return [
            self.nodes[node_id]
            for node_id, ups in self._upstream.items()
            if not ups
        ]

    def leaves(self) -> list["Operator"]:
        return [
            self.nodes[node_id]
            for node_id, downs in self._downstream.items()
            if not downs
        ]

    def topological_order(self) -> list["Operator"]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles."""
        in_degree = {
            node_id: len(ups) for node_id, ups in self._upstream.items()
        }
        ready = sorted(
            node_id for node_id, degree in in_degree.items() if degree == 0
        )
        order: list[str] = []
        while ready:
            node_id = ready.pop(0)
            order.append(node_id)
            for next_id in self._downstream[node_id]:
                in_degree[next_id] -= 1
                if in_degree[next_id] == 0:
                    ready.append(next_id)
        if len(order) != len(self.nodes):
            remaining = sorted(set(self.nodes) - set(order))
            raise CycleError(f"cycle detected among nodes: {remaining}")
        return [self.nodes[node_id] for node_id in order]

    def validate(self) -> list["Operator"]:
        """Check acyclicity and adjacency-map consistency; returns the
        topological order.

        Operators registered in ``nodes`` but absent from the adjacency
        maps would be silently dropped by scheduling (and misreported
        as a cycle by ``topological_order``); reject them explicitly.
        """
        orphans = sorted(
            node_id
            for node_id in self.nodes
            if node_id not in self._upstream or node_id not in self._downstream
        )
        if orphans:
            raise AwelError(
                f"orphan operators not wired into the DAG: {orphans}; "
                "register nodes via add_node so both adjacency maps "
                "know them"
            )
        return self.topological_order()

    def __len__(self) -> int:
        return len(self.nodes)


class DAGContext:
    """Per-run state shared by operators.

    ``clock`` is a logical tick counter operators bump per unit of work,
    giving deterministic latency measurements for the stream-vs-batch
    benchmark. ``events`` records (tick, label) marks.
    """

    def __init__(self, payload: Any = None) -> None:
        self.payload = payload
        self.results: dict[str, Any] = {}
        self.clock = 0
        self.events: list[tuple[int, str]] = []
        self.state: dict[str, Any] = {}

    def tick(self, cost: int = 1) -> None:
        self.clock += cost

    def mark(self, label: str) -> None:
        self.events.append((self.clock, label))
