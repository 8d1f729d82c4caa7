"""Workflow triggers: how runs start.

AWEL workflows can be kicked off manually, by an HTTP-shaped request
(through the server layer), or on a logical schedule.
"""

from __future__ import annotations

from typing import Any

from repro.awel.dag import DAG, DAGContext
from repro.awel.errors import AwelError
from repro.awel.runner import WorkflowRunner


class ManualTrigger:
    """Fire a DAG on demand with an explicit payload.

    A trigger keeps nothing of a run: :meth:`fire` hands the run's
    context to the caller, so a mounted trigger does not grow per
    request.
    """

    def __init__(self, dag: DAG) -> None:
        self._runner = WorkflowRunner(dag)

    def fire(self, payload: Any = None) -> DAGContext:
        return self._runner.run(payload)


class HttpTrigger(ManualTrigger):
    """Adapt HTTP-shaped requests into workflow runs.

    ``path`` is matched exactly; the request body becomes the payload.
    Designed to be mounted on :class:`repro.server.router.Router`.
    """

    def __init__(self, dag: DAG, path: str, method: str = "POST") -> None:
        super().__init__(dag)
        self.path = path
        self.method = method.upper()

    def matches(self, method: str, path: str) -> bool:
        return method.upper() == self.method and path == self.path

    def mount(self, router) -> None:
        """Register this trigger on a server-layer router.

        The workflow's leaf results are returned as the response body,
        keyed by node id — the glue between the paper's server layer
        and the AWEL protocol layer.
        """
        from repro.server.request import ok

        def handler(request):
            ctx = self.fire(dict(request.body))
            leaves = {
                node.node_id: ctx.results.get(node.node_id)
                for node in self._runner.dag.leaves()
            }
            return ok({"results": leaves})

        router.add_route(self.method, self.path, handler)


class ScheduleTrigger(ManualTrigger):
    """Fire every ``interval`` logical ticks.

    Wall-clock scheduling would make tests flaky; the logical clock
    keeps the scheduling *protocol* (tick, due, fire) intact.
    """

    def __init__(
        self,
        dag: DAG,
        interval: int,
        payload: Any = None,
    ) -> None:
        if interval <= 0:
            raise AwelError("interval must be positive")
        super().__init__(dag)
        self.interval = interval
        self.payload = payload
        self._since_last = 0

    def tick(self, ticks: int = 1) -> list[DAGContext]:
        """Advance time; returns contexts of any runs that fired."""
        fired: list[DAGContext] = []
        self._since_last += ticks
        while self._since_last >= self.interval:
            self._since_last -= self.interval
            fired.append(self.fire(self.payload))
        return fired
