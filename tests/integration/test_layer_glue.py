"""Cross-layer integration: server-layer routes firing AWEL workflows."""

import pytest

from repro.awel import DAG, HttpTrigger, InputOperator, MapOperator
from repro.server import Request, Router


class TestHttpTriggerMount:
    def make_trigger(self):
        with DAG("api-flow") as dag:
            src = InputOperator(name="src")
            out = MapOperator(
                lambda body: {"echo": body.get("message", "").upper()},
                name="out",
            )
            src >> out
        return HttpTrigger(dag, "/api/workflows/echo")

    def test_mounted_route_fires_workflow(self):
        router = Router()
        trigger = self.make_trigger()
        trigger.mount(router)
        response = router.dispatch(
            Request(
                "POST", "/api/workflows/echo", {"message": "hello"}
            )
        )
        assert response.status == 200
        assert response.body["results"]["out"] == {"echo": "HELLO"}

    def test_wrong_method_rejected(self):
        router = Router()
        self.make_trigger().mount(router)
        assert router.dispatch(
            Request("GET", "/api/workflows/echo")
        ).status == 405

    def test_multiple_triggers_coexist(self):
        router = Router()
        first = self.make_trigger()
        first.mount(router)
        with DAG("другой") as dag:
            src = InputOperator(name="src")
            double = MapOperator(
                lambda body: body.get("n", 0) * 2, name="double"
            )
            src >> double
        second = HttpTrigger(dag, "/api/workflows/double")
        second.mount(router)
        response = router.dispatch(
            Request("POST", "/api/workflows/double", {"n": 21})
        )
        assert response.body["results"]["double"] == 42

    def test_matches_helper(self):
        trigger = self.make_trigger()
        assert trigger.matches("post", "/api/workflows/echo")
        assert not trigger.matches("POST", "/other")
