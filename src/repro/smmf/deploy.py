"""Deployment helper: specs -> running controller + client."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.resilience.config import ResilienceConfig
from repro.serving.config import ServingConfig
from repro.smmf.api_server import ApiServer
from repro.smmf.balancer import LoadBalancer
from repro.smmf.client import LLMClient
from repro.smmf.controller import ModelController
from repro.smmf.spec import ModelSpec
from repro.smmf.worker import ModelWorker


def deploy(
    specs: Iterable[ModelSpec],
    balancer: Optional[LoadBalancer] = None,
    heartbeat_timeout: float = 30.0,
    serving: Optional[ServingConfig] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> tuple[ModelController, LLMClient]:
    """Spin up workers for every spec and return controller + client.

    This is the one-call "private deployment" path the paper's SMMF
    promises: every model runs locally under the caller's control.
    ``serving`` tunes the continuous-batching engine every request
    goes through (see ``docs/serving.md``); ``resilience`` tunes the
    retry policies, per-worker circuit breakers and health recovery
    both the controller and the client run (see
    ``docs/resilience.md``; ``None`` means the defaults).
    """
    controller = ModelController(
        balancer=balancer,
        heartbeat_timeout=heartbeat_timeout,
        resilience=resilience,
        serving=serving,
    )
    for spec in specs:
        for _replica in range(spec.replicas):
            model = spec.factory()
            if model.name != spec.name:
                raise ValueError(
                    f"spec {spec.name!r} built a model named "
                    f"{model.name!r}; factory and spec must agree"
                )
            worker = ModelWorker(model, latency_ms=spec.latency_ms)
            controller.register_worker(worker, latency_ms=spec.latency_ms)
    server = ApiServer(controller)
    return controller, LLMClient(server, resilience=resilience)
