"""Service-oriented Multi-model Management Framework (SMMF).

Implements the paper's two-layer design:

- **model deployment layer** — :class:`ModelController` owns the
  registry metadata, admits workers via registration + heartbeats, and
  routes requests, every one through its continuous-batching engine
  (:class:`repro.serving.RequestScheduler`); the :class:`ApiServer` exposes the controller through
  an HTTP-shaped request/response interface consumed by
  :class:`LLMClient`.
- **model inference layer** — each :class:`ModelWorker` hosts one
  :class:`repro.llm.LanguageModel` instance and executes inference.

All components run in-process (the paper's distributed substrate is Ray
/ cloud; DESIGN.md records the substitution) but speak the same
protocol: register -> heartbeat -> route -> infer -> failover.
"""

from repro.smmf.api_server import ApiRequest, ApiResponse, ApiServer
from repro.smmf.balancer import (
    LeastBusyBalancer,
    LoadBalancer,
    RandomBalancer,
    RoundRobinBalancer,
)
from repro.smmf.client import ClientError, LLMClient
from repro.smmf.controller import ModelController, SmmfError, model_metrics
from repro.smmf.deploy import deploy
from repro.smmf.registry import ModelRegistry, WorkerRecord
from repro.smmf.spec import ModelSpec
from repro.smmf.worker import ModelWorker, WorkerCrashed

__all__ = [
    "ApiRequest",
    "ApiResponse",
    "ApiServer",
    "ClientError",
    "LLMClient",
    "LeastBusyBalancer",
    "LoadBalancer",
    "ModelController",
    "ModelRegistry",
    "ModelSpec",
    "ModelWorker",
    "RandomBalancer",
    "RoundRobinBalancer",
    "SmmfError",
    "WorkerCrashed",
    "WorkerRecord",
    "deploy",
    "model_metrics",
]
