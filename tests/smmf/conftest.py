"""Isolation fixtures for the SMMF suite.

Every test gets a fresh metrics registry: the per-model summary
(``model_metrics()``, ``GET /v1/metrics``) is derived from the
process-wide ``model_*`` series, and the suite asserts exact counts.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry


@pytest.fixture(autouse=True)
def _isolated_registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)
