"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one paper artifact (table/figure)
or prose claim; see DESIGN.md's experiment index. Run with::

    pytest benchmarks/ --benchmark-only

Shape assertions live inside the benchmarks, so a green run certifies
the paper's qualitative claims hold; the printed tables give the
numbers recorded in EXPERIMENTS.md.
"""

import pytest

from repro.cache.manager import (
    CacheManager,
    get_cache_manager,
    set_cache_manager,
)
from repro.core import DBGPT
from repro.datasets import build_sales_database
from repro.datasources import EngineSource


def pytest_collection_modifyitems(items):
    # Keep paper order: table1, figure1, figure2, figure3, then prose.
    order = [
        "bench_table1", "bench_figure1", "bench_figure2", "bench_figure3",
        "bench_hub", "bench_smmf", "bench_awel", "bench_rag",
        "bench_multilingual", "bench_agent",
    ]

    def rank(item):
        for index, prefix in enumerate(order):
            if prefix in item.nodeid:
                return index
        return len(order)

    items.sort(key=rank)


@pytest.fixture(autouse=True)
def _run_shape_tests_under_benchmark_only(benchmark):
    """Keep shape-assertion tests alive under ``--benchmark-only``.

    pytest-benchmark skips tests that do not request its fixture; the
    shape tests (which assert the paper's qualitative claims) must run
    in the same invocation, so this autouse fixture requests it for
    every test in the harness.
    """
    yield


@pytest.fixture(autouse=True)
def _isolated_cache_manager():
    """Give every benchmark a fresh, empty process-wide cache manager.

    A benchmark that boots ``DBGPT`` installs that instance's manager
    globally; without a reset its entries would leak into later
    benchmarks and answer their measured workloads from cache.
    """
    previous = set_cache_manager(CacheManager())
    yield
    set_cache_manager(previous)


def clear_caches() -> None:
    """Empty every tier of the current manager (a ``pedantic`` setup
    must return None, so not ``CacheManager.clear`` itself)."""
    get_cache_manager().clear()


@pytest.fixture
def cold_benchmark(benchmark):
    """``benchmark`` with every cache tier emptied before each round,
    outside the timed region, so a repeated call times the layers
    behind the cache rather than a lookup (``bench_cache.py`` times the
    cached path on purpose)."""

    def run(fn, rounds=30):
        return benchmark.pedantic(fn, setup=clear_caches, rounds=rounds)

    return run


@pytest.fixture(scope="session")
def sales_dbgpt():
    """One booted DB-GPT over the seeded sales workload.

    Its components cache in whichever manager the running benchmark
    installed; benchmarks whose claims are about the layers behind the
    cache empty it between calls (``cold_benchmark``, ``clear_caches``).
    Shut down when the session ends, so its serving engine does not
    outlive the run.
    """
    dbgpt = DBGPT.boot()
    dbgpt.register_source(EngineSource(build_sales_database(n_orders=300)))
    yield dbgpt
    dbgpt.shutdown()
