"""Process-global isolation shared by the whole test suite."""

import pytest

from repro.cache.manager import CacheManager, set_cache_manager
from repro.serving.engine import RequestScheduler


@pytest.fixture(autouse=True)
def _isolated_cache_manager():
    """Give every test a fresh, empty process-wide cache manager.

    Cached state can never leak between tests; a test that boots
    ``DBGPT`` or calls ``configure_cache`` gets its own fresh manager
    for the duration of that test only. Yields the test's manager.
    """
    manager = CacheManager()
    previous = set_cache_manager(manager)
    yield manager
    set_cache_manager(previous)


def _closing_schedulers_built_meanwhile():
    """Close, on exit, every serving engine built while this runs.

    Every controller builds a scheduler, and its loop and step threads
    start on the first request; a stack dropped without ``shutdown()``
    would otherwise keep them running for the rest of the session.
    """
    built = []
    init = RequestScheduler.__init__

    def tracked(scheduler, *args, **kwargs):
        init(scheduler, *args, **kwargs)
        built.append(scheduler)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RequestScheduler, "__init__", tracked)
        yield
    for scheduler in built:
        scheduler.close()


@pytest.fixture(autouse=True, scope="module")
def _close_module_schedulers():
    """Engines of module- and class-scoped stacks close with the module."""
    yield from _closing_schedulers_built_meanwhile()


@pytest.fixture(autouse=True)
def _close_test_schedulers():
    """Engines a test built close when the test ends."""
    yield from _closing_schedulers_built_meanwhile()
