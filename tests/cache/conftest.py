"""Fixtures for the cache subsystem tests."""

import pytest


@pytest.fixture
def enabled_cache(_isolated_cache_manager):
    """The test's fresh process-wide manager (the suite-wide autouse
    fixture installs it)."""
    return _isolated_cache_manager


class FakeClock:
    """A deterministic monotonic clock tests advance by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()
