"""RetryPolicy: backoff math, hints, budget, and classification."""

import random

import pytest

from repro.resilience import BreakerConfig, ResilienceConfig, RetryConfig
from repro.resilience.retry import RetryPolicy

from tests.resilience.conftest import Sleeper


class Transient(Exception):
    pass


class Fatal(Exception):
    pass


def classify(exc):
    if isinstance(exc, Transient):
        return True, getattr(exc, "retry_after", None)
    return False, None


def flaky(failures, exc_factory=Transient):
    """A callable that fails ``failures`` times, then returns 'ok'."""
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] <= failures:
            raise exc_factory(f"attempt {calls['n']}")
        return "ok"

    fn.calls = calls
    return fn


class TestDelay:
    def policy(self, **overrides):
        config = dict(
            base_delay_s=0.1,
            max_delay_s=1.0,
            multiplier=2.0,
            jitter=0.0,
        )
        config.update(overrides)
        return RetryPolicy(RetryConfig(**config))

    def test_exponential_growth_capped_at_max(self):
        policy = self.policy()
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        # 0.1 * 2**6 = 6.4 would exceed the cap.
        assert policy.delay(7) == pytest.approx(1.0)

    def test_hint_floors_but_never_lowers(self):
        policy = self.policy()
        # Hint above the computed backoff wins...
        assert policy.delay(1, hint=0.7) == pytest.approx(0.7)
        # ...a hint below it does not shorten the wait.
        assert policy.delay(4, hint=0.1) == pytest.approx(0.8)

    def test_jitter_is_bounded_and_reproducible(self):
        config = RetryConfig(
            base_delay_s=0.1, max_delay_s=1.0, multiplier=2.0, jitter=0.5
        )
        a = RetryPolicy(config, rng=random.Random(7))
        b = RetryPolicy(config, rng=random.Random(7))
        delays = [a.delay(n) for n in (1, 2, 3)]
        assert delays == [b.delay(n) for n in (1, 2, 3)]
        for attempt, delay in zip((1, 2, 3), delays):
            base = 0.1 * 2 ** (attempt - 1)
            assert base <= delay <= base * 1.5


class TestRun:
    def test_transient_failures_retried_to_success(self):
        sleeper = Sleeper()
        policy = RetryPolicy(
            RetryConfig(max_attempts=3, jitter=0.0, base_delay_s=0.1),
            sleep=sleeper,
        )
        fn = flaky(2)
        assert policy.run(fn, classify) == "ok"
        assert fn.calls["n"] == 3
        assert sleeper.delays == pytest.approx([0.1, 0.2])

    def test_non_retryable_raises_immediately(self):
        sleeper = Sleeper()
        policy = RetryPolicy(RetryConfig(max_attempts=5), sleep=sleeper)
        fn = flaky(1, exc_factory=Fatal)
        with pytest.raises(Fatal):
            policy.run(fn, classify)
        assert fn.calls["n"] == 1
        assert sleeper.delays == []

    def test_attempts_exhausted_reraises_last_error(self):
        sleeper = Sleeper()
        policy = RetryPolicy(
            RetryConfig(max_attempts=3, jitter=0.0), sleep=sleeper
        )
        fn = flaky(99)
        with pytest.raises(Transient, match="attempt 3"):
            policy.run(fn, classify)
        assert fn.calls["n"] == 3
        assert len(sleeper.delays) == 2

    def test_budget_caps_cumulative_waiting(self):
        sleeper = Sleeper()
        # Delays would be 1.0, 2.0, 4.0...; the budget admits only the
        # first two waits (3.0 total), so the third attempt's failure
        # is final even though max_attempts allows more.
        policy = RetryPolicy(
            RetryConfig(
                max_attempts=10,
                base_delay_s=1.0,
                max_delay_s=60.0,
                jitter=0.0,
                budget_s=3.0,
            ),
            sleep=sleeper,
        )
        fn = flaky(99)
        with pytest.raises(Transient):
            policy.run(fn, classify)
        assert sleeper.total == pytest.approx(3.0)
        assert fn.calls["n"] == 3

    def test_hint_from_classifier_floors_the_wait(self):
        sleeper = Sleeper()
        policy = RetryPolicy(
            RetryConfig(max_attempts=2, jitter=0.0, base_delay_s=0.05),
            sleep=sleeper,
        )

        def fn():
            if not sleeper.delays:
                exc = Transient("shed")
                exc.retry_after = 0.9
                raise exc
            return "ok"

        assert policy.run(fn, classify) == "ok"
        assert sleeper.delays == pytest.approx([0.9])

    def test_on_retry_callback_sees_attempt_and_delay(self):
        seen = []
        policy = RetryPolicy(
            RetryConfig(max_attempts=3, jitter=0.0, base_delay_s=0.1),
            sleep=lambda _s: None,
        )
        policy.run(
            flaky(2), classify, on_retry=lambda a, d: seen.append((a, d))
        )
        assert seen == [(1, pytest.approx(0.1)), (2, pytest.approx(0.2))]

    def test_retries_counted_by_layer_and_error(self, registry):
        policy = RetryPolicy(
            RetryConfig(max_attempts=3, jitter=0.0),
            sleep=lambda _s: None,
            layer="client",
        )
        policy.run(flaky(2), classify)
        counter = registry.get("resilience_retries_total")
        assert counter is not None
        assert counter.value(layer="client", error="Transient") == 2


class TestConfigValidation:
    def test_retry_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RetryConfig(max_attempts=0)
        with pytest.raises(ValueError):
            RetryConfig(base_delay_s=-0.1)
        with pytest.raises(ValueError):
            RetryConfig(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ValueError):
            RetryConfig(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryConfig(jitter=1.5)
        with pytest.raises(ValueError):
            RetryConfig(budget_s=-1.0)

    def test_breaker_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout_s=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(half_open_probes=0)

    def test_resilience_config_rejects_bad_probe_interval(self):
        with pytest.raises(ValueError):
            ResilienceConfig(probe_interval_s=0.0)

    def test_cannot_be_disabled(self):
        assert ResilienceConfig().enabled is True
        with pytest.raises(ValueError, match="cannot be disabled"):
            ResilienceConfig(enabled=False)
