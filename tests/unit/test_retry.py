"""Tests for the shared retry policy and generator retry loop."""

import random

import pytest

from repro.core.context import OpContext
from repro.errors import (
    DeadlineExpiredError,
    RevokedError,
    ServiceUnavailableError,
)
from repro.sim import Simulation
from repro.util.retry import RetryPolicy, retrying


class TestRetryPolicy:
    def test_delay_matches_legacy_cluster_formula(self):
        policy = RetryPolicy(base=0.25, cap=4.0, max_attempts=4, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(8):
            u = rng.random()
            legacy = min(4.0, 0.25 * (2.0 ** attempt)) * (0.5 + 0.5 * u)
            assert policy.delay(attempt, u) == pytest.approx(legacy)

    def test_delay_caps(self):
        policy = RetryPolicy(base=1.0, cap=3.0, jitter=0.0)
        assert policy.delay(0) == pytest.approx(1.0)
        assert policy.delay(1) == pytest.approx(2.0)
        assert policy.delay(2) == pytest.approx(3.0)
        assert policy.delay(10) == pytest.approx(3.0)

    def test_zero_jitter_ignores_draw(self):
        policy = RetryPolicy(base=0.5, jitter=0.0)
        assert policy.delay(0, 0.0) == policy.delay(0, 0.99)

    def test_should_retry(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(0)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)


def _flaky(failures, error=ServiceUnavailableError):
    """An attempt_fn failing the first ``failures`` tries."""
    calls = []

    def attempt(i):
        calls.append(i)
        if len(calls) <= failures:
            raise error(f"try {i}")
        return "ok"
        yield  # pragma: no cover - generator marker

    return attempt, calls


class TestRetrying:
    def _run(self, sim, gen):
        return sim.run_process(gen)

    def test_retries_then_succeeds(self):
        sim = Simulation()
        attempt, calls = _flaky(2)
        policy = RetryPolicy(base=0.1, max_attempts=4, jitter=0.0)
        result = self._run(
            sim, retrying(sim, attempt, policy, random.Random(0))
        )
        assert result == "ok"
        assert calls == [0, 1, 2]
        # Backoff slept 0.1 then 0.2 sim-seconds.
        assert sim.now == pytest.approx(0.3)

    def test_exhausts_attempts(self):
        sim = Simulation()
        attempt, calls = _flaky(99)
        policy = RetryPolicy(base=0.1, max_attempts=3, jitter=0.0)
        with pytest.raises(ServiceUnavailableError):
            self._run(sim, retrying(sim, attempt, policy, random.Random(0)))
        assert calls == [0, 1, 2, 3]  # initial try + 3 retries

    def test_non_retryable_error_propagates(self):
        sim = Simulation()
        attempt, calls = _flaky(99, error=RevokedError)
        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(RevokedError):
            self._run(sim, retrying(sim, attempt, policy, random.Random(0)))
        assert calls == [0]

    def test_deadline_expired_never_retried(self):
        sim = Simulation()
        attempt, calls = _flaky(99, error=DeadlineExpiredError)
        policy = RetryPolicy(max_attempts=5)
        # DeadlineExpiredError subclasses ServiceUnavailableError but the
        # loop must treat it as terminal.
        with pytest.raises(DeadlineExpiredError):
            self._run(sim, retrying(sim, attempt, policy, random.Random(0)))
        assert calls == [0]

    def test_ctx_deadline_checked_before_attempt(self):
        sim = Simulation()
        attempt, calls = _flaky(99)
        policy = RetryPolicy(base=10.0, max_attempts=10, jitter=0.0)
        ctx = OpContext(sim, "read", deadline=1.0)
        with pytest.raises(DeadlineExpiredError):
            self._run(
                sim,
                retrying(sim, attempt, policy, random.Random(0), ctx=ctx),
            )
        # One failed attempt, then the backoff sleep was clamped to the
        # remaining budget and expiry surfaced before a second attempt.
        assert calls == [0]
        assert sim.now == pytest.approx(1.0)

    def test_backoff_never_sleeps_past_deadline(self):
        sim = Simulation()
        attempt, calls = _flaky(1)
        policy = RetryPolicy(base=100.0, max_attempts=4, jitter=0.0)
        ctx = OpContext(sim, "read", deadline=0.5)
        with pytest.raises(DeadlineExpiredError):
            self._run(
                sim,
                retrying(sim, attempt, policy, random.Random(0), ctx=ctx),
            )
        assert sim.now == pytest.approx(0.5)

    def test_on_retry_callback(self):
        sim = Simulation()
        attempt, _calls = _flaky(2)
        policy = RetryPolicy(base=0.1, max_attempts=4, jitter=0.0)
        seen = []
        self._run(
            sim,
            retrying(
                sim, attempt, policy, random.Random(0),
                on_retry=lambda a, d: seen.append((a, d)),
            ),
        )
        assert seen == [(0, pytest.approx(0.1)), (1, pytest.approx(0.2))]

    def test_rng_draw_order_preserved(self):
        """The loop draws exactly one uniform per retry, in order."""
        sim = Simulation()
        attempt, _calls = _flaky(2)
        policy = RetryPolicy(base=0.1, cap=4.0, max_attempts=4, jitter=0.5)
        rng = random.Random(42)
        expected = random.Random(42)
        expected_delays = [
            min(4.0, 0.1 * (2.0 ** a)) * (0.5 + 0.5 * expected.random())
            for a in range(2)
        ]
        self._run(sim, retrying(sim, attempt, policy, rng))
        assert sim.now == pytest.approx(sum(expected_delays))
