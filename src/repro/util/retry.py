"""Shared retry policy: exponential backoff with seeded jitter.

One policy object holds the cluster client's backoff.  The delay math
is exactly the legacy cluster formula so extraction changes no
simulated timeline:

    delay = min(cap, base * 2**attempt) * (0.5 + 0.5 * u)

with ``u`` drawn from the caller's seeded RNG — the jitter *source*
stays with the caller so determinism (and RNG call order) is preserved.

:func:`retrying` is the generator-shaped loop the cluster client
drives; it honours an optional :class:`~repro.core.context.OpContext`
(a deadline check before every attempt, and no backoff sleep past the
deadline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.errors import DeadlineExpiredError, ServiceUnavailableError

__all__ = ["RetryPolicy", "retrying"]


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff shape: base delay, cap, attempt limit, jitter fraction.

    ``jitter`` is the fraction of each delay that is randomised:
    ``delay * ((1 - jitter) + jitter * u)`` for ``u ~ U[0, 1)``.  The
    default ``0.5`` reproduces the legacy cluster behaviour
    (``0.5 + 0.5 * u``); ``0.0`` disables jitter entirely.
    """

    base: float = 0.25
    cap: float = 4.0
    max_attempts: int = 4
    jitter: float = 0.5

    def should_retry(self, attempt: int) -> bool:
        """May the caller retry after ``attempt`` failed tries?"""
        return attempt < self.max_attempts

    def delay(self, attempt: int, u: float = 1.0) -> float:
        """Backoff delay before retry number ``attempt + 1``.

        ``u`` is the caller-supplied uniform draw (pass
        ``rng.random()``); with the default jitter this is exactly the
        legacy ``min(cap, base * 2**attempt) * (0.5 + 0.5 * u)``.
        """
        raw = min(self.cap, self.base * (2.0 ** attempt))
        return raw * ((1.0 - self.jitter) + self.jitter * u)


def retrying(
    sim: Any,
    attempt_fn: Callable[[int], Generator],
    policy: RetryPolicy,
    rng: Any,
    retry_on: tuple = (ServiceUnavailableError,),
    ctx: Any = None,
    on_retry: Optional[Callable[[int, float], None]] = None,
) -> Generator:
    """Run ``yield from attempt_fn(attempt)`` under ``policy``.

    Retries on ``retry_on`` exceptions, except that an end-to-end
    :class:`DeadlineExpiredError` always propagates — a spent deadline
    must fail the operation, not burn more attempts.  When ``ctx``
    is given, its deadline is checked before every attempt.
    ``on_retry(attempt, delay)`` fires before each backoff sleep.
    """
    attempt = 0
    while True:
        if ctx is not None:
            ctx.check("retry loop")
        try:
            result = yield from attempt_fn(attempt)
            return result
        except retry_on as exc:
            if isinstance(exc, DeadlineExpiredError):
                raise
            if not policy.should_retry(attempt):
                raise
            delay = policy.delay(attempt, rng.random())
            if ctx is not None:
                # Never sleep past the deadline; the check at the top
                # of the next iteration turns expiry into a uniform
                # DeadlineExpiredError.
                delay = min(delay, max(0.0, ctx.remaining()))
            if on_retry is not None:
                on_retry(attempt, delay)
            attempt += 1
            yield sim.timeout(delay)
