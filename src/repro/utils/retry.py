"""Capped exponential backoff — the one retry policy in the tree.

The job daemon re-runs a verification attempt that raised: try, wait a
growing bounded delay, try again, give up after a fixed number of attempts.
The waits are fixed — :data:`BASE_DELAY` after the first failure, growing
by :data:`MULTIPLIER` per further failure up to :data:`MAX_DELAY` — and
``sleep`` is a parameter, so tests retry instantly.

:class:`RetryPolicy` is pure arithmetic (attempt number → delay);
:func:`call_with_retry` is the driver loop around a callable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Delay in seconds after the first failed attempt.
BASE_DELAY = 0.05
#: Growth factor of the delay per further failed attempt.
MULTIPLIER = 2.0
#: Cap in seconds on any single delay.
MAX_DELAY = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try; the waits between attempts are fixed.

    Parameters
    ----------
    max_attempts:
        Total attempts, including the first (``1`` means "no retries").
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")

    # ------------------------------------------------------------------ #
    def delay(self, failures: int) -> float:
        """The wait after ``failures`` failed attempts (1-based), in seconds.

        ``BASE_DELAY * MULTIPLIER**(failures-1)``, capped at ``MAX_DELAY``.
        """
        if failures <= 0:
            raise ValueError(f"failures must be positive, got {failures}")
        return min(BASE_DELAY * MULTIPLIER ** (failures - 1), MAX_DELAY)


def call_with_retry(
    fn,
    *,
    policy: RetryPolicy,
    retry_on: tuple = (Exception,),
    sleep=time.sleep,
    on_retry=None,
):
    """Call ``fn()`` under ``policy``, backing off between failed attempts.

    Exceptions matching ``retry_on`` trigger a retry until the policy's
    ``max_attempts`` are spent, at which point the last exception propagates
    unchanged; any other exception propagates immediately.  ``sleep`` is
    injectable for tests; ``on_retry(failures, exc, delay)`` — when
    supplied — is invoked *before* each backoff sleep, which is where the
    job daemon journals its ``RETRYING`` transition and the caller can count
    retries.
    """
    failures = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            failures += 1
            if failures >= policy.max_attempts:
                raise
            wait = policy.delay(failures)
            if on_retry is not None:
                on_retry(failures, exc, wait)
            sleep(wait)
