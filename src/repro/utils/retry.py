"""Capped, jittered exponential backoff — the one retry policy in the tree.

The job daemon re-runs a verification attempt that raised: try, wait a
growing bounded delay, try again, give up after a fixed number of attempts.
The policy lives here, with every time source injectable:

* ``sleep`` is a parameter, so tests retry instantly;
* jitter comes from a caller-supplied ``random.Random`` (``None`` disables
  it), so retried runs stay deterministic unless the caller opts into
  spreading contending processes apart.

:class:`RetryPolicy` is pure arithmetic (attempt number → delay);
:func:`call_with_retry` is the driver loop around a callable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try and how long to wait between attempts.

    Parameters
    ----------
    max_attempts:
        Total attempts, including the first (``1`` means "no retries").
    base_delay:
        Delay in seconds after the first failed attempt.
    multiplier:
        Exponential growth factor applied per subsequent failure.
    max_delay:
        Cap on any single delay, applied before jitter.
    jitter:
        Fraction of the delay drawn uniformly from ``[-jitter, +jitter]``
        and applied multiplicatively — ``0.1`` spreads delays ±10 % so
        contending processes do not retry in lockstep.  Only applied when
        the caller passes an ``rng``; without one delays are exact.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be non-negative, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be >= base_delay ({self.base_delay})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    # ------------------------------------------------------------------ #
    def delay(self, failures: int, rng=None) -> float:
        """The wait after ``failures`` failed attempts (1-based), in seconds.

        ``base_delay * multiplier**(failures-1)``, capped at ``max_delay``,
        then jittered ±``jitter`` when an ``rng`` (a ``random.Random``) is
        supplied.
        """
        if failures <= 0:
            raise ValueError(f"failures must be positive, got {failures}")
        raw = min(self.base_delay * self.multiplier ** (failures - 1), self.max_delay)
        if rng is not None and self.jitter:
            raw *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return raw

    def delays(self, rng=None) -> list:
        """Every inter-attempt delay the policy would produce, in order.

        ``max_attempts - 1`` entries: attempt *k*'s failure is followed by
        ``delays()[k-1]`` seconds of backoff.  Useful for logging a policy's
        worst-case wait up front.
        """
        return [self.delay(failure, rng) for failure in range(1, self.max_attempts)]


def call_with_retry(
    fn,
    *,
    policy: RetryPolicy,
    retry_on: tuple = (Exception,),
    sleep=time.sleep,
    rng=None,
    on_retry=None,
):
    """Call ``fn()`` under ``policy``, backing off between failed attempts.

    Exceptions matching ``retry_on`` trigger a retry until the policy's
    ``max_attempts`` are spent, at which point the last exception propagates
    unchanged; any other exception propagates immediately.  ``sleep`` and
    ``rng`` are injectable for tests and for deterministic daemons;
    ``on_retry(failures, exc, delay)`` — when supplied — is invoked *before*
    each backoff sleep, which is where the job daemon journals its
    ``RETRYING`` transition and the caller can count retries.
    """
    failures = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            failures += 1
            if failures >= policy.max_attempts:
                raise
            wait = policy.delay(failures, rng)
            if on_retry is not None:
                on_retry(failures, exc, wait)
            sleep(wait)
