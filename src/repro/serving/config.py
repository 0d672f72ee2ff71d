"""Configuration of the feedback-serving subsystem.

Lives inside :mod:`repro.serving` (rather than :mod:`repro.core.config`) so
the serving package has no import-time dependency on the pipeline layer.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Empirical mode: simulator traces collected per response, and the share of
#: them a specification must hold on to count as satisfied.
EMPIRICAL_TRACES = 10
EMPIRICAL_THRESHOLD = 0.9


@dataclass(frozen=True)
class ServingConfig:
    """How batched feedback scoring is executed.

    Parameters
    ----------
    enabled:
        When False the service scores every job serially with no service
        cache and no dedup — the bitwise reference path the cached path must
        match.  The verdict cache of the verifier's checker
        (:meth:`~repro.modelcheck.checker.ModelChecker.verdicts`) still
        answers repeated controller structures.
    cache_size:
        LRU bound on the result cache (each entry is a scenario name, a
        32-byte digest and an int).
    max_workers:
        Has no effect: every miss is scored inline on the calling thread.
        Kept only because the committed benchmark (``perfbench``) still sets
        it; it goes with that benchmark's next revision.
    """

    enabled: bool = True
    cache_size: int = 4096
    max_workers: int = 4

    def __post_init__(self) -> None:
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {self.cache_size}")
