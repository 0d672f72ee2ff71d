"""Configuration of the feedback-serving subsystem.

Lives inside :mod:`repro.serving` (rather than :mod:`repro.core.config`) so
the serving package has no import-time dependency on the pipeline layer.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Supported worker-pool backends for scoring cache misses.
BACKENDS: tuple = ("serial", "process")

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
    backend:
        ``"serial"`` (the default and the bitwise reference) scores cache
        misses inline; ``"process"`` fans them out to a persistent
        ``ProcessPoolExecutor`` whose workers rebuild the verification stack
        once per process — true multi-core parallelism for the GIL-bound
        verification work.  Both produce identical, input-order results.
    max_workers:
        Pool width for the ``"process"`` backend.
    """

    enabled: bool = True
    cache_size: int = 4096
    backend: str = "serial"
    max_workers: int = 4

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown serving backend {self.backend!r}; known: {BACKENDS}")
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {self.cache_size}")
        if self.max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
