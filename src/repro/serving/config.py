"""Configuration of the feedback-serving subsystem.

Lives inside :mod:`repro.serving` (rather than :mod:`repro.core.config`) so
the serving package has no import-time dependency on the pipeline layer; the
core config re-exports :class:`ServingConfig` for callers assembling a
:class:`~repro.core.config.PipelineConfig`.
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
        match.  The verifier's verdict cache
        (:class:`~repro.feedback.formal.FormalVerifier`) still answers
        repeated controller structures.
    cache_size:
        LRU bound on the result cache (entries are a hash key plus an int).
    backend:
        ``"serial"`` (the default and the bitwise reference) scores cache
        misses inline; ``"process"`` fans them out to a persistent
        ``ProcessPoolExecutor`` whose workers rebuild the verification stack
        once per process — true multi-core parallelism for the GIL-bound
        verification work.  Both produce identical, input-order results.
    max_workers:
        Pool width for the ``"process"`` backend.
    shared_cache_dir:
        Optional directory of per-fingerprint cache shards
        (:class:`~repro.serving.cache.CacheDirectory`) shared between the
        pipeline, the benchmarks and the ``repro-serve`` CLI.  At startup the
        service warm-starts from the shard matching its feedback fingerprint;
        ``flush()`` merges its results back.
    shared_cache_max_entries:
        Optional per-shard entry bound for the shared cache directory.  When
        set, ``flush()`` compacts the directory
        (:meth:`~repro.serving.cache.CacheDirectory.compact`), trimming every
        shard to its newest ``shared_cache_max_entries`` entries so long-lived
        directories stop growing without bound.
    shared_cache_max_bytes:
        Optional total-size bound (bytes) for the shared cache directory.
        When set, ``flush()``-time compaction evicts whole shards, least
        recently written first, until the directory fits.  Composes with
        ``shared_cache_max_entries`` (entries are trimmed before shards are
        evicted); either, both or neither may be set.
    """

    enabled: bool = True
    cache_size: int = 4096
    backend: str = "serial"
    max_workers: int = 4
    shared_cache_dir: str | None = None
    shared_cache_max_entries: int | None = None
    shared_cache_max_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown serving backend {self.backend!r}; known: {BACKENDS}")
        if self.cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {self.cache_size}")
        if self.max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
        if self.shared_cache_max_entries is not None and self.shared_cache_max_entries <= 0:
            raise ValueError(
                f"shared_cache_max_entries must be positive, got {self.shared_cache_max_entries}"
            )
        if self.shared_cache_max_bytes is not None and self.shared_cache_max_bytes <= 0:
            raise ValueError(
                f"shared_cache_max_bytes must be positive, got {self.shared_cache_max_bytes}"
            )
        if self.shared_cache_dir is None and (
            self.shared_cache_max_entries is not None or self.shared_cache_max_bytes is not None
        ):
            # A bound with nothing to bound would be silently ignored; surface
            # the misconfiguration instead of letting the user believe their
            # cache directory is capped.
            raise ValueError(
                "shared_cache_max_entries/shared_cache_max_bytes require shared_cache_dir"
            )
