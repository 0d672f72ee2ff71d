"""The feedback service's in-memory result cache.

Within one :class:`~repro.serving.scheduler.FeedbackService`, a score is a
pure function of ``(scenario, canonical response text)``: the specifications,
the feedback mode and the seed are fixed for the service's lifetime, and
:class:`~repro.serving.scheduler.ResponseScorer` builds each scenario's world
model once.  So :func:`cache_key` keys on the scenario and a SHA-256 digest of
the canonical text, and :class:`FeedbackCache` evicts least-recently-used
entries past a size bound.  Nothing is persisted.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict


def cache_key(scenario: str, canonical_response: str) -> tuple:
    """Address of one feedback result within a service: ``(scenario, digest)``.

    The digest has a fixed 32 bytes, so a bounded cache stays bounded in
    memory however long the responses are.
    """
    return scenario, hashlib.sha256(canonical_response.encode("utf-8")).digest()


class FeedbackCache:
    """LRU-bounded mapping from cache key to feedback score.

    Hits and misses are counted by the service that looks keys up
    (:class:`~repro.serving.metrics.ServingMetrics`), not here.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached score for ``key`` (refreshing recency), or None."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key, score) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = score
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
