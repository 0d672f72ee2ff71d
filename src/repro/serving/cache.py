"""Content-addressed result cache for verification feedback.

Feedback is a pure function of ``(scenario, canonical response text, feedback
mode, feedback configuration, specification set)`` — the controller built from
a response and the world model it is checked against are both deterministic.
The cache therefore keys entries by a SHA-256 digest of exactly those inputs,
plus the world model's :func:`~repro.modelcheck.fastpath.model_fingerprint`,
and evicts least-recently-used entries past a size bound.  A
:class:`CacheDirectory` of per-fingerprint JSON shards (written via
:mod:`repro.utils.serialization`) is the one way a warm cache survives across
runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.serving.config import EMPIRICAL_THRESHOLD, EMPIRICAL_TRACES
from repro.utils.serialization import dump_json_atomic, load_json

#: Bump when the key layout changes so stale persisted caches are ignored.
CACHE_SCHEMA_VERSION = 1

#: Age in seconds before compaction sweeps a tmp or orphaned lock file.
TMP_GRACE_SECONDS = 3600.0


def feedback_fingerprint(feedback, specifications: Mapping, *, seed: int = 0) -> str:
    """Canonical string identifying one feedback configuration.

    Covers everything besides the response/scenario that can change a score:
    the feedback mode and its parameters, the empirical seed, the full
    specification set (names *and* formulas — two rule books sharing a name
    must not share cache entries), and the package version, so persisted
    caches are invalidated when the scoring machinery itself (parser,
    lexicon, checker) changes across releases.
    """
    from repro import __version__

    specs = sorted(f"{name}={formula}" for name, formula in specifications.items())
    # Shard file names hash this JSON.  The controller's wait action and
    # restart convention are fixed, but their keys stay, at their one value,
    # so every shard written with them keeps its name and its entries.
    parts = {
        "version": __version__,
        "mode": "empirical" if feedback.use_empirical else "formal",
        "wait_action": "stop",
        "restart_on_termination": True,
        "empirical_traces": EMPIRICAL_TRACES if feedback.use_empirical else None,
        "empirical_threshold": EMPIRICAL_THRESHOLD if feedback.use_empirical else None,
        "seed": seed if feedback.use_empirical else None,
        "specifications": specs,
    }
    return json.dumps(parts, sort_keys=True)


def cache_key(scenario: str, canonical_response: str, fingerprint: str, scenario_digest: str = "") -> str:
    """Content address of one feedback result."""
    payload = json.dumps(
        {
            "v": CACHE_SCHEMA_VERSION,
            "scenario": scenario,
            "model": scenario_digest,
            "response": canonical_response,
            "config": fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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

    def get(self, key: str):
        """The cached score for ``key`` (refreshing recency), or None."""
        if key not in self._entries:
            return None
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: str, score) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = score
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def entries(self) -> list:
        """``[key, score]`` pairs in recency order (least recent first)."""
        return [[key, score] for key, score in self._entries.items()]

    def merge(self, entries) -> int:
        """Fold ``[key, score]`` pairs in (a warm start, not a lookup).

        Existing keys keep their current score (the in-memory entry is at
        least as fresh as a persisted one).  Returns the number of new keys
        actually *retained* — a shard larger than ``max_entries`` adopts keys
        that ``put`` immediately evicts again, and those must not inflate the
        warm-start count.
        """
        adopted = []
        for key, score in entries:
            if key not in self._entries:
                self.put(key, score)
                adopted.append(key)
        return sum(1 for key in adopted if key in self._entries)


class CacheDirectory:
    """A directory of per-fingerprint cache shards shared across runs.

    The pipeline, the benchmarks and the ``repro-serve`` CLI can all point at
    the same directory (``ServingConfig.shared_cache_dir``); each distinct
    :func:`feedback_fingerprint` owns one JSON shard named by a prefix of its
    SHA-256 digest, so runs with different feedback configurations never read
    each other's scores.  Shards are written atomically (tmp file +
    ``os.replace``) and merged with whatever a concurrent run already stored,
    so the directory only ever accumulates valid, complete shards:

    * a missing, corrupt or stale-schema shard, or one holding a malformed
      entry, loads as an *empty* cache — never a partial one;
    * in-flight ``*.tmp.<pid>`` files and advisory ``*.lock`` files are never
      read as shards;
    * a shard whose recorded fingerprint does not match the requester's
      (digest-prefix collision, hand-edited file) is ignored.

    Long-lived directories are bounded by :meth:`compact`: shards are trimmed
    to an entry budget (newest entries win), whole shards are evicted oldest-
    write-first past a byte budget, and the lock/tmp litter that ``store``'s
    atomic writes can leave behind is swept up.  ``FeedbackService.flush()``
    runs it automatically when ``ServingConfig.shared_cache_max_entries`` /
    ``shared_cache_max_bytes`` are set.  Both kinds of writer lock with POSIX
    ``flock``: ``store`` on the shard's ``*.lock`` file, ``compact`` on the
    directory's ``compact.lock``.
    """

    #: Hex digits of the fingerprint digest used as the shard file name.
    DIGEST_PREFIX = 16

    #: Directory-level compaction lock file (never a shard, never unlinked).
    COMPACT_LOCK_NAME = "compact.lock"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def shard_path(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s shard lives: ``<sha256-prefix>.json``."""
        digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        return self.root / f"{digest[: self.DIGEST_PREFIX]}.json"

    # ------------------------------------------------------------------ #
    def store(self, fingerprint: str, cache: FeedbackCache) -> Path:
        """Merge ``cache`` into the shard for ``fingerprint`` and write it atomically.

        Entries already in the shard (e.g. from a concurrent run with the same
        fingerprint) are kept; ``cache``'s entries win on conflict, though a
        conflict can only disagree if the fingerprint failed to cover some
        scoring input — the invariant the fingerprint exists to maintain.
        The read-merge-write is serialised against concurrent ``store`` calls
        with an advisory lock file (POSIX ``flock``), so two runs flushing the
        same fingerprint both land their entries; without ``fcntl`` (non-POSIX)
        the merge is best-effort and a simultaneous flush may drop the other
        run's new entries — never corrupting the shard, only re-verifying.
        """
        shard = self.shard_path(fingerprint)
        with self._store_lock(shard):
            merged = {key: score for key, score in self.shard_entries(fingerprint)}
            merged.update(dict(cache.entries()))
            payload = {
                "schema": CACHE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "entries": [[key, score] for key, score in merged.items()],
            }
            return dump_json_atomic(payload, shard)

    @contextmanager
    def _store_lock(self, shard: Path):
        """Advisory cross-process lock for one shard's read-merge-write."""
        try:
            import fcntl
        except ImportError:  # non-POSIX: fall back to unserialised best-effort
            yield
            return
        lock_path = shard.with_name(f"{shard.name}.lock")
        with lock_path.open("a") as lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    def shard_entries(self, fingerprint: str) -> list:
        """Raw ``[key, score]`` pairs of the shard for ``fingerprint``.

        Empty when the shard is missing, corrupt, stale-schema, records a
        different fingerprint, or holds any entry that is not a ``[str, int]``
        pair — never a partial result.  No LRU bound is applied, so callers
        merging into an arbitrarily sized cache see every entry.
        """
        path = self.shard_path(fingerprint)
        try:
            payload = load_json(path)
            entries = payload.get("entries", [])
            if (
                payload.get("schema") == CACHE_SCHEMA_VERSION
                and payload.get("fingerprint") == fingerprint
                and isinstance(entries, list)
                and all(
                    isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                    and type(entry[1]) is int  # not isinstance: a bool is never a score
                    for entry in entries
                )
            ):
                return entries
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            pass
        return []

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def shard_files(self) -> list:
        """Every shard file in the directory, oldest write first.

        Only ``*.json`` shards count: the sibling ``*.json.lock`` advisory
        lock files and in-flight ``*.json.tmp.<pid>`` writes are never shards,
        so they can never be loaded, trimmed or mistaken for cached scores.
        A shard deleted concurrently (another process's compaction evicting
        it) is simply dropped from the listing rather than raising.
        """
        stamped = []
        for path in self.root.glob("*.json"):
            if ".tmp." in path.name or path.name.endswith(".lock"):
                continue
            try:
                stamped.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue  # evicted between glob and stat
        return [path for _mtime, _name, path in sorted(stamped)]

    def _shard_sizes(self) -> dict:
        """``{shard: bytes}`` of the surviving shards, oldest write first.

        Like :meth:`shard_files`, tolerant of concurrent eviction: a shard
        removed between the listing and its ``stat`` is left out.
        """
        sizes = {}
        for shard in self.shard_files():
            try:
                sizes[shard] = shard.stat().st_size
            except OSError:
                continue
        return sizes

    def _directory_bytes(self) -> int:
        """Total size of the surviving shards, tolerant of concurrent eviction."""
        return sum(self._shard_sizes().values())

    # ------------------------------------------------------------------ #
    @contextmanager
    def _compaction_lock(self):
        """Take the directory-wide compaction lock; yields whether it is held.

        A non-blocking ``flock`` on ``compact.lock``.  It yields False when
        another holder has the lock: another process, or another open of the
        file in this one (``flock`` locks each open file description, so two
        threads exclude each other too).  The kernel drops the lock when its
        holder exits, crashed or not, so a dead compactor never blocks the
        next one and a live one is never taken over.  The file is never
        unlinked: a later opener would lock a fresh inode beside a live
        holder.  Without ``fcntl`` (non-POSIX) it always yields False, so
        compaction never runs unlocked.
        """
        try:
            import fcntl
        except ImportError:
            yield False
            return
        with (self.root / self.COMPACT_LOCK_NAME).open("a") as lock_file:
            try:
                fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    def compact(
        self, *, max_entries: int | None = None, max_bytes: int | None = None
    ) -> "CompactionReport":
        """Bound the directory's size and sweep up ``store``'s litter.

        One compactor runs at a time, across processes and threads: the
        passes run under :meth:`_compaction_lock`, a non-blocking ``flock``
        on ``compact.lock``.  A call that finds the lock held skips this
        round — the holder is already doing the work — and returns a report
        with ``skipped=True``.  The lock is released when its holder exits,
        so a crashed compactor never blocks the next call.  Without
        ``fcntl`` (non-POSIX) every call is skipped; ``store`` still works.

        Three passes then run, each independently best-effort (a shard
        another process is rewriting concurrently is simply skipped this
        round):

        1. *Trim*: every shard with more than ``max_entries`` entries is
           rewritten (atomically, under the same advisory lock ``store``
           takes) keeping only its **newest** ``max_entries`` entries — shard
           entries are persisted oldest-first, so the front of the list is
           the eviction end, mirroring the in-memory LRU.
        2. *Evict*: while the shards' total size exceeds ``max_bytes``, whole
           shards are deleted oldest-write-first.  Their lock files are left
           for the sweep: unlinking a lock another process currently holds
           would let a third process acquire a fresh inode and break the
           shard's mutual exclusion.
        3. *Sweep*: ``*.tmp.<pid>`` files (crashed writers) and orphaned
           ``*.lock`` files (no surviving shard — ``store`` creates locks it
           never deletes) are removed, both only once older than
           :data:`TMP_GRACE_SECONDS`.  The grace window keeps the sweep from
           racing a live ``store``: a brand-new fingerprint's lock exists
           before its shard does, but it was also created (fresh mtime)
           moments ago.  ``compact.lock`` itself is never swept.

        Either bound may be ``None`` (unbounded); the sweep always runs.
        Returns a :class:`CompactionReport` of what was done.
        """
        with self._compaction_lock() as held:
            if not held:
                return CompactionReport(skipped=True, total_bytes=self._directory_bytes())
            return self._compact_locked(max_entries=max_entries, max_bytes=max_bytes)

    def _compact_locked(
        self, *, max_entries: int | None, max_bytes: int | None
    ) -> "CompactionReport":
        """The trim/evict/sweep passes, run under the directory lock."""
        trimmed = evicted = removed_locks = removed_tmp = 0

        if max_entries is not None:
            for shard in self.shard_files():
                try:
                    with self._store_lock(shard):
                        payload = load_json(shard)
                        entries = payload.get("entries", [])
                        if (
                            payload.get("schema") == CACHE_SCHEMA_VERSION
                            and isinstance(entries, list)
                            and len(entries) > max_entries
                        ):
                            payload["entries"] = entries[len(entries) - max_entries :]
                            dump_json_atomic(payload, shard)
                            trimmed += 1
                except (OSError, ValueError, KeyError, TypeError, AttributeError):
                    continue

        if max_bytes is not None:
            sizes = self._shard_sizes()
            total = sum(sizes.values())
            for shard in sizes:  # oldest write first
                if total <= max_bytes:
                    break
                try:
                    shard.unlink(missing_ok=True)
                except OSError:
                    continue
                total -= sizes[shard]
                evicted += 1

        now = time.time()
        surviving = {shard.name for shard in self.shard_files()}
        for lock in self.root.glob("*.lock"):
            if lock.name == self.COMPACT_LOCK_NAME:
                continue  # the directory lock; never unlinked
            try:
                if (
                    lock.name[: -len(".lock")] not in surviving
                    and now - lock.stat().st_mtime > TMP_GRACE_SECONDS
                ):
                    lock.unlink(missing_ok=True)
                    removed_locks += 1
            except OSError:
                continue
        for tmp in self.root.glob("*.tmp.*"):
            try:
                if now - tmp.stat().st_mtime > TMP_GRACE_SECONDS:
                    tmp.unlink(missing_ok=True)
                    removed_tmp += 1
            except OSError:
                continue
        return CompactionReport(
            trimmed_shards=trimmed,
            evicted_shards=evicted,
            removed_lock_files=removed_locks,
            removed_tmp_files=removed_tmp,
            total_bytes=self._directory_bytes(),
        )


@dataclass(frozen=True)
class CompactionReport:
    """What one :meth:`CacheDirectory.compact` pass did.

    ``skipped`` is True when the directory's compaction lock was held
    elsewhere (or ``fcntl`` is missing), so this call did nothing but measure
    the current size.
    """

    trimmed_shards: int = 0
    evicted_shards: int = 0
    removed_lock_files: int = 0
    removed_tmp_files: int = 0
    total_bytes: int = 0
    skipped: bool = False
