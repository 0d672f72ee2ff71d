"""Content-addressed result cache for verification feedback.

Feedback is a pure function of ``(scenario, canonical response text, feedback
mode, feedback configuration, specification set)`` — the controller built from
a response and the world model it is checked against are both deterministic.
The cache therefore keys entries by a SHA-256 digest of exactly those inputs
and evicts least-recently-used entries past a size bound.  A
:class:`CacheDirectory` of per-fingerprint JSON shards (written via
:mod:`repro.utils.serialization`) is the one way a warm cache survives across
runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.utils.retry import RetryPolicy, call_with_retry
from repro.utils.serialization import dump_json_atomic, load_json

#: Bump when the key layout changes so stale persisted caches are ignored.
CACHE_SCHEMA_VERSION = 1

#: Backoff between compaction-lock acquisition attempts: a takeover that wins
#: the rename-aside claim still has to win the fresh ``O_EXCL`` create, and a
#: holder observed releasing between ``open`` and ``stat`` deserves one more
#: look — both retry once, after a short fixed pause (no jitter: the rename
#: already arbitrates races, so determinism wins over spread).
COMPACTION_LOCK_RETRY = RetryPolicy(
    max_attempts=2, base_delay=0.01, multiplier=1.0, max_delay=0.01, jitter=0.0
)


class _LockContended(Exception):
    """Internal: the compaction lock is worth one more acquisition attempt."""


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
    parts = {
        "version": __version__,
        "mode": "empirical" if feedback.use_empirical else "formal",
        "wait_action": feedback.wait_action,
        "restart_on_termination": feedback.restart_on_termination,
        "empirical_traces": feedback.empirical_traces if feedback.use_empirical else None,
        "empirical_threshold": feedback.empirical_threshold if feedback.use_empirical else None,
        "seed": seed if feedback.use_empirical else None,
        "specifications": specs,
    }
    return json.dumps(parts, sort_keys=True)


def model_digest(model) -> str:
    """Digest of a world model's structure (states, labels, transitions).

    Part of the cache key so that editing a scenario model — or supplying a
    custom ``model_builder`` — cannot make a persisted cache serve scores
    computed against the old model.
    """
    payload = json.dumps(
        {
            "name": model.name,
            "states": sorted(model.states),
            "labels": {state: sorted(model.label(state)) for state in model.states},
            "transitions": sorted(model.transitions()),
            "initial": sorted(model.initial_states),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of a :class:`FeedbackCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_entries: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class FeedbackCache:
    """LRU-bounded mapping from cache key to feedback score."""

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """The cached score for ``key`` (refreshing recency), or None."""
        if key not in self._entries:
            self._misses += 1
            return None
        self._hits += 1
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: str, score) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = score
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            max_entries=self.max_entries,
        )

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> list:
        """``[key, score]`` pairs in recency order (least recent first)."""
        return [[key, score] for key, score in self._entries.items()]

    def merge(self, entries) -> int:
        """Fold ``[key, score]`` pairs in without touching hit/miss counters.

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

    * a missing, corrupt or stale-schema shard loads as an *empty* cache —
      never a partial one;
    * in-flight ``*.tmp.<pid>`` files and advisory ``*.lock`` files are never
      read as shards;
    * a shard whose recorded fingerprint does not match the requester's
      (digest-prefix collision, hand-edited file) is ignored.

    Long-lived directories are bounded by :meth:`compact`: shards are trimmed
    to an entry budget (newest entries win), whole shards are evicted oldest-
    write-first past a byte budget, and the lock/tmp litter that ``store``'s
    atomic writes can leave behind is swept up.  ``FeedbackService.flush()``
    runs it automatically when ``ServingConfig.shared_cache_max_entries`` /
    ``shared_cache_max_bytes`` are set.
    """

    #: Hex digits of the fingerprint digest used as the shard file name.
    DIGEST_PREFIX = 16

    #: Directory-level compaction lock file (never a shard, never swept while fresh).
    COMPACT_LOCK_NAME = "compact.lock"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def shard_path(self, fingerprint: str) -> Path:
        """Where ``fingerprint``'s shard lives: ``<sha256-prefix>.json``."""
        digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        return self.root / f"{digest[: self.DIGEST_PREFIX]}.json"

    # ------------------------------------------------------------------ #
    def load(self, fingerprint: str, *, max_entries: int = 4096) -> FeedbackCache:
        """The shard for ``fingerprint`` as a cache; empty when unusable."""
        cache = FeedbackCache(max_entries=max_entries)
        cache.merge(self.shard_entries(fingerprint))
        return cache

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

        Empty when the shard is missing, corrupt, stale-schema, or records a
        different fingerprint — never a partial result.  Unlike :meth:`load`,
        no LRU bound is applied, so callers merging into an arbitrarily sized
        cache see every entry.
        """
        path = self.shard_path(fingerprint)
        try:
            payload = load_json(path)
            if (
                payload.get("schema") == CACHE_SCHEMA_VERSION
                and payload.get("fingerprint") == fingerprint
            ):
                return [entry for entry in payload.get("entries", []) if len(entry) == 2]
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

    def _directory_bytes(self) -> int:
        """Total size of the surviving shards, tolerant of concurrent eviction."""
        total = 0
        for shard in self.shard_files():
            try:
                total += shard.stat().st_size
            except OSError:
                continue
        return total

    # ------------------------------------------------------------------ #
    def _try_acquire_compaction_lock(self, stale_after: float, *, sleep=time.sleep) -> bool:
        """Atomically claim the directory-wide compaction lock, or report busy.

        The lock is a file created with ``O_CREAT | O_EXCL`` (atomic on every
        platform), holding the owner's pid and start time for debuggability.
        If the file already exists, the holder is presumed live and this
        process *skips* compaction — unless the lock's mtime is older than
        ``stale_after`` seconds, in which case the holder is presumed dead
        (crashed mid-compaction) and the lock is taken over via
        :meth:`_takeover_stale_lock`: an atomic rename-aside claim that
        exactly one of several racing takeover attempts can win, followed by
        one fresh ``O_EXCL`` attempt.  Retry timing (one extra attempt, after
        a short pause) is :data:`COMPACTION_LOCK_RETRY` driven through the
        shared :func:`repro.utils.retry.call_with_retry`; ``sleep`` is
        injectable so tests assert the backoff without waiting it out.
        """
        try:
            return call_with_retry(
                lambda: self._attempt_compaction_lock(stale_after),
                policy=COMPACTION_LOCK_RETRY,
                retry_on=(_LockContended,),
                sleep=sleep,
            )
        except _LockContended:
            return False  # still contended after the policy's attempts: busy

    def _attempt_compaction_lock(self, stale_after: float) -> bool:
        """One acquisition attempt: True (held), False (live holder — give
        up), or :class:`_LockContended` (a retry may succeed)."""
        lock = self.root / self.COMPACT_LOCK_NAME
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                raise _LockContended("holder released between open and stat") from None
            if age <= stale_after:
                return False  # a live process is compacting; skip this round
            if not self._takeover_stale_lock(lock, stale_after):
                return False
            raise _LockContended("stale lock taken over; re-attempt the create")
        try:
            os.write(fd, self._lock_owner_tag())
        finally:
            os.close(fd)
        return True

    def _lock_owner_tag(self) -> bytes:
        """This process's identity, written into the lock it holds."""
        return f"pid={os.getpid()}\n".encode()

    def _touch_compaction_lock(self) -> None:
        """Refresh the held lock's mtime — a lease renewal.

        Called between compaction passes (and per shard inside the trim
        loop), so a legitimately long-running compaction keeps its lock
        fresh and cannot be mistaken for a crashed holder by another
        process's staleness check.
        """
        try:
            os.utime(self.root / self.COMPACT_LOCK_NAME)
        except OSError:
            pass

    def _takeover_stale_lock(self, lock: Path, stale_after: float) -> bool:
        """Claim a stale lock without ever deleting a live one.

        The stale file is *renamed* to a private name — an atomic claim only
        one of several racing takeover attempts can win — and then re-checked:
        if the renamed file turns out to be fresh (the stale lock was replaced
        by a new holder between our staleness check and the rename), the live
        holder's file is restored via ``os.link`` (same inode, so its own
        release still works; the link fails harmlessly if a third process
        already re-created the lock) and the takeover backs off.
        """
        claimed = lock.with_name(f"{lock.name}.stale.{os.getpid()}")
        try:
            os.rename(lock, claimed)
        except OSError:
            return False  # a concurrent takeover won the rename
        try:
            stole_live_lock = time.time() - claimed.stat().st_mtime <= stale_after
        except OSError:
            stole_live_lock = False
        if stole_live_lock:
            try:
                os.link(claimed, lock)
            except OSError:
                pass
            claimed.unlink(missing_ok=True)
            return False
        claimed.unlink(missing_ok=True)
        return True

    def _release_compaction_lock(self) -> None:
        """Drop the directory-wide compaction lock (best-effort).

        Only a lock this process still owns is unlinked: if the lock went
        stale anyway and another process took it over, the file now carries
        the new owner's pid and must not be deleted out from under it.
        """
        lock = self.root / self.COMPACT_LOCK_NAME
        try:
            if lock.read_bytes() == self._lock_owner_tag():
                lock.unlink(missing_ok=True)
        except OSError:
            pass

    def compact(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        tmp_grace_seconds: float = 3600.0,
        stale_lock_seconds: float = 600.0,
    ) -> "CompactionReport":
        """Bound the directory's size and sweep up ``store``'s litter.

        Compaction is coordinated *across processes* by a directory-level
        lock (``compact.lock``, created atomically with ``O_EXCL``): two
        services flushing the same ``shared_cache_dir`` can never evict or
        rewrite shards concurrently.  A process that finds the lock held
        skips compaction for this round — the holder is already doing the
        work — and returns a report with ``skipped=True``; a lock older than
        ``stale_lock_seconds`` is presumed to belong to a crashed process and
        is taken over.

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
           ``tmp_grace_seconds``.  The grace window keeps the sweep from
           racing a live ``store``: a brand-new fingerprint's lock exists
           before its shard does, but it was also created (fresh mtime)
           moments ago.

        Either bound may be ``None`` (unbounded); the sweep always runs.
        Returns a :class:`CompactionReport` of what was done.
        """
        if not self._try_acquire_compaction_lock(stale_lock_seconds):
            return CompactionReport(skipped=True, total_bytes=self._directory_bytes())
        try:
            return self._compact_locked(
                max_entries=max_entries,
                max_bytes=max_bytes,
                tmp_grace_seconds=tmp_grace_seconds,
            )
        finally:
            self._release_compaction_lock()

    def _compact_locked(
        self,
        *,
        max_entries: int | None,
        max_bytes: int | None,
        tmp_grace_seconds: float,
    ) -> "CompactionReport":
        """The trim/evict/sweep passes, run under the directory lock."""
        trimmed = evicted = removed_locks = removed_tmp = 0

        if max_entries is not None:
            for shard in self.shard_files():
                self._touch_compaction_lock()  # lease renewal per shard
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
            self._touch_compaction_lock()
            shards = self.shard_files()
            sizes = {shard: shard.stat().st_size for shard in shards}
            total = sum(sizes.values())
            for shard in shards:  # oldest write first
                if total <= max_bytes:
                    break
                try:
                    shard.unlink(missing_ok=True)
                except OSError:
                    continue
                total -= sizes[shard]
                evicted += 1

        self._touch_compaction_lock()
        now = time.time()
        surviving = {shard.name for shard in self.shard_files()}
        for lock in self.root.glob("*.lock"):
            if lock.name == self.COMPACT_LOCK_NAME:
                continue  # the directory lock this very pass is holding
            try:
                if (
                    lock.name[: -len(".lock")] not in surviving
                    and now - lock.stat().st_mtime > tmp_grace_seconds
                ):
                    lock.unlink(missing_ok=True)
                    removed_locks += 1
            except OSError:
                continue
        for tmp in self.root.glob("*.tmp.*"):
            try:
                if now - tmp.stat().st_mtime > tmp_grace_seconds:
                    tmp.unlink(missing_ok=True)
                    removed_tmp += 1
            except OSError:
                continue
        # Rename-aside claims from crashed takeover attempts are litter too.
        for stale_claim in self.root.glob(f"{self.COMPACT_LOCK_NAME}.stale.*"):
            try:
                if now - stale_claim.stat().st_mtime > tmp_grace_seconds:
                    stale_claim.unlink(missing_ok=True)
                    removed_locks += 1
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

    ``skipped`` is True when another live process held the directory's
    compaction lock, so this call did nothing but measure the current size.
    """

    trimmed_shards: int = 0
    evicted_shards: int = 0
    removed_lock_files: int = 0
    removed_tmp_files: int = 0
    total_bytes: int = 0
    skipped: bool = False
