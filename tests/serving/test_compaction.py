"""Compaction / eviction tests for the shared cache directory.

The contract under test: :meth:`CacheDirectory.compact` trims each shard to
its *newest* entries, evicts whole shards least-recently-written first under
a byte budget, sweeps the lock/tmp litter ``store`` can leave behind, never mistakes a lock
or tmp file for a shard, and runs one compactor at a time — and
``FeedbackService.flush`` runs it automatically when the ``ServingConfig``
bounds are set.
"""

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.serving import (
    CacheDirectory,
    FeedbackCache,
    FeedbackJob,
    FeedbackService,
    ServingConfig,
)


def _store_numbered_shard(directory: CacheDirectory, fingerprint: str, count: int) -> None:
    cache = FeedbackCache()
    for index in range(count):
        cache.put(f"{fingerprint}-key-{index}", index)
    directory.store(fingerprint, cache)


class TestShardTrimming:
    def test_trim_keeps_newest_entries(self, tmp_path):
        """Eviction order inside a shard: oldest-written entries go first."""
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        report = directory.compact(max_entries=3)
        assert report.trimmed_shards == 1
        survivors = dict(directory.shard_entries("fp"))
        assert survivors == {f"fp-key-{i}": i for i in (7, 8, 9)}

    def test_trim_is_idempotent_under_the_bound(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 3)
        assert directory.compact(max_entries=5).trimmed_shards == 0
        assert len(directory.shard_entries("fp")) == 3

    def test_trimmed_shard_still_warm_starts(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 8)
        directory.compact(max_entries=4)
        cache = FeedbackCache()
        assert cache.merge(directory.shard_entries("fp")) == 4
        assert cache.get("fp-key-7") == 7


class TestShardEviction:
    def test_evicts_least_recently_written_shards_first(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        for index in range(4):
            _store_numbered_shard(directory, f"fp{index}", 10)
            # Deterministic write order regardless of filesystem timestamp
            # granularity.
            stamp = 1_000_000 + index
            os.utime(directory.shard_path(f"fp{index}"), (stamp, stamp))
        shard_size = directory.shard_path("fp0").stat().st_size
        report = directory.compact(max_bytes=2 * shard_size)
        assert report.evicted_shards == 2
        assert not directory.shard_path("fp0").exists()
        assert not directory.shard_path("fp1").exists()
        assert directory.shard_entries("fp2") and directory.shard_entries("fp3")
        assert report.total_bytes <= 2 * shard_size

    def test_byte_pass_tolerates_a_vanished_shard(self, tmp_path, monkeypatch):
        """A shard removed between the listing and its stat (another
        process's eviction) is skipped, not raised out of compact()."""
        directory = CacheDirectory(tmp_path)
        for index in range(3):
            _store_numbered_shard(directory, f"fp{index}", 10)
        listed = directory.shard_files()
        listed[0].unlink()
        monkeypatch.setattr(directory, "shard_files", lambda: listed)
        report = directory.compact(max_bytes=10)
        assert report.evicted_shards == 2
        assert not any(path.exists() for path in listed)

    def test_eviction_leaves_the_lock_for_the_graced_sweep(self, tmp_path):
        """The shard goes at once; its lock only after the grace window, so a
        store() that still holds the flock is never raced out of exclusion."""
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 5)
        shard = directory.shard_path("fp")
        lock = shard.with_name(f"{shard.name}.lock")
        assert lock.exists()  # store created it
        directory.compact(max_bytes=1)
        assert not shard.exists()
        assert lock.exists(), "a fresh lock must survive eviction (it may be held)"
        os.utime(lock, (1, 1))
        report = directory.compact()
        assert report.removed_lock_files == 1 and not lock.exists()


class TestLitterSweep:
    def test_orphaned_lock_files_are_removed_after_grace(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 2)
        live_lock = directory.shard_path("fp").with_name(
            f"{directory.shard_path('fp').name}.lock"
        )
        stale_orphan = tmp_path / "deadbeef00000000.json.lock"
        stale_orphan.write_text("")
        os.utime(stale_orphan, (1, 1))
        # A *fresh* shardless lock may belong to an in-flight store() for a
        # brand-new fingerprint — it must survive the sweep.
        fresh_orphan = tmp_path / "cafebabe00000000.json.lock"
        fresh_orphan.write_text("")
        report = directory.compact()
        assert report.removed_lock_files == 1
        assert not stale_orphan.exists()
        assert fresh_orphan.exists() and live_lock.exists()

    def test_stale_tmp_files_are_removed_fresh_ones_kept(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        stale = tmp_path / "abcd.json.tmp.111"
        stale.write_text("{")
        os.utime(stale, (1, 1))
        fresh = tmp_path / "abcd.json.tmp.222"
        fresh.write_text("{")
        report = directory.compact()
        assert report.removed_tmp_files == 1
        assert not stale.exists() and fresh.exists()

    def test_lock_and_tmp_files_are_never_shards(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 2)
        (tmp_path / "rogue.json.lock").write_text("not a shard")
        (tmp_path / "rogue.json.tmp.5").write_text("not a shard")
        names = [path.name for path in directory.shard_files()]
        assert names == [directory.shard_path("fp").name]
        # And compaction over the litter neither counts nor chokes on it.
        directory.compact(max_entries=1, max_bytes=10**9)


class TestConfiguredCompaction:
    def test_config_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            ServingConfig(shared_cache_dir="x", shared_cache_max_entries=0)
        with pytest.raises(ValueError):
            ServingConfig(shared_cache_dir="x", shared_cache_max_bytes=-1)

    def test_config_rejects_bounds_without_directory(self):
        """A bound with nothing to bound must fail loudly, not be ignored."""
        with pytest.raises(ValueError):
            ServingConfig(shared_cache_max_entries=16)
        with pytest.raises(ValueError):
            ServingConfig(shared_cache_max_bytes=1 << 20)

    def test_flush_compacts_when_bounded(self, tmp_path):
        task = task_by_name("enter_roundabout")
        responses = list(response_templates(task.name, "compliant"))
        responses += list(response_templates(task.name, "flawed"))
        config = ServingConfig(
            shared_cache_dir=str(tmp_path / "shared"), shared_cache_max_entries=2
        )
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        scores = service.score_responses(task, responses)
        assert service.flush()
        directory = CacheDirectory(tmp_path / "shared")
        assert len(directory.shard_entries(service._fingerprint)) == 2

        # A warm restart over the trimmed shard still serves correct scores.
        warmed = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        assert warmed.metrics.warm_start_entries == 2
        assert warmed.score_responses(task, responses) == scores

    def test_flush_without_bounds_never_compacts(self, tmp_path):
        task = task_by_name("enter_roundabout")
        responses = list(response_templates(task.name, "compliant"))
        config = ServingConfig(shared_cache_dir=str(tmp_path / "shared"))
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        service.score_responses(task, responses)
        service.flush()
        directory = CacheDirectory(tmp_path / "shared")
        assert len(directory.shard_entries(service._fingerprint)) == len(responses)

    def test_byte_bound_keeps_directory_under_limit(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        for index in range(6):
            _store_numbered_shard(directory, f"fp{index}", 50)
            stamp = 2_000_000 + index
            os.utime(directory.shard_path(f"fp{index}"), (stamp, stamp))
        budget = 3 * directory.shard_path("fp0").stat().st_size
        report = directory.compact(max_bytes=budget)
        assert report.total_bytes <= budget
        assert sum(path.stat().st_size for path in directory.shard_files()) <= budget


class TestCrossProcessCompactionLock:
    """Compactors of one ``shared_cache_dir`` coordinate through a
    non-blocking ``flock`` on ``compact.lock``: one compactor at a time,
    across processes and threads, and a dead holder never blocks."""

    def test_held_lock_skips_compaction(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        with _lock_holder(tmp_path):
            report = directory.compact(max_entries=3)
        assert report.skipped is True
        assert report.trimmed_shards == 0
        assert len(directory.shard_entries("fp")) == 10, "a skipped pass must not touch shards"

    def test_killed_holder_does_not_block(self, tmp_path):
        """The kernel drops a SIGKILLed holder's flock: the next compaction
        runs at once, with no stale timeout to wait out."""
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        with _lock_holder(tmp_path) as holder:
            holder.kill()  # SIGKILL: no chance to release anything itself
            holder.wait(timeout=10)
            report = directory.compact(max_entries=3)
        assert report.skipped is False
        assert report.trimmed_shards == 1
        assert len(directory.shard_entries("fp")) == 3

    def test_a_second_holder_in_this_process_is_excluded(self, tmp_path):
        """flock locks each open file description, so a thread compacting
        while another holds the lock skips, like a second process."""
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        reports = []
        with directory._compaction_lock() as held:
            assert held
            thread = threading.Thread(target=lambda: reports.append(directory.compact(max_entries=3)))
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert reports[0].skipped is True
        assert len(directory.shard_entries("fp")) == 10

    def test_without_fcntl_compaction_is_skipped(self, tmp_path, monkeypatch):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        stale_tmp = tmp_path / "abcd.json.tmp.111"
        stale_tmp.write_text("{")
        os.utime(stale_tmp, (1, 1))
        monkeypatch.setitem(sys.modules, "fcntl", None)  # `import fcntl` now fails
        report = directory.compact(max_entries=3, max_bytes=1)
        assert report.skipped is True
        assert len(directory.shard_entries("fp")) == 10
        assert stale_tmp.exists(), "compaction must never run unlocked"
        _store_numbered_shard(directory, "fp2", 2)  # store() still works
        assert len(directory.shard_entries("fp2")) == 2

    def test_lock_file_is_never_swept(self, tmp_path):
        """Unlinking compact.lock would let a later opener lock a fresh inode
        beside a live holder, so even an ancient one stays."""
        directory = CacheDirectory(tmp_path)
        directory.compact()
        lock = tmp_path / CacheDirectory.COMPACT_LOCK_NAME
        os.utime(lock, (1, 1))
        report = directory.compact()
        assert report.removed_lock_files == 0
        assert lock.exists()

    def test_compaction_releases_its_lock(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        assert directory.compact(max_entries=5).trimmed_shards == 1
        assert (tmp_path / CacheDirectory.COMPACT_LOCK_NAME).exists(), "the lock file is never unlinked"
        report = directory.compact(max_entries=3)
        assert report.skipped is False and report.trimmed_shards == 1

    def test_two_live_processes_one_compactor(self, tmp_path):
        """A real second process compacting holds the lock while this one
        tries; once the peer releases it, compaction proceeds."""
        directory = CacheDirectory(tmp_path)
        _store_numbered_shard(directory, "fp", 10)
        script = (
            "import sys\n"
            "from repro.serving import CacheDirectory\n"
            "with CacheDirectory(sys.argv[1])._compaction_lock() as held:\n"
            "    assert held\n"
            "    print('held', flush=True)\n"
            "    sys.stdin.readline()  # hold until the parent says so\n"
            "print('released', flush=True)\n"
        )
        with _lock_holder(tmp_path, script=script) as holder:
            blocked = directory.compact(max_entries=3)
            assert blocked.skipped is True
            assert len(directory.shard_entries("fp")) == 10
            holder.stdin.write("done\n")
            holder.stdin.flush()
            assert holder.stdout.readline().strip() == "released"

            report = directory.compact(max_entries=3)
            assert report.skipped is False
            assert report.trimmed_shards == 1
            assert len(directory.shard_entries("fp")) == 3


#: A child script that takes the flock on ``compact.lock`` directly and
#: holds it until its stdin gets a line.
_RAW_FLOCK_HOLDER = (
    "import fcntl, sys\n"
    "lock = open(sys.argv[1] + '/compact.lock', 'a')\n"
    "fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
    "print('held', flush=True)\n"
    "sys.stdin.readline()\n"
)


@contextmanager
def _lock_holder(root, *, script: str = _RAW_FLOCK_HOLDER):
    """A child process that holds ``compact.lock`` for the ``with`` block."""
    child = subprocess.Popen(
        [sys.executable, "-c", script, str(root)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(_repo_src())},
    )
    try:
        assert child.stdout.readline().strip() == "held"
        yield child
    finally:
        if child.poll() is None:
            child.kill()
        child.wait(timeout=10)
        child.stdin.close()
        child.stdout.close()


def _repo_src():
    return Path(__file__).resolve().parents[2] / "src"
