"""Durable job state: append-only JSONL journal + periodic atomic snapshot.

:class:`JobStore` is the daemon's source of truth across restarts.  Every
state change is one JSON line appended (and fsynced) to ``journal.jsonl``;
every ``snapshot_every`` appends the full state is rewritten atomically to
``snapshot.json`` (via :mod:`repro.utils.atomic`) and the journal is reset,
so the journal stays short and replay stays fast.  Opening a store replays
``snapshot.json`` then ``journal.jsonl`` (last record per id wins), which is
how a restarted daemon finds the exact pre-crash state: terminal jobs keep
their scores, non-terminal jobs are handed back to the scheduler.

Durability model
----------------
* The journal is opened in append mode and each record is ``flush`` +
  ``os.fsync``\\ ed before :meth:`JobStore.append` returns — a job the daemon
  acknowledged survives ``SIGKILL``.
* A torn final line (crash mid-append) is tolerated at replay and dropped;
  every *complete* line is honored.
* The snapshot is written with :func:`repro.utils.serialization.dump_json_atomic`
  and the journal is truncated only *after* the snapshot is durably in place,
  so a crash between the two merely replays a journal whose records are
  already in the snapshot — replay is idempotent (last record per id wins).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.jobs.models import Batch, Job
from repro.utils.serialization import dump_json_atomic, load_json

#: Schema tag stamped into snapshots so future readers can migrate old files.
SNAPSHOT_SCHEMA = 1


class JobStore:
    """Crash-safe map of jobs and batches, backed by journal + snapshot.

    Every append is fsynced before it returns: the durability the
    crash-recovery contract relies on.

    Parameters
    ----------
    root:
        Directory holding ``journal.jsonl`` and ``snapshot.json`` (created if
        missing).  Opening replays both, so a store pointed at a previous
        daemon's directory resumes its state.
    snapshot_every:
        Journal appends between snapshots.  Smaller keeps replay shorter at
        the cost of more full-state rewrites.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, root: str | Path, *, snapshot_every: int = 64):
        if snapshot_every <= 0:
            raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self._lock = threading.Lock()
        self._jobs: dict = {}
        self._batches: dict = {}
        self._appends_since_snapshot = 0
        with self._lock:
            self._replay()
        # Append mode: the journal is the one durable file that *grows* rather
        # than being rewritten, so it does not go through repro.utils.atomic —
        # torn trailing lines are handled at replay instead.
        self._journal = (self.root / self.JOURNAL_NAME).open("a", encoding="utf-8")
        self._closed = False

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def _replay(self) -> None:
        """Load snapshot then journal into memory; tolerate a torn last line.

        Any other record that does not decode, such as valid JSON of the
        wrong shape, raises ``ValueError`` naming the file (and, in the
        journal, the line).
        """
        snapshot_path = self.root / self.SNAPSHOT_NAME
        if snapshot_path.exists():
            try:
                snapshot = load_json(snapshot_path)
                for record in snapshot.get("jobs", []):
                    job = Job.from_record(record)
                    self._jobs[job.job_id] = job
                for record in snapshot.get("batches", []):
                    batch = Batch.from_record(record)
                    self._batches[batch.batch_id] = batch
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{snapshot_path}: malformed snapshot ({type(exc).__name__}: {exc})"
                ) from exc
        journal_path = self.root / self.JOURNAL_NAME
        if not journal_path.exists():
            return
        with journal_path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except json.JSONDecodeError:
                    # A crash mid-append leaves at most one torn trailing
                    # line; everything the daemon acknowledged is complete.
                    break
                try:
                    self._apply_locked(record)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{journal_path}:{line_number}: malformed record ({type(exc).__name__}: {exc})"
                    ) from exc
                self._appends_since_snapshot += 1

    def _apply_locked(self, record: dict) -> None:
        """Fold one journal record into the in-memory maps (last wins)."""
        kind = record.get("kind")
        if kind == "job":
            job = Job.from_record(record["job"])
            self._jobs[job.job_id] = job
        elif kind == "batch":
            batch = Batch.from_record(record["batch"])
            self._batches[batch.batch_id] = batch
        else:
            raise ValueError(f"unknown journal record kind {kind!r}")

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def append_job(self, job: Job) -> None:
        """Durably record ``job`` (its current state) and update memory."""
        self._append({"kind": "job", "job": job.to_record()})

    def append_batch(self, batch: Batch) -> None:
        """Durably record ``batch`` and update memory."""
        self._append({"kind": "batch", "batch": batch.to_record()})

    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._closed:
                raise ValueError("append on a closed JobStore")
            self._apply_locked(record)
            self._journal.write(line + "\n")
            self._journal.flush()
            os.fsync(self._journal.fileno())
            self._appends_since_snapshot += 1
            if self._appends_since_snapshot >= self.snapshot_every:
                self._snapshot_locked()

    def snapshot(self) -> None:
        """Force a snapshot + journal reset now (normally periodic)."""
        with self._lock:
            if self._closed:
                raise ValueError("snapshot on a closed JobStore")
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        payload = {
            "schema": SNAPSHOT_SCHEMA,
            "jobs": [self._jobs[job_id].to_record() for job_id in sorted(self._jobs)],
            "batches": [self._batches[bid].to_record() for bid in sorted(self._batches)],
        }
        dump_json_atomic(payload, self.root / self.SNAPSHOT_NAME)
        # The snapshot now holds everything the journal did; reset the journal
        # by truncating through the open handle (an os.replace of the path
        # would leave our handle appending to an orphaned inode).
        self._journal.seek(0)
        self._journal.truncate()
        self._journal.flush()
        os.fsync(self._journal.fileno())
        self._appends_since_snapshot = 0

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job | None:
        """The current record for ``job_id``, or None if unknown."""
        with self._lock:
            return self._jobs.get(job_id)

    def get_batch(self, batch_id: str) -> Batch | None:
        """The batch for ``batch_id``, or None if unknown."""
        with self._lock:
            return self._batches.get(batch_id)

    def jobs(self) -> list:
        """Every job, sorted by id (stable across replicas and replays)."""
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def batches(self) -> list:
        """Every batch, sorted by id."""
        with self._lock:
            return [self._batches[bid] for bid in sorted(self._batches)]

    def pending_jobs(self) -> list:
        """Jobs not yet terminal, sorted by id — what a restart must resume."""
        with self._lock:
            return [
                self._jobs[job_id]
                for job_id in sorted(self._jobs)
                if not self._jobs[job_id].is_terminal
            ]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Snapshot once more and close the journal handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._snapshot_locked()
            self._closed = True
            self._journal.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False
