"""The jobs daemon: feedback scoring as a durable Unix-socket service.

:class:`JobsDaemon` wraps an ordinary
:class:`~repro.serving.scheduler.FeedbackService` (reused unchanged — same
cache, same scorer, same scores) with everything a *service* needs that
a one-shot CLI run does not:

* **Durability** — every accepted job and every state change is journaled
  through a :class:`~repro.jobs.store.JobStore` before it is acknowledged,
  so a daemon killed mid-batch resumes its non-terminal jobs on restart and
  finishes each exactly once (exactly one terminal journal record per job).
* **Admission control** — a per-client max-inflight cap
  (:class:`~repro.jobs.quota.QuotaLedger`); submissions over the cap are
  rejected whole with a typed ``quota-exceeded`` error, never trimmed or
  silently queued.
* **Fairness** — each client's jobs are submitted to the shared
  :class:`~repro.serving.scheduler.Dispatcher` keyed by that client's id,
  so the dispatcher's round-robin interleaves clients: a greedy client at
  its cap cannot starve another client's jobs.
* **Retries** — a failed scoring attempt is retried with the shared
  capped exponential backoff from :mod:`repro.utils.retry`
  (``RUNNING → RETRYING → RUNNING``), and only becomes ``FAILED`` when the
  policy is exhausted.
* **Observability** — ``job.submit`` / ``job.run`` / ``job.retry`` spans in
  the ``"jobs"`` category; the ``stats`` op reports per-state job counts,
  queue depth and per-client inflight.

Wire protocol (documented in full in ``docs/jobs.md``): newline-delimited
JSON over a Unix stream socket.  Each request line is
``{"op": ..., "params": {...}}``; each response line is ``{"ok": true,
"result": ...}`` or ``{"ok": false, "error": {"type": ..., "message":
...}}``.  The ``stream_progress`` op instead answers with a sequence of
``{"ok": true, "event": ...}`` lines ending in an ``end`` event.

Locking: the daemon has one condition, ``_state_cond``, guarding job state,
the event log and the id counters.  While holding it the daemon may take the
store's or the quota ledger's internal lock — never the reverse — and
**scoring always runs outside every daemon lock**, so a slow verification
cannot block submissions, status queries or streams.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

from repro import obs
from repro.jobs import models
from repro.jobs.models import Batch, Job
from repro.jobs.quota import QuotaExceeded, QuotaLedger
from repro.utils.retry import RetryPolicy, call_with_retry

#: Bumped when the request/response shapes change incompatibly.
PROTOCOL_VERSION = 1

#: Longest request line the daemon reads, newline excluded.  The largest
#: request the jobs CLI sends is ``repro-serve submit``'s ``create_batch``:
#: one line holding every record of its JSONL input.  A record is one
#: response of at most ``max_seq_len`` (96) LM tokens, under 2 KiB as JSON —
#: the catalogue's response templates average 183 bytes and reach 407 — so
#: 16 MiB admits a batch of over 8,000 maximal responses (some 90,000
#: templates) while bounding what one connection can make the daemon hold.
#: A longer line is answered ``invalid-request`` and skipped; split the batch.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Error types a response's ``error.type`` field may carry.
ERROR_TYPES = (
    "invalid-request",
    "unknown-op",
    "unknown-job",
    "unknown-batch",
    "quota-exceeded",
    "not-cancellable",
    "shutting-down",
)


class RequestError(Exception):
    """A request the daemon rejects; ``error_type`` is one of :data:`ERROR_TYPES`."""

    def __init__(self, error_type: str, message: str):
        super().__init__(message)
        self.error_type = error_type


class _JobCancelled(Exception):
    """Internal: the job was cancelled before this attempt started."""


class _DaemonStopping(Exception):
    """Internal: the daemon is shutting down; leave the job for a restart."""


class _ScoringFailed(Exception):
    """Internal: one scoring attempt raised (wrapped so only these retry)."""


class JobsDaemon:
    """Durable, fair, observable job service over a ``FeedbackService``.

    Parameters
    ----------
    socket_path:
        Unix socket to listen on (AF_UNIX; keep it short — the kernel caps
        socket paths around 108 bytes).  A stale file is replaced.
    store:
        The :class:`~repro.jobs.store.JobStore` holding job state.  Opening a
        previous daemon's store resumes its non-terminal jobs.  Borrowed —
        the caller closes it (after :meth:`stop`).
    service:
        The :class:`~repro.serving.scheduler.FeedbackService` that scores
        jobs — reused unchanged, so daemon scores are bitwise-identical to
        one-shot ``repro-serve`` runs with the same configuration.  Borrowed.
    dispatcher:
        The :class:`~repro.serving.scheduler.Dispatcher` jobs execute on;
        each client's jobs are submitted keyed by the client id, so the
        dispatcher's round-robin is the daemon's cross-client fairness.
        Borrowed — close it (draining job execution) after :meth:`stop`.
    max_inflight_per_client:
        Per-client cap on non-terminal jobs; ``None`` disables the cap.
    retry:
        :class:`~repro.utils.retry.RetryPolicy` for failed scoring attempts;
        defaults to the shared policy's defaults (3 attempts).
    throttle_seconds:
        Artificial pause before each scoring attempt.  A test/demo knob: it
        holds jobs in flight long enough to kill a daemon mid-batch or watch
        a stream, without touching the scoring path itself.
    clock / sleep:
        Injectable time sources (``time.time`` / ``time.sleep``) so tests can
        freeze timestamps and skip real backoff waits.
    """

    def __init__(
        self,
        socket_path: str | Path,
        store,
        service,
        *,
        dispatcher,
        max_inflight_per_client: int | None = None,
        retry: RetryPolicy | None = None,
        throttle_seconds: float = 0.0,
        clock=time.time,
        sleep=time.sleep,
    ):
        if throttle_seconds < 0:
            raise ValueError(f"throttle_seconds must be non-negative, got {throttle_seconds}")
        self.socket_path = Path(socket_path)
        self.store = store
        self.service = service
        self.dispatcher = dispatcher
        self.quota = QuotaLedger(max_inflight_per_client)
        self.retry = retry if retry is not None else RetryPolicy()
        self.throttle_seconds = throttle_seconds
        self._clock = clock
        self._sleep = sleep
        self._state_cond = threading.Condition()
        self._events: list = []
        self._conn_threads: list = []
        self._connections: list = []
        self._next_job_seq = 0
        self._next_batch_seq = 0
        self._stopping = False
        self._started = False
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop_requested = threading.Event()
        self._handlers = {
            "create_job": self._op_create_job,
            "create_batch": self._op_create_batch,
            "get_status": self._op_get_status,
            "get_batch": self._op_get_batch,
            "list_jobs": self._op_list_jobs,
            "cancel": self._op_cancel,
            "stats": self._op_stats,
            # "shutdown" and "stream_progress" are dispatched inline in
            # _serve_connection: both need control over response ordering.
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Resume the store's non-terminal jobs and start listening."""
        if self._started:
            raise RuntimeError("JobsDaemon.start() called twice")
        self._started = True
        with self._state_cond:
            self._seed_from_store_locked()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self.socket_path.unlink(missing_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(self.socket_path))
        listener.listen()
        # close() does not wake a thread blocked in accept(); a timeout makes
        # the accept loop re-poll and observe the closed socket promptly.
        listener.settimeout(0.5)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-jobs-accept", daemon=True
        )
        self._accept_thread.start()

    def _seed_from_store_locked(self) -> None:
        """Rebuild the id counters from a replayed store and resubmit open jobs."""
        for job in self.store.jobs():
            self._next_job_seq = max(self._next_job_seq, _id_sequence(job.job_id, "j"))
        for batch in self.store.batches():
            self._next_batch_seq = max(self._next_batch_seq, _id_sequence(batch.batch_id, "b"))
        for job in self.store.pending_jobs():
            if job.state == models.RUNNING:
                # The previous daemon died mid-attempt; the attempt produced
                # no terminal record, so it re-runs (same attempt budget).
                job = self._transition_locked(
                    job, models.RETRYING, error="daemon restarted mid-attempt"
                )
            self.quota.admit(job.client_id, force=True)
            self._submit_job_locked(job)

    def request_stop(self) -> None:
        """Ask the daemon to stop (signal-handler/shutdown-op safe, idempotent)."""
        self._stop_requested.set()

    def wait(self) -> None:
        """Block until :meth:`request_stop` (shutdown op or signal) fires."""
        self._stop_requested.wait()

    def stop(self) -> None:
        """Stop accepting, end streams, and leave open jobs for a restart.

        Queued jobs that have not started an attempt stay ``PENDING`` /
        ``RETRYING`` in the store — the next daemon on the same store resumes
        them.  Idempotent.  The borrowed dispatcher/service/store are *not*
        closed here; the owner closes them afterwards.
        """
        with self._state_cond:
            already = self._stopping
            self._stopping = True
            self._state_cond.notify_all()
        if already:
            return
        self._stop_requested.set()
        if self._listener is not None:
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10)
        with self._state_cond:
            threads = list(self._conn_threads)
            connections = list(self._connections)
        for conn in connections:
            # Unblock handler threads parked in readline on an idle client.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler thread
                continue
        for thread in threads:
            thread.join(timeout=10)

    # ------------------------------------------------------------------ #
    # job execution (dispatcher thread)
    # ------------------------------------------------------------------ #
    def _submit_job_locked(self, job: Job) -> None:
        """Queue ``job`` on the dispatcher, keyed by its client for fairness."""
        self.dispatcher.submit(self._execute_job, job.job_id, key=job.client_id)

    def _execute_job(self, job_id: str) -> None:
        """Run one job to a terminal state: attempts, retries, journaling."""
        try:
            score = call_with_retry(
                lambda: self._attempt(job_id),
                policy=self.retry,
                retry_on=(_ScoringFailed,),
                sleep=self._sleep,
                on_retry=lambda failures, exc, wait: self._note_retry(job_id, exc, wait),
            )
        except (_JobCancelled, _DaemonStopping):
            # Cancelled: the terminal record was journaled by cancel().
            # Stopping: the job stays non-terminal for the next daemon.
            return
        except _ScoringFailed as exc:
            self._finish(job_id, models.FAILED, error=str(exc))
        else:
            self._finish(job_id, models.SUCCEEDED, score=score)

    def _attempt(self, job_id: str) -> int:
        """One scoring attempt; scoring runs outside every daemon lock."""
        with self._state_cond:
            if self._stopping:
                raise _DaemonStopping(job_id)
            job = self.store.get(job_id)
            if job.state == models.CANCELLED:
                raise _JobCancelled(job_id)
            job = self._transition_locked(job, models.RUNNING, attempts=job.attempts + 1)
        if self.throttle_seconds:
            self._sleep(self.throttle_seconds)
        from repro.serving import FeedbackJob  # deferred: serving imports are heavy

        feedback_job = FeedbackJob(task=job.task, scenario=job.scenario, response=job.response)
        try:
            with obs.span(
                "job.run",
                category="jobs",
                job_id=job_id,
                client=job.client_id,
                attempt=job.attempts,
            ):
                return self.service.score_batch([feedback_job])[0]
        except Exception as exc:
            raise _ScoringFailed(f"{type(exc).__name__}: {exc}") from exc

    def _note_retry(self, job_id: str, exc: Exception, wait: float) -> None:
        """Journal a failed attempt as ``RETRYING`` before the backoff sleep."""
        with obs.span("job.retry", category="jobs", job_id=job_id, wait_seconds=wait):
            with self._state_cond:
                job = self.store.get(job_id)
                self._transition_locked(job, models.RETRYING, error=str(exc))

    def _finish(self, job_id: str, state: str, *, score=None, error=None) -> None:
        """Journal the terminal state and release the client's quota slot."""
        with self._state_cond:
            job = self.store.get(job_id)
            self._transition_locked(job, state, score=score, error=error)
            self.quota.release(job.client_id)

    def _transition_locked(self, job: Job, state: str, **kwargs) -> Job:
        """Apply + journal one state change and log its event."""
        updated = job.transition(state, at=self._clock(), **kwargs)
        self.store.append_job(updated)
        self._events.append({"type": "job", "job": updated.to_record()})
        self._state_cond.notify_all()
        return updated

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _admit(self, client_id: str, specs: list, *, with_batch: bool):
        """Validate, quota-admit (all or nothing), journal and queue jobs.

        Returns ``(batch_record_or_None, [job records])``.  Validation runs
        before any quota is taken, so a malformed batch costs nothing; a
        quota rejection reserves nothing and is surfaced as a typed error.
        """
        resolved = [self._validate_spec(spec) for spec in specs]
        try:
            self.quota.admit(client_id, len(resolved))
        except QuotaExceeded as exc:
            raise RequestError("quota-exceeded", str(exc)) from exc
        now = self._clock()
        with self._state_cond:
            if self._stopping:
                self.quota.release(client_id, len(resolved))
                raise RequestError("shutting-down", "daemon is shutting down")
            batch = None
            batch_id = None
            if with_batch:
                self._next_batch_seq += 1
                batch_id = f"b-{self._next_batch_seq:06d}"
            jobs = []
            for spec in resolved:
                self._next_job_seq += 1
                job = Job(
                    job_id=f"j-{self._next_job_seq:06d}",
                    client_id=client_id,
                    task=spec.task,
                    scenario=spec.scenario,
                    response=spec.response,
                    batch_id=batch_id,
                    created_at=now,
                    updated_at=now,
                )
                self.store.append_job(job)
                self._events.append({"type": "job", "job": job.to_record()})
                jobs.append(job)
            if with_batch:
                batch = Batch(
                    batch_id=batch_id,
                    client_id=client_id,
                    job_ids=tuple(job.job_id for job in jobs),
                    created_at=now,
                )
                self.store.append_batch(batch)
            for job in jobs:
                self._submit_job_locked(job)
            self._state_cond.notify_all()
        batch_record = batch.to_record() if batch is not None else None
        return batch_record, [job.to_record() for job in jobs]

    def _validate_spec(self, spec):
        """The ``FeedbackJob`` a job spec asks for; a bad spec is answered in
        the one-shot CLI's words, as ``invalid-request``."""
        from repro.serving import FeedbackJob  # deferred: serving imports are heavy

        try:
            return FeedbackJob.from_record(spec)
        except ValueError as exc:
            raise RequestError("invalid-request", str(exc)) from exc

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def _op_create_job(self, params: dict) -> dict:
        client_id = _require_str(params, "client_id")
        with obs.span("job.submit", category="jobs", client=client_id, jobs=1):
            _batch, records = self._admit(client_id, [params], with_batch=False)
        return {"job": records[0]}

    def _op_create_batch(self, params: dict) -> dict:
        client_id = _require_str(params, "client_id")
        specs = params.get("jobs")
        if not isinstance(specs, list) or not specs:
            raise RequestError("invalid-request", "'jobs' must be a non-empty list")
        with obs.span("job.submit", category="jobs", client=client_id, jobs=len(specs)):
            batch, records = self._admit(client_id, specs, with_batch=True)
        return {"batch": batch, "jobs": records}

    def _op_get_status(self, params: dict) -> dict:
        job = self.store.get(_require_str(params, "job_id"))
        if job is None:
            raise RequestError("unknown-job", f"unknown job {params['job_id']!r}")
        return {"job": job.to_record()}

    def _op_get_batch(self, params: dict) -> dict:
        batch = self.store.get_batch(_require_str(params, "batch_id"))
        if batch is None:
            raise RequestError("unknown-batch", f"unknown batch {params['batch_id']!r}")
        jobs = [self.store.get(job_id).to_record() for job_id in batch.job_ids]
        return {"batch": batch.to_record(), "jobs": jobs}

    def _op_list_jobs(self, params: dict) -> dict:
        client_id = _optional_str(params, "client_id")
        state = _optional_str(params, "state")
        if state is not None and state not in models.JOB_STATES:
            raise RequestError(
                "invalid-request", f"unknown state {state!r}; known: {list(models.JOB_STATES)}"
            )
        records = [
            job.to_record()
            for job in self.store.jobs()
            if (client_id is None or job.client_id == client_id)
            and (state is None or job.state == state)
        ]
        return {"jobs": records}

    def _op_cancel(self, params: dict) -> dict:
        job_id = _require_str(params, "job_id")
        with self._state_cond:
            job = self.store.get(job_id)
            if job is None:
                raise RequestError("unknown-job", f"unknown job {job_id!r}")
            if job.state not in (models.PENDING, models.RETRYING):
                raise RequestError(
                    "not-cancellable",
                    f"job {job_id} is {job.state}; only pending/retrying jobs can be cancelled",
                )
            updated = self._transition_locked(
                job, models.CANCELLED, error="cancelled by client"
            )
            self.quota.release(job.client_id)
        return {"job": updated.to_record()}

    def _op_stats(self, params: dict) -> dict:
        counts = {state: 0 for state in models.JOB_STATES}
        for job in self.store.jobs():
            counts[job.state] += 1
        inflight = self.quota.snapshot()
        return {
            "protocol": PROTOCOL_VERSION,
            "states": counts,
            "queue_depth": counts[models.PENDING] + counts[models.RETRYING],
            "inflight": {client: inflight[client] for client in sorted(inflight)},
            "max_inflight_per_client": self.quota.max_inflight,
            "dispatcher_queued": self.dispatcher.queued_batches,
        }

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue  # periodic re-poll; see start()
            except OSError:  # listener closed by stop()
                return
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._state_cond:
                self._conn_threads.append(thread)
                self._connections.append(conn)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            # Bytes, not text: json.loads decodes each line itself, so a line
            # of invalid UTF-8 is one bad request, not a dead connection.
            reader = conn.makefile("rb")
            while True:
                line = reader.readline(MAX_REQUEST_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_REQUEST_BYTES and not line.endswith(b"\n"):
                    # Over the cap: drain the rest of the line in bounded
                    # reads, then answer it once.
                    while line and not line.endswith(b"\n"):
                        line = reader.readline(MAX_REQUEST_BYTES + 1)
                    self._send(
                        conn,
                        _error_response(
                            "invalid-request",
                            f"request line exceeds {MAX_REQUEST_BYTES} bytes; split the batch",
                        ),
                    )
                    continue
                line = line.strip()
                if not line:
                    continue
                # Not only JSONDecodeError: invalid UTF-8 raises
                # UnicodeDecodeError, an over-long integer literal ValueError,
                # nesting deeper than the parser's stack RecursionError.
                try:
                    request = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    self._send(conn, _error_response("invalid-request", f"bad JSON: {exc}"))
                    continue
                try:
                    op, params = _request_envelope(request)
                except RequestError as exc:
                    self._send(conn, _error_response(exc.error_type, str(exc)))
                    continue
                if op == "stream_progress":
                    self._stream_progress(conn, params)
                    continue
                if op == "shutdown":
                    # Acknowledge *before* requesting the stop: stop() severs
                    # open connections, which would race the response out.
                    self._send(conn, {"ok": True, "result": {"stopping": True}})
                    self.request_stop()
                    continue
                handler = self._handlers.get(op)
                try:
                    if handler is None:
                        raise RequestError("unknown-op", f"unknown op {op!r}")
                    result = handler(params)
                except RequestError as exc:
                    self._send(conn, _error_response(exc.error_type, str(exc)))
                else:
                    self._send(conn, {"ok": True, "result": result})
        except OSError:
            # The client went away mid-request (or stop() shut the socket
            # down under us); nothing to answer to.
            return
        finally:
            conn.close()

    def _stream_progress(self, conn: socket.socket, params: dict) -> None:
        """Push every state change of the watched jobs until all are terminal."""
        try:
            job_ids = self._watched_job_ids(params)
        except RequestError as exc:
            self._send(conn, _error_response(exc.error_type, str(exc)))
            return
        watched = set(job_ids)
        with self._state_cond:
            cursor = len(self._events)
            snapshot = [self.store.get(job_id) for job_id in job_ids]
        last_state = {}
        for job in snapshot:
            self._send(conn, {"ok": True, "event": {"type": "job", "job": job.to_record()}})
            last_state[job.job_id] = job.state
        while True:
            if all(state in models.TERMINAL_STATES for state in last_state.values()):
                self._send(conn, {"ok": True, "event": {"type": "end", "reason": "done"}})
                return
            with self._state_cond:
                while len(self._events) <= cursor and not self._stopping:
                    self._state_cond.wait(timeout=0.5)
                if self._stopping and len(self._events) <= cursor:
                    stopping = True
                    fresh = []
                else:
                    stopping = False
                    fresh = self._events[cursor:]
                    cursor = len(self._events)
            if stopping:
                self._send(
                    conn, {"ok": True, "event": {"type": "end", "reason": "shutting-down"}}
                )
                return
            for event in fresh:
                record = event.get("job")
                if record is None or record["job_id"] not in watched:
                    continue
                self._send(conn, {"ok": True, "event": event})
                last_state[record["job_id"]] = record["state"]

    def _watched_job_ids(self, params: dict) -> list:
        job_ids = params.get("job_ids")
        batch_id = _optional_str(params, "batch_id")
        if batch_id is not None:
            batch = self.store.get_batch(batch_id)
            if batch is None:
                raise RequestError("unknown-batch", f"unknown batch {batch_id!r}")
            return list(batch.job_ids)
        if not isinstance(job_ids, list) or not job_ids:
            raise RequestError(
                "invalid-request", "stream_progress needs 'job_ids' or 'batch_id'"
            )
        if not all(isinstance(job_id, str) for job_id in job_ids):
            raise RequestError("invalid-request", "'job_ids' must be a list of strings")
        for job_id in job_ids:
            if self.store.get(job_id) is None:
                raise RequestError("unknown-job", f"unknown job {job_id!r}")
        return list(job_ids)

    @staticmethod
    def _send(conn: socket.socket, payload: dict) -> None:
        try:
            conn.sendall((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
        except (BrokenPipeError, ConnectionResetError):
            # A watcher that hung up mid-stream is not a daemon error.
            return


def _id_sequence(identifier: str, prefix: str) -> int:
    """The numeric suffix of ``<prefix>-NNNNNN`` ids (0 for foreign ids)."""
    head, _sep, tail = identifier.partition("-")
    if head == prefix and tail.isdigit():
        return int(tail)
    return 0


def _request_envelope(request) -> tuple:
    """``(op, params)`` of a decoded request line.

    Raises ``invalid-request`` unless the line is an object with a string
    ``op`` and, when present, an object ``params`` — so every handler can
    index ``params`` without guarding against lists or scalars.
    """
    if not isinstance(request, dict):
        raise RequestError(
            "invalid-request", f"a request must be an object, got {type(request).__name__}"
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise RequestError("invalid-request", f"'op' must be a string, got {type(op).__name__}")
    params = request.get("params")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise RequestError(
            "invalid-request", f"'params' must be an object, got {type(params).__name__}"
        )
    return op, params


def _require_str(params: dict, field: str) -> str:
    value = params.get(field)
    if not isinstance(value, str) or not value:
        raise RequestError("invalid-request", f"{field!r} must be a non-empty string")
    return value


def _optional_str(params: dict, field: str) -> str | None:
    value = params.get(field)
    if value is not None and not isinstance(value, str):
        raise RequestError(
            "invalid-request", f"{field!r} must be a string, got {type(value).__name__}"
        )
    return value


def _error_response(error_type: str, message: str) -> dict:
    return {"ok": False, "error": {"type": error_type, "message": message}}
