"""Blocking client for the jobs daemon's JSON-over-Unix-socket protocol.

:class:`JobsClient` speaks the newline-delimited JSON protocol of
:class:`~repro.jobs.server.JobsDaemon`: one short-lived connection per
request (so a client object is trivially thread-safe and never holds a stale
socket across a daemon restart), plus a persistent connection for
:meth:`JobsClient.stream_progress`, which yields events as the daemon pushes
them.  Protocol errors, and a stalled or dropped connection, surface as
typed exceptions — :class:`QuotaExceededError`, :class:`UnknownJobError`,
or the base :class:`JobsError` carrying the error type — never as silent
``None``.
"""

from __future__ import annotations

import json
import socket
from contextlib import contextmanager
from pathlib import Path


class JobsError(Exception):
    """A request the daemon rejected; ``error_type`` is the wire error type."""

    def __init__(self, error_type: str, message: str):
        super().__init__(message)
        self.error_type = error_type


class QuotaExceededError(JobsError):
    """The submission would exceed the client's max-inflight quota."""


class UnknownJobError(JobsError):
    """The named job or batch does not exist on the daemon."""


#: Wire error types with a dedicated exception class (others raise JobsError).
_ERROR_CLASSES = {
    "quota-exceeded": QuotaExceededError,
    "unknown-job": UnknownJobError,
    "unknown-batch": UnknownJobError,
}


def _raise_for_error(error: dict) -> None:
    error_type = error.get("type", "error")
    message = error.get("message", "")
    raise _ERROR_CLASSES.get(error_type, JobsError)(error_type, message)


@contextmanager
def _typed_socket_errors(op: str):
    """Raise a stalled or dropped daemon connection as a :class:`JobsError`."""
    try:
        yield
    except TimeoutError as exc:
        raise JobsError("timeout", f"daemon did not answer during {op!r}") from exc
    except (ConnectionResetError, BrokenPipeError) as exc:
        raise JobsError("disconnected", f"daemon dropped the connection during {op!r}: {exc}") from exc


class JobsClient:
    """Blocking access to a running jobs daemon.

    Parameters
    ----------
    socket_path:
        The daemon's Unix socket.
    client_id:
        Identity sent with every submission — the daemon's quota cap and
        round-robin fairness are keyed on it.
    timeout:
        Socket timeout (seconds) for each request *and* for each streamed
        event; a daemon that stops answering raises a ``"timeout"``
        :class:`JobsError` rather than hanging the caller forever.
    """

    def __init__(self, socket_path: str | Path, *, client_id: str = "default", timeout: float = 60.0):
        self.socket_path = str(socket_path)
        self.client_id = client_id
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _connect(self) -> socket.socket:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            conn.settimeout(self.timeout)
            conn.connect(self.socket_path)
        except BaseException:
            conn.close()
            raise
        return conn

    def _request(self, op: str, params: dict) -> dict:
        """One request/response round trip on a fresh connection."""
        with _typed_socket_errors(op), self._connect() as conn:
            conn.sendall((json.dumps({"op": op, "params": params}) + "\n").encode("utf-8"))
            with conn.makefile("r", encoding="utf-8") as reader:
                line = reader.readline()
        if not line:
            raise JobsError("disconnected", f"daemon closed the connection during {op!r}")
        response = json.loads(line)
        if not response.get("ok"):
            _raise_for_error(response.get("error", {}))
        return response["result"]

    # ------------------------------------------------------------------ #
    def create_job(self, task: str, response: str, *, scenario: str | None = None) -> dict:
        """Submit one job; returns its (pending) record with the new job id."""
        params = {"client_id": self.client_id, "task": task, "response": response}
        if scenario is not None:
            params["scenario"] = scenario
        return self._request("create_job", params)["job"]

    def create_batch(self, jobs: list) -> dict:
        """Submit several jobs atomically (all admitted or all rejected).

        ``jobs`` is a list of ``{"task": ..., "response": ...[, "scenario":
        ...]}`` dicts; returns ``{"batch": batch record, "jobs": [job
        records]}``.  Raises :class:`QuotaExceededError` without admitting
        anything when the batch would exceed the quota.
        """
        return self._request("create_batch", {"client_id": self.client_id, "jobs": jobs})

    def get_status(self, job_id: str) -> dict:
        """The job's current record (raises :class:`UnknownJobError`)."""
        return self._request("get_status", {"job_id": job_id})["job"]

    def get_batch(self, batch_id: str) -> dict:
        """``{"batch": ..., "jobs": [...]}`` for one batch."""
        return self._request("get_batch", {"batch_id": batch_id})

    def list_jobs(self, *, client_id: str | None = None, state: str | None = None) -> list:
        """Job records, optionally filtered by owner and/or state."""
        params: dict = {}
        if client_id is not None:
            params["client_id"] = client_id
        if state is not None:
            params["state"] = state
        return self._request("list_jobs", params)["jobs"]

    def cancel(self, job_id: str) -> dict:
        """Cancel a pending/retrying job; returns the cancelled record."""
        return self._request("cancel", {"job_id": job_id})["job"]

    def stats(self) -> dict:
        """Daemon-wide stats: per-state counts, queue depth, inflight map."""
        return self._request("stats", {})

    def shutdown(self) -> dict:
        """Ask the daemon to stop (open jobs stay durable for a restart)."""
        return self._request("shutdown", {})

    # ------------------------------------------------------------------ #
    def stream_progress(self, *, job_ids: list | None = None, batch_id: str | None = None):
        """Yield progress events for the watched jobs until all are terminal.

        Each event is the daemon's ``{"type": "job", "job": record}`` dict
        (one initial snapshot per watched job, then every state change) and
        finally ``{"type": "end", "reason": ...}``, after which the generator
        stops.
        """
        params: dict = {}
        if batch_id is not None:
            params["batch_id"] = batch_id
        if job_ids is not None:
            params["job_ids"] = list(job_ids)
        with _typed_socket_errors("stream_progress"), self._connect() as conn:
            conn.sendall(
                (json.dumps({"op": "stream_progress", "params": params}) + "\n").encode("utf-8")
            )
            with conn.makefile("r", encoding="utf-8") as reader:
                for line in reader:
                    line = line.strip()
                    if not line:
                        continue
                    response = json.loads(line)
                    if not response.get("ok"):
                        _raise_for_error(response.get("error", {}))
                    event = response["event"]
                    yield event
                    if event.get("type") == "end":
                        return
        raise JobsError("disconnected", "daemon closed the stream before the end event")

    def wait(self, job_ids: list) -> dict:
        """Block until every job in ``job_ids`` is terminal; ``{id: record}``.

        Raises :class:`JobsError` if the daemon shuts down before the jobs
        finish (they remain durable for the next daemon on the same store).
        """
        return self._wait(job_ids=list(job_ids), batch_id=None)

    def wait_batch(self, batch_id: str) -> dict:
        """Block until every job of ``batch_id`` is terminal; ``{id: record}``."""
        return self._wait(job_ids=None, batch_id=batch_id)

    def _wait(self, *, job_ids, batch_id) -> dict:
        final: dict = {}
        for event in self.stream_progress(job_ids=job_ids, batch_id=batch_id):
            if event.get("type") == "end":
                if event.get("reason") != "done":
                    raise JobsError(
                        "shutting-down", "daemon stopped before the watched jobs finished"
                    )
                return final
            record = event["job"]
            final[record["job_id"]] = record
        raise JobsError("disconnected", "stream ended without an end event")
