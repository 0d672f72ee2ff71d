"""Job and batch records: the durable state machine of :mod:`repro.jobs`.

A :class:`Job` is one verification request owned by one client, frozen like
every record the journal persists — a state change produces a *new* job via
:meth:`Job.transition`, which validates the move against the explicit state
machine::

    PENDING ──> RUNNING ──> SUCCEEDED
       │           │ ╲
       │           │  ──> FAILED
       │           v
       │        RETRYING ──> RUNNING   (next attempt)
       │           │
       v           v
    CANCELLED   CANCELLED

``SUCCEEDED`` / ``FAILED`` / ``CANCELLED`` are terminal; ``FAILED`` is only
reached when the daemon's retry policy is exhausted, and ``CANCELLED`` only
from states where no attempt is executing (a running verification cannot be
aborted mid-model-check).  Every timestamp is **passed in by the caller** —
models never read a clock, so replayed journals and injected test clocks
produce identical records.

:class:`Batch` groups the jobs one ``create_batch`` call admitted, so clients
can watch or collect a whole submission by one id.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The five job states, as stored in journal records.
PENDING = "pending"
RUNNING = "running"
RETRYING = "retrying"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

#: Every state, in lifecycle order (the ``stats`` op counts jobs per state).
JOB_STATES = (PENDING, RUNNING, RETRYING, SUCCEEDED, FAILED, CANCELLED)

#: States from which no further transition is legal.
TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED})

#: The explicit state machine: ``current -> {legal next states}``.
VALID_TRANSITIONS = {
    PENDING: frozenset({RUNNING, CANCELLED}),
    RUNNING: frozenset({SUCCEEDED, FAILED, RETRYING}),
    RETRYING: frozenset({RUNNING, CANCELLED, FAILED}),
    SUCCEEDED: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class InvalidTransitionError(ValueError):
    """A job was asked to move between states the machine does not connect."""


@dataclass(frozen=True)
class Job:
    """One verification request: a response to score, owned by one client.

    Immutable; :meth:`transition` returns the successor record.  ``attempts``
    counts *started* scoring attempts (0 while ``PENDING``); ``score`` is
    set only by the transition to ``SUCCEEDED`` and ``error`` only by
    ``FAILED``/``RETRYING``.  ``created_at`` / ``updated_at`` are wall-clock
    seconds supplied by the caller (the daemon's injectable clock).
    """

    job_id: str
    client_id: str
    task: str
    scenario: str
    response: str
    state: str = PENDING
    attempts: int = 0
    score: int | None = None
    error: str | None = None
    batch_id: str | None = None
    created_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self) -> None:
        if self.state not in VALID_TRANSITIONS:
            raise ValueError(f"unknown job state {self.state!r}; known: {JOB_STATES}")
        if self.attempts < 0:
            raise ValueError(f"attempts must be non-negative, got {self.attempts}")

    # ------------------------------------------------------------------ #
    @property
    def is_terminal(self) -> bool:
        """Whether the job has finished for good (succeeded/failed/cancelled)."""
        return self.state in TERMINAL_STATES

    def transition(
        self,
        state: str,
        *,
        at: float,
        score: int | None = None,
        error: str | None = None,
        attempts: int | None = None,
    ) -> "Job":
        """The successor job in ``state``, stamped ``updated_at=at``.

        Raises :class:`InvalidTransitionError` for moves the state machine
        does not allow (including any move out of a terminal state), and
        ``ValueError`` when ``score`` accompanies anything but ``SUCCEEDED``.
        """
        if state not in VALID_TRANSITIONS:
            raise ValueError(f"unknown job state {state!r}; known: {JOB_STATES}")
        if state not in VALID_TRANSITIONS[self.state]:
            raise InvalidTransitionError(
                f"job {self.job_id}: illegal transition {self.state} -> {state}"
            )
        if score is not None and state != SUCCEEDED:
            raise ValueError(f"a score can only accompany {SUCCEEDED}, not {state}")
        return replace(
            self,
            state=state,
            updated_at=at,
            score=score if state == SUCCEEDED else self.score,
            error=error if error is not None else (None if state == SUCCEEDED else self.error),
            attempts=self.attempts if attempts is None else attempts,
        )

    # ------------------------------------------------------------------ #
    def to_record(self) -> dict:
        """JSON-friendly dict — the journal/snapshot (and wire) shape."""
        return {
            "job_id": self.job_id,
            "client_id": self.client_id,
            "task": self.task,
            "scenario": self.scenario,
            "response": self.response,
            "state": self.state,
            "attempts": self.attempts,
            "score": self.score,
            "error": self.error,
            "batch_id": self.batch_id,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Job":
        """Rebuild a job from :meth:`to_record` output (journal replay)."""
        return cls(
            job_id=record["job_id"],
            client_id=record["client_id"],
            task=record["task"],
            scenario=record["scenario"],
            response=record["response"],
            state=record.get("state", PENDING),
            attempts=int(record.get("attempts", 0)),
            score=record.get("score"),
            error=record.get("error"),
            batch_id=record.get("batch_id"),
            created_at=float(record.get("created_at", 0.0)),
            updated_at=float(record.get("updated_at", 0.0)),
        )


@dataclass(frozen=True)
class Batch:
    """The jobs one ``create_batch`` call admitted, addressable by one id."""

    batch_id: str
    client_id: str
    job_ids: tuple
    created_at: float = 0.0

    def to_record(self) -> dict:
        """JSON-friendly dict — the journal/snapshot (and wire) shape."""
        return {
            "batch_id": self.batch_id,
            "client_id": self.client_id,
            "job_ids": list(self.job_ids),
            "created_at": self.created_at,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Batch":
        """Rebuild a batch from :meth:`to_record` output (journal replay)."""
        return cls(
            batch_id=record["batch_id"],
            client_id=record["client_id"],
            job_ids=tuple(record["job_ids"]),
            created_at=float(record.get("created_at", 0.0)),
        )
