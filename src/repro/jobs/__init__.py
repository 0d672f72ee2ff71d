"""repro.jobs — feedback scoring as a durable, multi-client service.

The serving layer (:mod:`repro.serving`) made batched feedback scoring fast
inside one process's lifetime; this package makes it *survivable and
shareable*: a daemon (:class:`JobsDaemon`) owns one
:class:`~repro.serving.scheduler.FeedbackService` and exposes it to many
clients over a JSON-over-Unix-socket protocol, journaling every job state
change (:class:`JobStore`) so a killed daemon restarts into exactly the
state it acknowledged — every accepted job still reaches a terminal state
exactly once, with scores bitwise-identical to a one-shot run.

Layers, bottom-up:

* :mod:`repro.jobs.models` — frozen :class:`Job` / :class:`Batch` records
  and the explicit state machine (``PENDING → RUNNING → SUCCEEDED`` /
  ``FAILED``, with ``RETRYING`` and ``CANCELLED``).
* :mod:`repro.jobs.store`  — append-only JSONL journal + periodic atomic
  snapshot; replay-on-open is the restart semantics.
* :mod:`repro.jobs.quota`  — per-client max-inflight admission
  (:class:`QuotaLedger`); rejections are explicit, never silent.
* :mod:`repro.jobs.server` — the thread-per-connection daemon; keying the
  dispatcher by client id makes its round-robin the fairness policy, and
  failed attempts retry via :mod:`repro.utils.retry`.
* :mod:`repro.jobs.client` — blocking :class:`JobsClient` with typed errors.
* :mod:`repro.jobs.cli`    — the ``repro-serve daemon|submit|status|watch``
  subcommands, sharing the one-shot CLI's argument/config layer.

Protocol, journal format and restart semantics: ``docs/jobs.md``.
"""

from repro.jobs.client import JobsClient, JobsError, QuotaExceededError, UnknownJobError
from repro.jobs.models import (
    CANCELLED,
    FAILED,
    JOB_STATES,
    PENDING,
    RETRYING,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    VALID_TRANSITIONS,
    Batch,
    InvalidTransitionError,
    Job,
)
from repro.jobs.quota import QuotaExceeded, QuotaLedger
from repro.jobs.server import ERROR_TYPES, PROTOCOL_VERSION, JobsDaemon, RequestError
from repro.jobs.store import JobStore

__all__ = [
    "Job",
    "Batch",
    "InvalidTransitionError",
    "PENDING",
    "RUNNING",
    "RETRYING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "VALID_TRANSITIONS",
    "JobStore",
    "QuotaLedger",
    "QuotaExceeded",
    "JobsDaemon",
    "RequestError",
    "PROTOCOL_VERSION",
    "ERROR_TYPES",
    "JobsClient",
    "JobsError",
    "QuotaExceededError",
    "UnknownJobError",
]
