"""Per-client admission control for the jobs daemon.

:class:`QuotaLedger` bounds how many *non-terminal* jobs each client may have
in the daemon at once.  Admission is all-or-nothing per submission — a batch
either fits entirely under the client's cap or is rejected whole with
:class:`QuotaExceeded` (never silently trimmed), so a client always knows
exactly which of its jobs the daemon owns.  The ledger only handles
*admission*; *fairness between admitted clients* is the round-robin of
:class:`repro.serving.scheduler.Dispatcher`, to which the daemon submits each
client's work keyed by its client id.  Together: a greedy client can neither
flood the queue past its cap nor starve another client's admitted jobs.
"""

from __future__ import annotations

import threading


class QuotaExceeded(Exception):
    """A submission would push a client past its max-inflight cap.

    Carries the numbers the client needs to react (back off, shrink the
    batch): the cap, current inflight count and requested job count.
    """

    def __init__(self, client_id: str, *, inflight: int, requested: int, limit: int):
        super().__init__(
            f"client {client_id!r} quota exceeded: {inflight} inflight + "
            f"{requested} requested > limit {limit}"
        )
        self.client_id = client_id
        self.inflight = inflight
        self.requested = requested
        self.limit = limit


class QuotaLedger:
    """Thread-safe count of inflight (non-terminal) jobs per client.

    ``max_inflight=None`` disables the cap — :meth:`admit` always succeeds
    but the ledger still counts, so the daemon's ``stats`` op reports
    inflight jobs either way.
    """

    def __init__(self, max_inflight: int | None = None):
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._inflight: dict = {}

    def admit(self, client_id: str, count: int = 1, *, force: bool = False) -> None:
        """Reserve ``count`` inflight slots for ``client_id`` — all or nothing.

        Raises :class:`QuotaExceeded` (reserving nothing) when the client's
        inflight total plus ``count`` would exceed the cap.  ``force=True``
        skips the cap: the restart path re-admits jobs a previous daemon
        already accepted, which must succeed even under a newly lowered cap.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        with self._lock:
            inflight = self._inflight.get(client_id, 0)
            if not force and self.max_inflight is not None and inflight + count > self.max_inflight:
                raise QuotaExceeded(
                    client_id, inflight=inflight, requested=count, limit=self.max_inflight
                )
            self._inflight[client_id] = inflight + count

    def release(self, client_id: str, count: int = 1) -> None:
        """Return ``count`` slots when jobs reach a terminal state."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        with self._lock:
            inflight = self._inflight.get(client_id, 0)
            if count > inflight:
                raise ValueError(
                    f"client {client_id!r}: releasing {count} > {inflight} inflight"
                )
            remaining = inflight - count
            if remaining:
                self._inflight[client_id] = remaining
            else:
                del self._inflight[client_id]

    def snapshot(self) -> dict:
        """``{client_id: inflight}`` for every client with inflight jobs."""
        with self._lock:
            return dict(self._inflight)
