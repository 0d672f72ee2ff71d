"""Fixtures for the jobs-daemon suite: an in-process daemon over a stub scorer.

The daemon's durability, quota, fairness and retry behavior are independent
of what actually computes scores, so most tests run a :class:`StubService`
(score = response length, with injectable failures and gates) on a real
dispatcher, store and Unix socket — fast, deterministic, and exercising the
same locking as production.  The crash-recovery and CLI suites use real
subprocess daemons with the real ``FeedbackService`` instead.
"""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
import threading
from pathlib import Path

import pytest

from repro.jobs import JobsClient, JobsDaemon, JobStore
from repro.serving import Dispatcher

#: A task from the driving catalogue (resolves to a scenario without extras).
TASK = "turn_right_traffic_light"


class StubService:
    """Scores a response as ``len(response)``; failures and gates injectable.

    ``fail_times`` maps a response string to how many attempts on it must
    raise before one succeeds.  ``gate(response)`` returns an event the next
    attempt on that response blocks on, which lets a test hold a job
    mid-``RUNNING`` deterministically.  ``calls`` records the responses in
    execution order (the dispatcher runs jobs one at a time).
    """

    def __init__(self, fail_times: dict | None = None):
        self.fail_times = dict(fail_times) if fail_times is not None else {}
        self.calls: list = []
        self._gates: dict = {}

    def gate(self, response: str) -> threading.Event:
        event = threading.Event()
        self._gates[response] = event
        return event

    def release_all(self) -> None:
        for event in self._gates.values():
            event.set()

    def score_batch(self, jobs) -> list:
        scores = []
        for job in jobs:
            self.calls.append(job.response)
            gate = self._gates.get(job.response)
            if gate is not None:
                assert gate.wait(timeout=30), f"gate for {job.response!r} never released"
            remaining = self.fail_times.get(job.response, 0)
            if remaining:
                self.fail_times[job.response] = remaining - 1
                raise RuntimeError(f"injected failure for {job.response!r}")
            scores.append(len(job.response))
        return scores


@pytest.fixture
def jobs_root():
    """A short-pathed scratch directory (AF_UNIX paths are length-capped)."""
    root = Path(tempfile.mkdtemp(prefix="repro-jobs-", dir="/tmp"))
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture
def daemon_factory(jobs_root):
    """Start in-process daemons over stub scorers; tears everything down.

    Returns ``start(**kwargs) -> (daemon, store, stub)``.  Recognized kwargs:
    ``fail_times`` (for the stub), ``store`` (to restart on an existing
    store), ``real_sleep`` (keep real backoff sleeps instead of no-ops), and
    anything :class:`JobsDaemon` accepts.
    """
    started: list = []

    def start(*, fail_times=None, store=None, real_sleep=False, **daemon_kwargs):
        dispatcher = Dispatcher(name="test-jobs")
        stub = StubService(fail_times)
        if store is None:
            store = JobStore(jobs_root / "store")
        if not real_sleep:
            daemon_kwargs.setdefault("sleep", lambda _seconds: None)
        daemon = JobsDaemon(
            jobs_root / "daemon.sock", store, stub, dispatcher=dispatcher, **daemon_kwargs
        )
        daemon.start()
        started.append((daemon, dispatcher, store, stub))
        return daemon, store, stub

    yield start
    for daemon, dispatcher, store, stub in started:
        stub.release_all()
        daemon.stop()
        dispatcher.close()
        store.close()


@pytest.fixture
def client(jobs_root):
    """A :class:`JobsClient` pointed at the factory daemon's socket."""
    return JobsClient(jobs_root / "daemon.sock", client_id="tester", timeout=30)


class WireConnection:
    """One raw, persistent connection to a daemon: send lines, read replies.

    ``request(line)`` sends one request line (``str`` or raw ``bytes``) and
    returns its reply: one decoded response, or for a progress stream every
    event line through the closing ``end`` event.  A daemon that answers
    nothing raises ``TimeoutError``; one that hangs up raises
    ``ConnectionError`` — either way the test fails loudly.
    """

    def __init__(self, socket_path: Path, timeout: float = 30.0):
        self._conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._conn.settimeout(timeout)
        self._conn.connect(str(socket_path))
        self._reader = self._conn.makefile("rb")

    def _read(self) -> dict:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def request(self, line) -> list:
        payload = line if isinstance(line, bytes) else line.encode("utf-8")
        self._conn.sendall(payload + b"\n")
        replies = [self._read()]
        while "event" in replies[-1] and replies[-1]["event"].get("type") != "end":
            replies.append(self._read())
        return replies

    def close(self) -> None:
        self._reader.close()
        self._conn.close()


@pytest.fixture
def wire(jobs_root):
    """Open :class:`WireConnection` s to the factory daemon's socket."""
    opened: list = []

    def connect() -> WireConnection:
        connection = WireConnection(jobs_root / "daemon.sock")
        opened.append(connection)
        return connection

    yield connect
    for connection in opened:
        connection.close()
