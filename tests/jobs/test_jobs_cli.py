"""The ``repro-serve`` daemon/submit/status/watch subcommands end to end.

The headline assertion: ``submit --wait -o`` through a daemon produces a
byte-identical output file to the plain one-shot ``repro-serve`` run on the
same input — same records, same order, same JSON formatting.  The daemon is
a *service* wrapper, never a different scorer.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.jobs import JobsClient

REPO_ROOT = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": "src"}
TASK = "turn_right_traffic_light"
RESPONSES = (
    "1. Observe the traffic light.\n"
    "2. If the traffic light is not green, stop.\n"
    "3. If there is no car from the left and no pedestrian, turn right.",
    "1. Go.",
    "1. If the traffic light is green, turn right.",
)

#: A journal job with every field but a number for its id.
WRONG_TYPED_JOB = {
    "job_id": 5, "client_id": "c", "task": TASK, "scenario": "traffic_light_intersection",
    "response": "1. Go.", "state": "succeeded", "attempts": 1, "score": 0,
}


def _cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro.serving.cli", *args],
        env=ENV,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        **kwargs,
    )


def _write_inputs(path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for response in RESPONSES:
            handle.write(json.dumps({"task": TASK, "response": response}) + "\n")


@pytest.fixture
def cli_root():
    root = Path(tempfile.mkdtemp(prefix="repro-clijobs-", dir="/tmp"))
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture
def daemon(cli_root):
    """A live subprocess daemon; yields (socket_path, client)."""
    procs = []

    def start():
        socket_path = cli_root / "daemon.sock"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving.cli",
                "daemon",
                "--socket",
                str(socket_path),
                "--store",
                str(cli_root / "store"),
            ],
            env=ENV,
            cwd=REPO_ROOT,
            stderr=subprocess.PIPE,
            text=True,
        )
        procs.append(proc)
        client = JobsClient(socket_path, client_id="cli-test", timeout=60)
        deadline = time.monotonic() + 30
        while True:
            try:
                client.stats()
                return socket_path, client
            except (ConnectionRefusedError, FileNotFoundError):
                assert proc.poll() is None, f"daemon died:\n{proc.stderr.read()}"
                assert time.monotonic() < deadline, "daemon socket never came up"
                time.sleep(0.1)

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()


@pytest.fixture(scope="module")
def oneshot_output(tmp_path_factory):
    """The one-shot scored file the daemon must reproduce exactly."""
    root = tmp_path_factory.mktemp("cli-oneshot")
    inputs = root / "in.jsonl"
    output = root / "out.jsonl"
    _write_inputs(inputs)
    result = _cli(str(inputs), "-o", str(output))
    assert result.returncode == 0, result.stderr
    return output.read_bytes()


def test_submit_wait_matches_oneshot_bytes(daemon, cli_root, oneshot_output):
    socket_path, _client = daemon()
    inputs = cli_root / "in.jsonl"
    output = cli_root / "out.jsonl"
    _write_inputs(inputs)
    result = _cli(str(inputs), "--socket", str(socket_path), "--wait", "-o", str(output))
    # Note: no subcommand word — "submit" is the positional-file form's twin.
    assert result.returncode == 2  # the one-shot parser rejects --socket
    result = _cli(
        "submit", str(inputs), "--socket", str(socket_path), "--wait", "-o", str(output)
    )
    assert result.returncode == 0, result.stderr
    assert output.read_bytes() == oneshot_output


def test_status_and_watch(daemon, cli_root):
    socket_path, client = daemon()
    batch = client.create_batch(
        [{"task": TASK, "response": "1. Stop."}, {"task": TASK, "response": "1. Go."}]
    )["batch"]

    watch = _cli("watch", "--socket", str(socket_path), "--batch", batch["batch_id"])
    assert watch.returncode == 0, watch.stderr
    events = [json.loads(line) for line in watch.stdout.splitlines()]
    assert events[-1] == {"type": "end", "reason": "done"}

    stats = _cli("status", "--socket", str(socket_path))
    assert stats.returncode == 0
    assert json.loads(stats.stdout)["states"]["succeeded"] == 2

    one = _cli("status", batch["job_ids"][0], "--socket", str(socket_path))
    assert one.returncode == 0
    record = json.loads(one.stdout)
    assert record["state"] == "succeeded"

    whole_batch = _cli(
        "status", "--socket", str(socket_path), "--batch", batch["batch_id"]
    )
    assert whole_batch.returncode == 0
    assert json.loads(whole_batch.stdout)["batch"]["job_ids"] == batch["job_ids"]


def test_submit_validates_before_contacting_the_daemon(cli_root):
    inputs = cli_root / "bad.jsonl"
    inputs.write_text(json.dumps({"task": "no_such_task", "response": "1. Go."}) + "\n")
    result = _cli("submit", str(inputs), "--socket", str(cli_root / "nowhere.sock"))
    assert result.returncode == 2
    assert "no_such_task" in result.stderr


@pytest.mark.parametrize(
    "journal",
    [
        '{"kind": "job", "job": {"job_id": "j-000001"}}\n',
        json.dumps({"kind": "job", "job": WRONG_TYPED_JOB}) + "\n",
    ],
    ids=["malformed-store", "wrong-typed-job-id"],
)
def test_daemon_refuses_to_start_in_one_line(cli_root, journal):
    """A store record of the wrong shape ends the daemon with exit 2 and one
    stderr line, before any socket is created."""
    store = cli_root / "store"
    store.mkdir()
    (store / "journal.jsonl").write_text(journal)
    socket_path = cli_root / "daemon.sock"
    result = _cli("daemon", "--socket", str(socket_path), "--store", str(store), timeout=60)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr
    assert not socket_path.exists()


def test_unreachable_daemon_is_a_clean_error(cli_root):
    inputs = cli_root / "in.jsonl"
    _write_inputs(inputs)
    result = _cli("submit", str(inputs), "--socket", str(cli_root / "nowhere.sock"))
    assert result.returncode == 1
    assert "cannot reach a daemon" in result.stderr


@contextmanager
def _misbehaving_daemon(socket_path: Path, behaviour: str):
    """A Unix socket that accepts requests and then, per ``behaviour``,
    never answers (``"stall"``) or reads part of one and hangs up with the
    rest unread, which resets the client's connection (``"reset"``)."""
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(str(socket_path))
    server.listen()
    server.settimeout(0.1)
    stop = threading.Event()
    held = []

    def serve():
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except TimeoutError:
                continue
            if behaviour == "stall":
                held.append(conn)
            else:
                conn.recv(1)
                conn.close()

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        for conn in held:
            conn.close()
        server.close()


@pytest.mark.parametrize("behaviour", ["stall", "reset"])
def test_a_stalled_or_dropped_connection_is_a_clean_error(cli_root, behaviour):
    socket_path = cli_root / "bad.sock"
    with _misbehaving_daemon(socket_path, behaviour):
        result = _cli("status", "--socket", str(socket_path), "--timeout", "0.5", timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1, result.stderr


def test_daemon_and_oneshot_share_the_service_arguments():
    oneshot_help = _cli("--help").stdout
    daemon_help = _cli("daemon", "--help").stdout
    for flag in ("--mode", "--cache-size", "--seed"):
        assert flag in oneshot_help
        assert flag in daemon_help
    assert "daemon" in oneshot_help  # the epilog advertises daemon mode
