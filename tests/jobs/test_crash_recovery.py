"""SIGKILL a live daemon mid-batch; a restart must finish exactly once.

These tests run real subprocess daemons over the real ``FeedbackService``
(no stubs): submit a batch, kill the daemon while some jobs are scored and
some are not, restart on the same store, and check that

* every job ends in exactly one terminal journal record (no re-scoring of
  completed work, no lost jobs), and
* the recovered scores are identical to a one-shot ``repro-serve`` run on
  the same records.
"""

import json
import os
import signal
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.jobs import JobsClient, JobStore, TERMINAL_STATES

TASK = "turn_right_traffic_light"
RESPONSES = (
    "1. Observe the traffic light.\n"
    "2. If the traffic light is not green, stop.\n"
    "3. If there is no car from the left and no pedestrian, turn right.",
    "1. Go.",
    "1. Stop.",
    "1. If the traffic light is green, turn right.",
    "1. Observe the traffic light.\n2. Turn right.",
    "1. Stop.\n2. If the traffic light is green, go.",
)


def _records():
    return [{"task": TASK, "response": response} for response in RESPONSES]


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _spawn_daemon(socket_path: Path, store_dir: Path, *, throttle: float):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serving.cli",
            "daemon",
            "--socket",
            str(socket_path),
            "--store",
            str(store_dir),
            "--throttle-seconds",
            str(throttle),
            # Keep the whole history in the journal so the test can audit it.
            "--snapshot-every",
            "100000",
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parents[2],
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 30
    client = JobsClient(socket_path, client_id="crash-test", timeout=30)
    while True:
        try:
            client.stats()
            return proc, client
        except (ConnectionRefusedError, FileNotFoundError):
            assert proc.poll() is None, f"daemon died at startup:\n{proc.stderr.read()}"
            assert time.monotonic() < deadline, "daemon socket never came up"
            time.sleep(0.1)


@pytest.fixture(scope="module")
def oneshot_scores(tmp_path_factory):
    """Scores from the plain one-shot CLI path — the ground truth."""
    root = tmp_path_factory.mktemp("oneshot")
    inputs = root / "in.jsonl"
    output = root / "out.jsonl"
    _write_jsonl(inputs, _records())
    subprocess.run(
        [sys.executable, "-m", "repro.serving.cli", str(inputs), "-o", str(output)],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).resolve().parents[2],
        check=True,
        capture_output=True,
    )
    scored = [json.loads(line) for line in output.read_text().splitlines()]
    assert len(scored) == len(RESPONSES)
    return {record["response"]: record["score"] for record in scored}


def test_sigkill_midbatch_recovers_exactly_once(oneshot_scores):
    root = Path(tempfile.mkdtemp(prefix="repro-crash-", dir="/tmp"))
    socket_path = root / "daemon.sock"
    store_dir = root / "store"
    proc2 = None
    try:
        proc, client = _spawn_daemon(socket_path, store_dir, throttle=0.3)
        batch = client.create_batch(_records())["batch"]

        # Let some — but not all — jobs finish, then pull the plug.
        deadline = time.monotonic() + 60
        while True:
            done = client.stats()["states"].get("succeeded", 0)
            if 1 <= done < len(RESPONSES):
                break
            assert done < len(RESPONSES), "batch finished before the kill"
            assert time.monotonic() < deadline, "no job finished in time"
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        # A fresh daemon on the same store resumes the leftovers.
        proc2, client = _spawn_daemon(socket_path, store_dir, throttle=0.0)
        final = client.wait_batch(batch["batch_id"])
        assert sorted(final) == batch["job_ids"]
        assert all(job["state"] == "succeeded" for job in final.values())

        # Recovered scores match the one-shot path bit for bit.
        for job in final.values():
            assert job["score"] == oneshot_scores[job["response"]], job["job_id"]

        # The journal holds the full history (snapshotting was disabled):
        # exactly one terminal record per job, ever.
        journal = store_dir / JobStore.JOURNAL_NAME
        terminal_counts = {job_id: 0 for job_id in batch["job_ids"]}
        for line in journal.read_text().splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a SIGKILL can tear the final line mid-write
            if record["kind"] == "job" and record["job"]["state"] in TERMINAL_STATES:
                terminal_counts[record["job"]["job_id"]] += 1
        assert terminal_counts == {job_id: 1 for job_id in batch["job_ids"]}

        client.shutdown()
        assert proc2.wait(timeout=30) == 0
    finally:
        for daemon in (locals().get("proc"), proc2):
            if daemon is not None:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait(timeout=10)
                daemon.stderr.close()
        shutil.rmtree(root, ignore_errors=True)
