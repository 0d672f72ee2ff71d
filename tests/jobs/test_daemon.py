"""The jobs daemon over a stub scorer: lifecycle, retries, quota, fairness."""

import json
import time

import pytest

from repro.jobs import (
    CANCELLED,
    FAILED,
    PENDING,
    RETRYING,
    RUNNING,
    SUCCEEDED,
    JobsClient,
    JobsError,
    JobStore,
    QuotaExceededError,
    UnknownJobError,
)
from repro.jobs.server import MAX_REQUEST_BYTES
from repro.utils.retry import RetryPolicy

TASK = "turn_right_traffic_light"  # resolves to scenario traffic_light_intersection

#: One malformed ``{task, response[, scenario]}`` record per way to be wrong.
BAD_RECORDS = {
    "non-object": [TASK, "1. Stop."],
    "missing-task": {"response": "1. Stop."},
    "non-string-response": {"task": TASK, "response": 1},
    "non-string-scenario": {"task": TASK, "response": "1. Stop.", "scenario": 9},
    "unknown-task": {"task": "no_such_task", "response": "1. Stop."},
    "unknown-scenario": {"task": TASK, "response": "1. Stop.", "scenario": "no_such_scenario"},
}


class TestLifecycle:
    def test_job_runs_to_success(self, daemon_factory, client):
        daemon, store, stub = daemon_factory()
        job = client.create_job(TASK, "1. Stop.")
        assert job["state"] == PENDING
        assert job["job_id"] == "j-000001"
        assert job["scenario"] == "traffic_light_intersection"  # resolved from the catalogue
        final = client.wait([job["job_id"]])[job["job_id"]]
        assert final["state"] == SUCCEEDED
        assert final["score"] == len("1. Stop.")  # the stub's score
        assert final["attempts"] == 1
        assert final["error"] is None

    def test_batch_is_admitted_atomically(self, daemon_factory, client):
        daemon_factory()
        result = client.create_batch(
            [
                {"task": TASK, "response": "1. Stop."},
                {"task": TASK, "response": "1. Go.", "scenario": "traffic_light_intersection"},
            ]
        )
        batch = result["batch"]
        assert batch["job_ids"] == ["j-000001", "j-000002"]
        assert all(job["batch_id"] == batch["batch_id"] for job in result["jobs"])
        final = client.wait_batch(batch["batch_id"])
        assert sorted(final) == batch["job_ids"]
        assert all(job["state"] == SUCCEEDED for job in final.values())

    def test_invalid_submissions_are_typed_errors(self, daemon_factory, client):
        daemon_factory()
        with pytest.raises(JobsError) as excinfo:
            client.create_job("no_such_task", "1. Stop.")
        assert excinfo.value.error_type == "invalid-request"
        with pytest.raises(JobsError) as excinfo:
            client.create_job(TASK, "1. Stop.", scenario="no_such_scenario")
        assert excinfo.value.error_type == "invalid-request"
        with pytest.raises(UnknownJobError):
            client.get_status("j-999999")
        with pytest.raises(UnknownJobError):
            client.get_batch("b-999999")

    @pytest.mark.parametrize("record", BAD_RECORDS.values(), ids=BAD_RECORDS)
    def test_cli_and_daemon_reject_a_bad_record_with_the_same_words(
        self, daemon_factory, client, tmp_path, record
    ):
        from repro.serving.cli import load_jobs

        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError) as cli_error:
            load_jobs(path)
        prefix = f"{path}:1: "
        assert str(cli_error.value).startswith(prefix)
        daemon_factory()
        with pytest.raises(JobsError) as daemon_error:
            client.create_batch([record])
        assert daemon_error.value.error_type == "invalid-request"
        assert str(daemon_error.value) == str(cli_error.value)[len(prefix):]

    def test_list_jobs_filters(self, daemon_factory, client):
        daemon_factory()
        job = client.create_job(TASK, "1. Stop.")
        client.wait([job["job_id"]])
        assert [j["job_id"] for j in client.list_jobs(state=SUCCEEDED)] == [job["job_id"]]
        assert client.list_jobs(state=PENDING) == []
        assert client.list_jobs(client_id="tester") != []
        assert client.list_jobs(client_id="someone-else") == []

    def test_stats_counts_states(self, daemon_factory, client):
        daemon_factory()
        job = client.create_job(TASK, "1. Stop.")
        client.wait([job["job_id"]])
        stats = client.stats()
        assert stats["states"][SUCCEEDED] == 1
        assert stats["queue_depth"] == 0
        assert stats["inflight"] == {}  # released on completion


class TestRetries:
    def test_transient_failures_retry_to_success(self, daemon_factory, client):
        daemon, store, stub = daemon_factory(
            fail_times={"1. Stop.": 2}, retry=RetryPolicy(max_attempts=3)
        )
        job = client.create_job(TASK, "1. Stop.")
        final = client.wait([job["job_id"]])[job["job_id"]]
        assert final["state"] == SUCCEEDED
        assert final["attempts"] == 3  # two failures + the success
        assert stub.calls == ["1. Stop."] * 3

    def test_exhausted_retries_fail_and_release_quota(self, daemon_factory, client):
        daemon, store, stub = daemon_factory(
            fail_times={"1. Stop.": 99},
            retry=RetryPolicy(max_attempts=2),
            max_inflight_per_client=1,
        )
        job = client.create_job(TASK, "1. Stop.")
        final = client.wait([job["job_id"]])[job["job_id"]]
        assert final["state"] == FAILED
        assert final["attempts"] == 2
        assert "injected failure" in final["error"]
        assert client.stats()["inflight"] == {}
        # The quota slot is free again: a new submission is admitted.
        assert client.create_job(TASK, "1. Go.")["state"] == PENDING

    def test_retry_states_are_journaled(self, daemon_factory, client, jobs_root):
        daemon, store, stub = daemon_factory(
            fail_times={"1. Stop.": 1}, retry=RetryPolicy(max_attempts=2)
        )
        job = client.create_job(TASK, "1. Stop.")
        client.wait([job["job_id"]])
        journal = (jobs_root / "store" / JobStore.JOURNAL_NAME).read_text()
        states = [
            line.split('"state": "')[1].split('"')[0]
            for line in journal.splitlines()
            if '"kind": "job"' in line
        ]
        assert states == [PENDING, RUNNING, RETRYING, RUNNING, SUCCEEDED]


class TestCancel:
    def test_pending_job_cancels_before_running(self, daemon_factory, client):
        daemon, store, stub = daemon_factory()
        gate = stub.gate("1. Blocker.")
        blocker = client.create_job(TASK, "1. Blocker.")
        victim = client.create_job(TASK, "1. Victim.")
        cancelled = client.cancel(victim["job_id"])
        assert cancelled["state"] == CANCELLED
        gate.set()
        client.wait([blocker["job_id"]])
        final = client.get_status(victim["job_id"])
        assert final["state"] == CANCELLED
        assert final["attempts"] == 0  # never started
        assert "1. Victim." not in stub.calls

    def test_terminal_and_running_jobs_are_not_cancellable(self, daemon_factory, client):
        daemon, store, stub = daemon_factory()
        gate = stub.gate("1. Running.")
        running = client.create_job(TASK, "1. Running.")
        deadline = time.monotonic() + 10
        while client.get_status(running["job_id"])["state"] != RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(JobsError) as excinfo:
            client.cancel(running["job_id"])
        assert excinfo.value.error_type == "not-cancellable"
        gate.set()
        client.wait([running["job_id"]])
        with pytest.raises(JobsError) as excinfo:
            client.cancel(running["job_id"])
        assert excinfo.value.error_type == "not-cancellable"


class TestQuota:
    def test_over_quota_submission_is_a_typed_client_error(self, daemon_factory, client):
        daemon, store, stub = daemon_factory(max_inflight_per_client=2)
        gate = stub.gate("1. Hold.")
        held = client.create_job(TASK, "1. Hold.")
        client.create_job(TASK, "1. Waiting.")
        with pytest.raises(QuotaExceededError) as excinfo:
            client.create_job(TASK, "1. Overflow.")
        assert excinfo.value.error_type == "quota-exceeded"
        # All-or-nothing for batches: nothing was admitted, so completing the
        # held job frees exactly one slot.
        with pytest.raises(QuotaExceededError):
            client.create_batch(
                [{"task": TASK, "response": "1. A."}, {"task": TASK, "response": "1. B."}]
            )
        gate.set()
        client.wait([held["job_id"]])
        assert client.create_job(TASK, "1. Fits now.")["state"] == PENDING

    def test_greedy_client_cannot_starve_another(self, daemon_factory, jobs_root):
        """With a greedy client's backlog queued first, a second client's job
        runs after at most one more greedy job — round-robin, not FIFO."""
        daemon, store, stub = daemon_factory(max_inflight_per_client=8)
        greedy = JobsClient(jobs_root / "daemon.sock", client_id="greedy", timeout=30)
        polite = JobsClient(jobs_root / "daemon.sock", client_id="polite", timeout=30)
        gate = stub.gate("1. Greedy 0.")
        greedy.create_batch(
            [{"task": TASK, "response": f"1. Greedy {n}."} for n in range(6)]
        )
        polite_job = polite.create_job(TASK, "1. Polite.")
        gate.set()
        polite.wait([polite_job["job_id"]])
        position = stub.calls.index("1. Polite.")
        assert position <= 2, f"polite job starved: execution order {stub.calls}"


class TestStreams:
    def test_stream_progress_reports_every_transition(self, daemon_factory, client):
        daemon_factory()
        job = client.create_job(TASK, "1. Stop.")
        events = list(client.stream_progress(job_ids=[job["job_id"]]))
        states = [e["job"]["state"] for e in events if e["type"] == "job"]
        # Initial snapshot + transitions; the stream may attach before or
        # after the run starts, but always ends with the terminal state.
        assert states[-1] == SUCCEEDED
        assert events[-1] == {"type": "end", "reason": "done"}

    def test_stream_by_batch(self, daemon_factory, client):
        daemon_factory()
        batch = client.create_batch(
            [{"task": TASK, "response": "1. A."}, {"task": TASK, "response": "1. B."}]
        )["batch"]
        events = list(client.stream_progress(batch_id=batch["batch_id"]))
        terminal = {
            e["job"]["job_id"]: e["job"]["state"]
            for e in events
            if e["type"] == "job" and e["job"]["state"] == SUCCEEDED
        }
        assert sorted(terminal) == batch["job_ids"]

    def test_stream_unknown_target_is_typed(self, daemon_factory, client):
        daemon_factory()
        with pytest.raises(UnknownJobError):
            list(client.stream_progress(job_ids=["j-424242"]))
        with pytest.raises(JobsError) as excinfo:
            list(client.stream_progress())
        assert excinfo.value.error_type == "invalid-request"


class TestRestart:
    def test_restart_resumes_pending_jobs(self, daemon_factory, client, jobs_root):
        daemon1, store1, stub1 = daemon_factory()
        gate = stub1.gate("1. Running one.")
        running = client.create_job(TASK, "1. Running one.")
        queued = client.create_batch(
            [{"task": TASK, "response": "1. Queued A."}, {"task": TASK, "response": "1. Queued B."}]
        )["batch"]
        deadline = time.monotonic() + 10
        while client.get_status(running["job_id"])["state"] != RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        daemon1.stop()  # graceful: queued jobs skip execution and stay durable
        gate.set()  # the in-flight attempt finishes and journals its success
        deadline = time.monotonic() + 10
        while store1.get(running["job_id"]).state != SUCCEEDED:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert [job.job_id for job in store1.pending_jobs()] == queued["job_ids"]
        store1.close()

        store2 = JobStore(jobs_root / "store")
        daemon2, _store, stub2 = daemon_factory(store=store2)
        final = client.wait(queued["job_ids"])
        assert all(job["state"] == SUCCEEDED for job in final.values())
        # The first daemon's completed job was not re-run by the second.
        assert "1. Running one." not in stub2.calls
        assert store2.get(running["job_id"]).state == SUCCEEDED

    def test_restart_requeues_job_killed_mid_attempt(self, daemon_factory, client, jobs_root):
        # Simulate dying mid-RUNNING: write the RUNNING record, never finish.
        store1 = JobStore(jobs_root / "store")
        from repro.jobs import Job

        job = Job(
            job_id="j-000001",
            client_id="tester",
            task=TASK,
            scenario="traffic_light_intersection",
            response="1. Interrupted.",
            created_at=1.0,
            updated_at=1.0,
        )
        store1.append_job(job)
        store1.append_job(job.transition(RUNNING, at=2.0, attempts=1))
        store1._journal.close()  # abandon without close(): no final snapshot

        store2 = JobStore(jobs_root / "store")
        daemon, _store, stub = daemon_factory(store=store2)
        final = client.wait(["j-000001"])["j-000001"]
        assert final["state"] == SUCCEEDED
        assert final["attempts"] == 2  # the interrupted attempt plus the re-run
        assert stub.calls == ["1. Interrupted."]


class TestWireProtocol:
    """Malformed request lines get typed errors; the connection survives."""

    #: Lines that used to raise inside the connection thread (AttributeError
    #: on list params, TypeError hashing a list op or a list job id,
    #: RecursionError decoding deep nesting, UnicodeDecodeError on invalid
    #: UTF-8), so the client saw EOF instead of an answer.
    MALFORMED = (
        '{"op": "get_status", "params": [1, 2]}',
        '{"op": ["x"]}',
        '{"op": "stream_progress", "params": {"job_ids": [[1]]}}',
        '{"op": "stream_progress", "params": {"batch_id": ["b"]}}',
        '{"op": "list_jobs", "params": {"state": [1]}}',
        '{"params": {}}',
        "[1, 2]",
        "1" * 5000,
        b'{"op": "\xff"}',
    )

    def test_malformed_envelopes_keep_the_connection(self, daemon_factory, wire):
        daemon_factory()
        connection = wire()
        for line in self.MALFORMED:
            (reply,) = connection.request(line)
            assert reply["ok"] is False, line
            assert reply["error"]["type"] == "invalid-request", (line, reply)
        (stats,) = connection.request(json.dumps({"op": "stats"}))
        assert stats["ok"] and stats["result"]["protocol"] == 1

    def test_carriage_return_does_not_split_a_request(self, daemon_factory, wire):
        """Requests are newline-delimited; a bare CR between JSON tokens is
        whitespace, not a line break, so the line gets one reply."""
        daemon_factory()
        connection = wire()
        (reply,) = connection.request(b'{"op":\r"stats"}')
        assert reply["ok"] and reply["result"]["protocol"] == 1
        (stats,) = connection.request('{"op": "stats"}')
        assert stats["ok"]

    def test_an_over_long_line_is_refused_and_the_connection_kept(self, daemon_factory, wire):
        """A line over ``MAX_REQUEST_BYTES`` is answered ``invalid-request``
        without being parsed — even one that would be a valid request — and
        the next line on the same connection is served.  A line of exactly
        the cap is read whole."""
        daemon_factory()
        connection = wire()
        stats = b'{"op": "stats"}'
        over = stats + b" " * (MAX_REQUEST_BYTES + 1 - len(stats))
        (reply,) = connection.request(over)
        assert reply["ok"] is False and reply["error"]["type"] == "invalid-request"
        assert str(MAX_REQUEST_BYTES) in reply["error"]["message"]
        (reply,) = connection.request(stats)
        assert reply["ok"] and reply["result"]["protocol"] == 1
        (reply,) = connection.request(over[:MAX_REQUEST_BYTES])
        assert reply["ok"] and reply["result"]["protocol"] == 1

    def test_deeply_nested_request_is_bad_json(self, daemon_factory, wire):
        daemon_factory()
        connection = wire()
        (reply,) = connection.request("[" * 100_000)
        assert reply["ok"] is False and reply["error"]["type"] == "invalid-request"
        assert reply["error"]["message"].startswith("bad JSON")
        (stats,) = connection.request('{"op": "stats"}')
        assert stats["ok"]
