"""Durability of the journal + snapshot job store."""

import json
import re
import shutil

import pytest

from repro.jobs import Batch, Job, JobStore, PENDING, RUNNING, SUCCEEDED


def _job(n: int, state: str = PENDING, **kwargs) -> Job:
    defaults = dict(
        job_id=f"j-{n:06d}",
        client_id="c",
        task="t",
        scenario="s",
        response=f"r{n}",
        state=state,
        created_at=1.0,
        updated_at=1.0,
    )
    defaults.update(kwargs)
    return Job(**defaults)


class TestJournalReplay:
    def test_reopen_restores_jobs_and_batches(self, tmp_path):
        with JobStore(tmp_path / "s") as store:
            store.append_job(_job(1))
            store.append_job(_job(2))
            store.append_batch(
                Batch(batch_id="b-000001", client_id="c", job_ids=("j-000001",), created_at=1.0)
            )
        with JobStore(tmp_path / "s") as reopened:
            assert [job.job_id for job in reopened.jobs()] == ["j-000001", "j-000002"]
            assert reopened.get_batch("b-000001").job_ids == ("j-000001",)

    def test_last_record_per_job_wins(self, tmp_path):
        with JobStore(tmp_path / "s") as store:
            job = _job(1)
            store.append_job(job)
            job = job.transition(RUNNING, at=2.0, attempts=1)
            store.append_job(job)
            store.append_job(job.transition(SUCCEEDED, at=3.0, score=4))
        with JobStore(tmp_path / "s") as reopened:
            final = reopened.get("j-000001")
            assert (final.state, final.score, final.attempts) == (SUCCEEDED, 4, 1)
            assert reopened.pending_jobs() == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        store = JobStore(tmp_path / "s")
        store.append_job(_job(1))
        store.append_job(_job(2))
        # Simulate a crash mid-append: a truncated trailing line, no close().
        journal = tmp_path / "s" / JobStore.JOURNAL_NAME
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "job", "job": {"job_id": "j-0000')
        with JobStore(tmp_path / "s") as reopened:
            assert [job.job_id for job in reopened.jobs()] == ["j-000001", "j-000002"]
        store.close()

    def test_a_torn_append_is_cut_off_before_the_next(self, tmp_path):
        """A crash mid-append tears the journal at any byte.  Cut a 5-job
        journal at every offset, reopen, append a sixth job and crash again
        (no snapshot): the first replay holds exactly the complete records,
        and the second holds them plus the sixth job."""
        source = JobStore(tmp_path / "source")
        for n in range(1, 6):
            source.append_job(_job(n, response=f"response {n} " * n))
        data = (tmp_path / "source" / JobStore.JOURNAL_NAME).read_bytes()
        source.close()
        for cut in range(len(data) + 1):
            complete = [json.loads(line)["job"] for line in data[:cut].split(b"\n")[:-1]]
            root = tmp_path / f"cut-{cut}"
            root.mkdir()
            (root / JobStore.JOURNAL_NAME).write_bytes(data[:cut])
            store = JobStore(root)
            assert [job.to_record() for job in store.jobs()] == complete, cut
            store.append_job(_job(6))
            crashed = root.with_name(f"crashed-{cut}")
            crashed.mkdir()
            shutil.copy(root / JobStore.JOURNAL_NAME, crashed / JobStore.JOURNAL_NAME)
            store.close()
            with JobStore(crashed) as reopened:
                assert [job.to_record() for job in reopened.jobs()] == complete + [_job(6).to_record()], cut

    @pytest.mark.parametrize(
        "line",
        [
            json.dumps({"kind": "job", "job": {"job_id": "j-000002"}}),
            json.dumps({"kind": "batch", "batch": {"batch_id": "b-000001", "client_id": "c", "job_ids": 5}}),
            json.dumps([1, 2]),
            '{"kind": "job", "job": {"job_id": "j-0000',
            json.dumps({"kind": "job", "job": {**_job(2).to_record(), "job_id": 5}}),
        ],
        ids=["job-without-fields", "batch-ids-not-a-list", "not-an-object", "not-json", "wrong-typed-job-id"],
    )
    def test_wrong_shaped_record_names_its_line(self, tmp_path, line):
        """A complete line that is not JSON, or is JSON of the wrong shape,
        is a ValueError naming the journal line, which ``repro-serve
        daemon`` reports in one line; the records after it are not dropped
        silently."""
        root = tmp_path / "s"
        root.mkdir()
        journal = root / JobStore.JOURNAL_NAME
        journal.write_text(
            json.dumps({"kind": "job", "job": _job(1).to_record()}) + "\n"
            + line + "\n"
            + json.dumps({"kind": "job", "job": _job(3).to_record()}) + "\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{journal}:2: malformed record")):
            JobStore(root)

    def test_unknown_record_kind_rejected(self, tmp_path):
        store = JobStore(tmp_path / "s")
        journal = tmp_path / "s" / JobStore.JOURNAL_NAME
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="unknown journal record kind"):
            JobStore(tmp_path / "s")
        store.close()


class TestSnapshot:
    def test_periodic_snapshot_truncates_journal(self, tmp_path):
        store = JobStore(tmp_path / "s", snapshot_every=3)
        for n in range(1, 4):
            store.append_job(_job(n))
        journal = tmp_path / "s" / JobStore.JOURNAL_NAME
        snapshot = tmp_path / "s" / JobStore.SNAPSHOT_NAME
        assert snapshot.exists()
        assert journal.read_text() == ""  # everything rolled into the snapshot
        # Appends after the snapshot land in the (reset) journal again.
        store.append_job(_job(4))
        assert json.loads(journal.read_text())["job"]["job_id"] == "j-000004"
        store.close()
        with JobStore(tmp_path / "s") as reopened:
            assert len(reopened.jobs()) == 4

    def test_snapshot_is_idempotent_with_journal_replay(self, tmp_path):
        # A crash *between* snapshot and truncation replays journal records
        # already in the snapshot; last-wins replay makes that harmless.
        store = JobStore(tmp_path / "s")
        job = _job(1)
        store.append_job(job)
        store.snapshot()
        journal = tmp_path / "s" / JobStore.JOURNAL_NAME
        with journal.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "job", "job": job.to_record()}) + "\n")
        with JobStore(tmp_path / "s") as reopened:
            assert len(reopened.jobs()) == 1
        store.close()

    def test_close_snapshots_and_rejects_appends(self, tmp_path):
        store = JobStore(tmp_path / "s")
        store.append_job(_job(1))
        store.close()
        store.close()  # idempotent
        assert (tmp_path / "s" / JobStore.SNAPSHOT_NAME).exists()
        with pytest.raises(ValueError, match="closed JobStore"):
            store.append_job(_job(2))

    @pytest.mark.parametrize(
        "job",
        [{"job_id": "j-1"}, {**_job(1).to_record(), "job_id": 5}],
        ids=["job-without-fields", "wrong-typed-job-id"],
    )
    def test_wrong_shaped_snapshot_names_its_file(self, tmp_path, job):
        root = tmp_path / "s"
        root.mkdir()
        snapshot = root / JobStore.SNAPSHOT_NAME
        snapshot.write_text(json.dumps({"schema": 1, "jobs": [job]}))
        with pytest.raises(ValueError, match=re.escape(f"{snapshot}: malformed snapshot")):
            JobStore(root)

    def test_snapshot_every_validated(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            JobStore(tmp_path / "s", snapshot_every=0)


class TestQueries:
    def test_pending_jobs_excludes_terminal(self, tmp_path):
        with JobStore(tmp_path / "s") as store:
            store.append_job(_job(1))
            running = _job(2).transition(RUNNING, at=2.0, attempts=1)
            store.append_job(running)
            store.append_job(running.transition(SUCCEEDED, at=3.0, score=1))
            store.append_job(_job(3))
            assert [job.job_id for job in store.pending_jobs()] == ["j-000001", "j-000003"]

    def test_get_unknown_returns_none(self, tmp_path):
        with JobStore(tmp_path / "s") as store:
            assert store.get("j-999999") is None
            assert store.get_batch("b-999999") is None
