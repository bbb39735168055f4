"""Tests for job records and the job queue lifecycle."""

from repro.service import jobs as jobstates
from repro.service.jobs import JobQueue


def _spec(tag="x"):
    return {"type": "cell", "workload": tag}


class TestSubmission:
    def test_submit_enqueues(self):
        queue = JobQueue()
        job, deduplicated = queue.submit(_spec(), "key1")
        assert not deduplicated
        assert job.state == jobstates.QUEUED
        assert queue.queue_depth() == 1
        assert queue.get(job.id) is job

    def test_ids_are_unique_and_ordered(self):
        queue = JobQueue()
        a, _ = queue.submit(_spec("a"), "ka")
        b, _ = queue.submit(_spec("b"), "kb")
        assert a.id != b.id
        assert [j.id for j in queue.jobs()] == [a.id, b.id]

    def test_inflight_deduplication(self):
        queue = JobQueue()
        first, _ = queue.submit(_spec(), "samekey")
        second, deduplicated = queue.submit(_spec(), "samekey")
        assert deduplicated
        assert second is first
        assert queue.queue_depth() == 1
        assert queue.stats()["submitted"] == 2

    def test_no_dedup_against_terminal_jobs(self):
        queue = JobQueue()
        first, _ = queue.submit(_spec(), "samekey")
        claimed = queue.next_job()
        queue.finish(claimed, jobstates.FAILED, error="boom")
        second, deduplicated = queue.submit(_spec(), "samekey")
        assert not deduplicated
        assert second is not first

    def test_add_cached_never_queues(self):
        queue = JobQueue()
        job = queue.add_cached(_spec(), "key", {"rows": []})
        assert job.state == jobstates.DONE
        assert job.cached
        assert job.stored
        assert queue.queue_depth() == 0
        assert queue.stats()["completed"] == 0  # never simulated


class TestLifecycle:
    def test_claim_and_finish(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "k")
        claimed = queue.next_job()
        assert claimed is job
        assert claimed.state == jobstates.RUNNING
        queue.finish(claimed, jobstates.DONE, payload={"ok": 1}, stored=True)
        assert job.state == jobstates.DONE
        assert queue.stats()["completed"] == 1

    def test_next_job_times_out_empty(self):
        assert JobQueue().next_job(timeout=0.01) is None

    def test_cancel_queued_resolves_on_claim(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "k")
        assert queue.cancel(job.id) is job
        assert queue.next_job() is None  # resolved, not claimed
        assert job.state == jobstates.CANCELLED
        assert queue.stats()["cancelled"] == 1

    def test_cancel_unknown_returns_none(self):
        assert JobQueue().cancel("job-nope") is None

    def test_cancel_terminal_is_noop(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "k")
        claimed = queue.next_job()
        queue.finish(claimed, jobstates.DONE, payload={})
        queue.cancel(job.id)
        assert job.state == jobstates.DONE
        assert not job.cancel_event.is_set()


class TestViews:
    def test_as_dict_shapes(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "k")
        view = job.as_dict()
        assert view["state"] == "queued"
        assert view["result_key"] == "k"
        assert "result" not in view
        claimed = queue.next_job()
        claimed.progress = (3, 24)
        queue.finish(claimed, jobstates.DONE, payload={"rows": []}, stored=False)
        view = job.as_dict()
        assert view["progress"] == {"done": 3, "total": 24}
        assert view["result"] == {"rows": []}
        assert view["stored"] is False
        assert "result" not in job.as_dict(include_result=False)

    def test_registry_trims_terminal_jobs_only(self):
        queue = JobQueue(max_jobs=2)
        first, _ = queue.submit(_spec("a"), "ka")
        claimed = queue.next_job()
        queue.finish(claimed, jobstates.DONE, payload={})
        queue.submit(_spec("b"), "kb")
        queue.submit(_spec("c"), "kc")
        ids = [j.id for j in queue.jobs()]
        assert first.id not in ids  # oldest terminal record dropped
        assert len(ids) == 2


class TestNoteMutators:
    """The queue-mediated job mutators the dispatchers use instead of
    writing job records directly (shared with the HTTP threads)."""

    def test_note_attempt_updates_record(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "key-a")
        queue.note_attempt(job, 3)
        assert job.attempts == 3

    def test_note_progress_updates_record(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "key-b")
        queue.note_progress(job, 2, 8)
        assert job.progress == (2, 8)

    def test_mutators_are_visible_in_job_view(self):
        queue = JobQueue()
        job, _ = queue.submit(_spec(), "key-c")
        queue.note_attempt(job, 1)
        queue.note_progress(job, 4, 4)
        view = job.as_dict()
        assert view["attempts"] == 1
        assert view["progress"] == {"done": 4, "total": 4}
