"""Admission control: the bounded queue, and 429/503 over HTTP."""

import threading
import time

import pytest

from repro.runner.cache import ResultCache
from repro.serve.admission import AdmissionError
from repro.serve.jobqueue import DONE, JobQueue, QueueShutdown
from repro.serve.schemas import RunRequest

from tests.serve.test_jobqueue import CountingExecutor, make_record


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestQueueAdmission:
    def test_full_queue_refuses_cold_jobs(self, cache):
        gate = threading.Event()
        executor = CountingExecutor(gate=gate)
        queue = JobQueue(
            workers=1, cache=cache, executor=executor, max_pending=1
        )
        queue.start()
        try:
            queue.submit_run(RunRequest(exp_id="validation"))
            # Wait until the worker has taken the first job off the
            # queue so exactly one slot of backlog remains.
            deadline = time.time() + 5
            while queue.depth() > 0 and time.time() < deadline:
                time.sleep(0.02)
            waiting = queue.submit_run(
                RunRequest(exp_id="validation", overrides={"seed": 2})
            )
            assert waiting.state == "pending"
            with pytest.raises(AdmissionError) as excinfo:
                queue.submit_run(
                    RunRequest(exp_id="validation", overrides={"seed": 3})
                )
            assert excinfo.value.retry_after >= 1.0
            # The refused job was never registered: polling its ID is
            # a miss, not a stuck pending envelope.
            assert queue.registry.counts()["pending"] == 1
        finally:
            gate.set()
            queue.stop()

    def test_warm_submissions_bypass_a_full_queue(self, cache):
        from repro.runner.api import resolve_config

        config = resolve_config("validation")
        cache.store(make_record(config, payload="warm"))
        queue = JobQueue(
            workers=1, cache=cache,
            executor=CountingExecutor(), max_pending=0,
        )
        queue.start()
        try:
            # max_pending=0 refuses every cold job...
            with pytest.raises(AdmissionError):
                queue.submit_run(
                    RunRequest(exp_id="validation", overrides={"seed": 9})
                )
            # ...but the warm path costs nothing and is never refused.
            job = queue.submit_run(RunRequest(exp_id="validation"))
            assert job.state == DONE
            assert job.simulated is False
        finally:
            queue.stop()

    def test_coalesced_submissions_bypass_a_full_queue(self, cache):
        gate = threading.Event()
        executor = CountingExecutor(gate=gate)
        queue = JobQueue(
            workers=1, cache=cache, executor=executor, max_pending=1
        )
        queue.start()
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            rider = queue.submit_run(RunRequest(exp_id="validation"))
            assert rider is first
            assert first.coalesced == 1
            gate.set()
            assert first.wait(10)
            assert executor.calls == 1
        finally:
            gate.set()
            queue.stop()

    def test_retry_after_scales_with_backlog(self, cache):
        queue = JobQueue(
            workers=2, cache=cache, executor=CountingExecutor()
        )
        assert 1.0 <= queue.retry_after_hint() <= 120.0
        queue._avg_seconds = 10.0
        assert queue.retry_after_hint() >= 1.0


class TestShutdownRefusal:
    def test_submissions_after_stop_get_queue_shutdown(self, cache):
        queue = JobQueue(
            workers=1, cache=cache, executor=CountingExecutor()
        )
        queue.start()
        queue.stop()
        with pytest.raises(QueueShutdown):
            queue.submit_run(RunRequest(exp_id="validation"))

    def test_warm_answers_survive_shutdown(self, cache):
        from repro.runner.api import resolve_config

        config = resolve_config("validation")
        cache.store(make_record(config, payload="warm"))
        queue = JobQueue(
            workers=1, cache=cache, executor=CountingExecutor()
        )
        queue.start()
        queue.stop()
        job = queue.submit_run(RunRequest(exp_id="validation"))
        assert job.state == DONE and job.simulated is False


class TestHttpAdmission:
    def test_full_queue_gets_429_over_http(self, tmp_path):
        import json
        import urllib.error
        import urllib.request

        from repro import api

        gate = threading.Event()
        executor = CountingExecutor(gate=gate)
        server = api.serve(
            port=0,
            block=False,
            jobs=1,
            cache=ResultCache(tmp_path / "cache"),
            executor=executor,
            max_pending=0,
            quiet=True,
        )
        try:
            request = urllib.request.Request(
                server.url + "/v1/runs",
                data=json.dumps({"experiment": "validation"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            assert "queue full" in json.loads(excinfo.value.read())["error"]
        finally:
            gate.set()
            server.stop()
