"""Job queue behavior: coalescing, warm path, failure, force."""

import dataclasses
import threading
import time

import pytest

from repro.core import experiments
from repro.runner.api import resolve_config
from repro.runner.cache import ResultCache, cache_key
from repro.runner.record import RunRecord
from repro.serve.jobqueue import DONE, FAILED, JobQueue, run_job, spawned_executor
from repro.serve.schemas import RunRequest, SchemaError, SweepRequest


def make_record(config, payload="x") -> RunRecord:
    """A well-formed record for ``config`` without simulating."""
    return RunRecord(
        exp_id=config.exp_id,
        title="test",
        paper_tables="-",
        cache_key=cache_key(config),
        config=config.to_jsonable(),
        elapsed_seconds=0.01,
        checks=[["shape", True, payload]],
        rendered=payload,
        summary={"kind": "scalars", "data": {"payload": payload}},
    )


def answer(cache_dir, record):
    """What a job's library call does with a record it simulated: store
    it in the cache, and return it as the job's payload."""
    ResultCache(cache_dir).store(record)
    return record.to_jsonable(), True


class CountingExecutor:
    """An executor for run jobs that counts calls and can block on a gate."""

    def __init__(self, gate=None, fail=False):
        self.calls = 0
        self.lock = threading.Lock()
        self.gate = gate
        self.fail = fail

    def __call__(self, request: RunRequest, cache_dir):
        with self.lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(10), "executor gate never opened"
        if self.fail:
            raise RuntimeError("injected simulation failure")
        config = resolve_config(request.exp_id, request.overrides or None)
        return answer(cache_dir, make_record(config))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def make_queue(cache, executor, workers=2, **kwargs):
    queue = JobQueue(
        workers=workers, cache=cache, executor=executor, **kwargs
    )
    queue.start()
    return queue


def fail_here(monkeypatch, exp_id):
    """Make this process's runner for ``exp_id`` fail if called; a
    spawned worker imports the real registry."""
    spec = experiments.EXPERIMENTS[exp_id]

    def here(config):
        raise AssertionError("simulated in the serving process")

    monkeypatch.setitem(
        experiments.EXPERIMENTS, exp_id, dataclasses.replace(spec, runner=here)
    )


class TestDefaultRunExecutor:
    def test_cold_job_simulates_in_a_spawned_worker(self, cache, monkeypatch):
        """The HTTP threads share the queue's process, so a cold job
        must not simulate there."""
        fail_here(monkeypatch, "validation")
        queue = JobQueue(workers=1, cache=cache)
        queue.start()
        try:
            job = queue.submit_run(RunRequest(exp_id="validation"))
            assert job.wait(120)
            assert job.state == DONE, job.error
            assert job.simulated is True
        finally:
            queue.stop()


def finished_sweep(cache, request):
    """Run one sweep job through a default queue; its finished job."""
    queue = JobQueue(workers=1, cache=cache)
    queue.start()
    try:
        job = queue.submit_sweep(request)
        assert job.wait(120)
        return job
    finally:
        queue.stop()


class TestDefaultSweepExecutor:
    """A sweep job is a library call in a spawned worker, like a run,
    even when its cold points fit one batch."""

    def test_one_batch_sweep_simulates_in_a_spawned_worker(self, cache, monkeypatch):
        fail_here(monkeypatch, "em3d")
        job = finished_sweep(cache, SweepRequest(
            spec="em3d-latency", axes={"net_latency": [0, 25]}, jobs=1
        ))
        assert job.state == DONE, job.error
        assert job.simulated is True
        assert job.result["meta"]["simulated"] == 2

    def test_sweep_with_one_cold_point_simulates_in_a_spawned_worker(
        self, cache, monkeypatch
    ):
        from repro import api

        api.sweep("em3d-latency", axes={"net_latency": [0]}, jobs=1, cache=cache)
        fail_here(monkeypatch, "em3d")
        job = finished_sweep(cache, SweepRequest(
            spec="em3d-latency", axes={"net_latency": [0, 25]}, jobs=2
        ))
        assert job.state == DONE, job.error
        assert job.simulated is True
        assert job.result["meta"]["simulated"] == 1
        assert job.result["meta"]["cached"] == 1


def without_elapsed(value):
    """``value`` with every ``elapsed_seconds`` entry dropped."""
    if isinstance(value, dict):
        return {
            key: without_elapsed(item)
            for key, item in value.items() if key != "elapsed_seconds"
        }
    if isinstance(value, list):
        return [without_elapsed(item) for item in value]
    return value


class TestExecutorContract:
    def test_run_job_here_and_in_a_spawned_worker_agree(self, tmp_path):
        """Calling ``run_job`` in this process and the default executor
        give the same payload (apart from wall time) and the same
        ``simulated`` flag, each on its own cache. The last sweep's two
        cold points at ``jobs: 2`` make two batches, so the spawned
        worker starts a pool of its own for them."""
        requests = [
            RunRequest(exp_id="validation"),
            RunRequest(exp_id="validation"),
            SweepRequest(spec="em3d-latency", axes={"net_latency": [0, 25]}, jobs=1),
            SweepRequest(spec="em3d-latency", axes={"net_latency": [50, 100]}, jobs=2),
        ]
        here = [run_job(request, tmp_path / "here") for request in requests]
        there = [spawned_executor(request, tmp_path / "there") for request in requests]
        assert [simulated for _payload, simulated in here] == [True, False, True, True]
        assert [simulated for _payload, simulated in there] == [True, False, True, True]
        for (mine, _), (theirs, _) in zip(here, there):
            assert without_elapsed(mine) == without_elapsed(theirs)
        assert there[3][0]["meta"]["simulated"] == 2
        # The run payload is the record the library call stored.
        stored = ResultCache(tmp_path / "there").load(resolve_config("validation"))
        assert stored.to_jsonable() == there[0][0]

    def test_a_warm_sweep_is_not_simulated(self, tmp_path):
        request = SweepRequest(spec="em3d-latency", axes={"net_latency": [0]}, jobs=1)
        cold, simulated = run_job(request, tmp_path)
        assert simulated is True and cold["meta"]["simulated"] == 1
        warm, simulated = run_job(request, tmp_path)
        assert simulated is False and warm["meta"]["simulated"] == 0
        assert without_elapsed(warm["points"]) == without_elapsed(cold["points"])


class TestCoalescing:
    def test_concurrent_identical_submissions_share_one_simulation(self, cache):
        gate = threading.Event()
        executor = CountingExecutor(gate=gate)
        queue = make_queue(cache, executor, workers=2)
        try:
            request = RunRequest(exp_id="validation")
            jobs, threads = [], []
            lock = threading.Lock()

            def submit():
                job = queue.submit_run(request)
                with lock:
                    jobs.append(job)

            for _ in range(8):
                thread = threading.Thread(target=submit)
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(10)
            gate.set()

            assert len(jobs) == 8
            assert len({job.job_id for job in jobs}) == 1
            assert len({id(job) for job in jobs}) == 1  # the same Job object
            assert jobs[0].wait(10)
            assert jobs[0].state == DONE
            assert jobs[0].simulated is True
            assert jobs[0].coalesced == 7
            assert executor.calls == 1, "identical submissions must coalesce"
        finally:
            gate.set()
            queue.stop()

    def test_distinct_configs_get_distinct_jobs(self, cache):
        executor = CountingExecutor()
        queue = make_queue(cache, executor)
        try:
            a = queue.submit_run(RunRequest(exp_id="validation"))
            b = queue.submit_run(
                RunRequest(exp_id="validation", overrides={"seed": 7})
            )
            assert a.job_id != b.job_id
            assert a.wait(10) and b.wait(10)
            assert executor.calls == 2
        finally:
            queue.stop()

    def test_job_id_is_the_cache_key(self, cache):
        executor = CountingExecutor()
        queue = make_queue(cache, executor)
        try:
            job = queue.submit_run(RunRequest(exp_id="validation"))
            assert job.job_id == cache_key(resolve_config("validation"))
        finally:
            queue.stop()


class TestWarmPath:
    def test_cached_record_served_without_simulation(self, cache):
        config = resolve_config("validation")
        cache.store(make_record(config, payload="warm"))
        executor = CountingExecutor()
        queue = make_queue(cache, executor)
        try:
            started = time.perf_counter()
            job = queue.submit_run(RunRequest(exp_id="validation"))
            elapsed = time.perf_counter() - started
            assert job.state == DONE  # terminal at submission time
            assert job.simulated is False
            assert job.result["rendered"] == "warm"
            assert job.result == cache.load(config).to_jsonable()
            assert executor.calls == 0
            assert elapsed < 0.25, f"warm path took {elapsed:.3f}s"
        finally:
            queue.stop()

    def test_warm_submission_hashes_its_config_once(self, cache, monkeypatch):
        """The job ID and the cache read share one key computation, and
        repeats of the request hash nothing and read no file again."""
        import repro.runner.cache as cache_module
        import repro.serve.jobqueue as jobqueue_module
        from repro.serve.store import LocalDirStore, OpenBlob

        config = resolve_config("validation")
        cache.store(make_record(config, payload="warm"))
        keyed, reads = [], []

        def counting_key(config):
            keyed.append(config)
            return cache_key(config)

        def counting(read):
            def wrapper(*args):
                reads.append(args)
                return read(*args)
            return wrapper

        monkeypatch.setattr(jobqueue_module, "cache_key", counting_key)
        monkeypatch.setattr(cache_module, "cache_key", counting_key)
        monkeypatch.setattr(LocalDirStore, "read", counting(LocalDirStore.read))
        monkeypatch.setattr(OpenBlob, "read", counting(OpenBlob.read))
        queue = JobQueue(cache=cache, executor=CountingExecutor())
        for _ in range(5):
            job = queue.submit_run(RunRequest(exp_id="validation"))
            assert job.state == DONE and job.simulated is False
            assert job.result["rendered"] == "warm"
        assert len(keyed) == 1
        assert len(reads) == 1

    def test_warm_read_after_a_force_rerun_is_the_new_record(self, cache):
        """A record replaced by a force re-run is never served from memory."""
        payloads = iter(["first", "forced"])

        def executor(request, cache_dir):
            config = resolve_config(request.exp_id, request.overrides or None)
            return answer(cache_dir, make_record(config, payload=next(payloads)))

        queue = make_queue(cache, executor)
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            assert first.wait(10) and first.state == DONE
            warm = queue.submit_run(RunRequest(exp_id="validation"))
            assert warm.simulated is False and warm.result["rendered"] == "first"
            forced = queue.submit_run(RunRequest(exp_id="validation", force=True))
            assert forced.wait(10) and forced.result["rendered"] == "forced"
            again = queue.submit_run(RunRequest(exp_id="validation"))
            assert again.state == DONE and again.simulated is False
            assert again.result["rendered"] == "forced"
        finally:
            queue.stop()

    def test_resubmission_after_cache_clear_simulates(self, cache):
        """A finished envelope never answers for a record the cache no
        longer holds."""
        executor = CountingExecutor()
        queue = make_queue(cache, executor)
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            assert first.wait(10) and first.state == DONE
            assert cache.clear() == 1
            again = queue.submit_run(RunRequest(exp_id="validation"))
            assert again is not first
            assert again.wait(10) and again.state == DONE
            assert again.simulated is True
            assert executor.calls == 2
            assert cache.load(resolve_config("validation")) is not None
        finally:
            queue.stop()

    def test_resubmission_after_cold_run_is_warm(self, cache):
        executor = CountingExecutor()
        queue = make_queue(cache, executor)
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            assert first.wait(10) and first.simulated is True
            second = queue.submit_run(RunRequest(exp_id="validation"))
            assert second.state == DONE
            assert second.simulated is False
            assert executor.calls == 1
            assert second.result["cache_key"] == first.result["cache_key"]
        finally:
            queue.stop()

    def test_force_resubmission_simulates_again(self, cache):
        executor = CountingExecutor()
        queue = make_queue(cache, executor)
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            assert first.wait(10)
            forced = queue.submit_run(
                RunRequest(exp_id="validation", force=True)
            )
            assert forced is not first
            assert forced.wait(10)
            assert forced.simulated is True
            assert executor.calls == 2
        finally:
            queue.stop()


class TestFailuresAndValidation:
    def test_executor_failure_fails_the_job(self, cache):
        executor = CountingExecutor(fail=True)
        queue = make_queue(cache, executor)
        try:
            job = queue.submit_run(RunRequest(exp_id="validation"))
            assert job.wait(10)
            assert job.state == FAILED
            assert "injected simulation failure" in job.error
        finally:
            queue.stop()

    def test_failed_run_is_retried_on_resubmission(self, cache):
        """Coalescing is onto in-flight jobs only: a failed job does not
        absorb the identical resubmission."""
        executor = CountingExecutor(fail=True)
        queue = make_queue(cache, executor)
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            assert first.wait(10) and first.state == FAILED
            executor.fail = False
            again = queue.submit_run(RunRequest(exp_id="validation"))
            assert again is not first and again.coalesced == 0
            assert again.wait(10) and again.state == DONE
            assert again.simulated is True
            assert executor.calls == 2
        finally:
            queue.stop()

    def test_refused_request_is_refused_every_time(self, cache):
        queue = JobQueue(cache=cache, executor=CountingExecutor())
        request = RunRequest(
            exp_id="alcp", overrides={"options": {"asynchronus": False}}
        )
        errors = set()
        for _ in range(3):
            with pytest.raises(SchemaError, match="did you mean") as raised:
                queue.submit_run(request)
            errors.add(str(raised.value))
        assert len(errors) == 1
        assert queue.registry.jobs() == []

    def test_unknown_experiment_rejected_at_submission(self, cache):
        queue = JobQueue(cache=cache, executor=CountingExecutor())
        with pytest.raises(SchemaError, match="unknown experiment"):
            queue.submit_run(RunRequest(exp_id="not-an-experiment"))

    def test_bad_override_rejected_with_suggestion(self, cache):
        queue = JobQueue(cache=cache, executor=CountingExecutor())
        with pytest.raises(SchemaError, match="did you mean"):
            queue.submit_run(
                RunRequest(exp_id="validation", overrides={"sed": 3})
            )

    def test_unknown_sweep_rejected_at_submission(self, cache):
        queue = JobQueue(cache=cache)
        with pytest.raises(SchemaError, match="unknown sweep"):
            queue.submit_sweep(SweepRequest(spec="not-a-sweep"))


class TestSweepJobs:
    def test_sweep_executor_wiring_and_simulated_flag(self, cache):
        calls = []

        def executor(request, cache_dir):
            calls.append((request, cache_dir))
            return {"points": [], "meta": {"simulated": 0, "cached": 3}}, False

        queue = JobQueue(cache=cache, executor=executor)
        queue.start()
        try:
            job = queue.submit_sweep(
                SweepRequest(
                    spec="em3d-latency", axes={"net_latency": [0, 100]}
                )
            )
            assert job.wait(10)
            assert job.state == DONE
            assert job.simulated is False  # all points came from the cache
            assert calls and calls[0][1] == cache.directory
            assert calls[0][0].axes == {"net_latency": [0, 100]}
        finally:
            queue.stop()

    def test_identical_sweeps_coalesce(self, cache):
        gate = threading.Event()
        calls = []

        def executor(request, cache_dir):
            calls.append(request)
            assert gate.wait(10)
            return {"meta": {"simulated": 1}}, True

        queue = JobQueue(workers=2, cache=cache, executor=executor)
        queue.start()
        try:
            request = SweepRequest(
                spec="em3d-latency", axes={"net_latency": [0, 50]}
            )
            a = queue.submit_sweep(request)
            b = queue.submit_sweep(request)
            gate.set()
            assert a is b
            assert a.wait(10)
            assert len(calls) == 1
        finally:
            gate.set()
            queue.stop()


    def test_identical_finished_sweep_is_queued_again(self, cache):
        calls = []

        def executor(request, cache_dir):
            calls.append(request)
            simulated = len(calls) == 1
            return {"meta": {"simulated": int(simulated)}}, simulated

        queue = JobQueue(cache=cache, executor=executor)
        queue.start()
        try:
            request = SweepRequest(
                spec="em3d-latency", axes={"net_latency": [0, 50]}
            )
            first = queue.submit_sweep(request)
            assert first.wait(10) and first.simulated is True
            again = queue.submit_sweep(request)
            assert again is not first and again.coalesced == 0
            assert again.wait(10) and again.simulated is False
            assert len(calls) == 2
        finally:
            queue.stop()


class TestGracefulDrain:
    def test_stop_fails_backlog_and_lets_running_finish(self, cache):
        """A deep queue must not block shutdown: pending jobs reach a
        terminal state immediately, the running job completes."""
        gate = threading.Event()
        executor = CountingExecutor(gate=gate)
        queue = make_queue(cache, executor, workers=1)
        jobs = [
            queue.submit_run(
                RunRequest(exp_id="validation", overrides={"seed": seed})
            )
            for seed in range(1, 6)
        ]
        # Let the single worker take the first job (it blocks on the gate).
        deadline = time.time() + 5
        while queue.depth() >= len(jobs) and time.time() < deadline:
            time.sleep(0.02)

        stopped = threading.Event()

        def stopper():
            queue.stop(timeout=0.5)
            stopped.set()

        thread = threading.Thread(target=stopper)
        thread.start()
        try:
            # All still-pending jobs fail fast — clients unblock now,
            # while the executor gate is still closed.
            pending = [job for job in jobs if job is not jobs[0]]
            for job in pending:
                assert job.wait(5), "pending job never reached terminal state"
                assert job.state == FAILED
                assert "shutting down" in job.error
            # The running job is allowed to finish once the gate opens.
            gate.set()
            assert jobs[0].wait(10)
            assert jobs[0].state == DONE
            assert stopped.wait(10), "stop() blocked on the backlog"
        finally:
            gate.set()
            thread.join(10)

    def test_stop_is_idempotent_and_quick_when_idle(self, cache):
        queue = make_queue(cache, CountingExecutor())
        started = time.perf_counter()
        queue.stop()
        queue.stop()
        assert time.perf_counter() - started < 2.0


class TestEnvelopeAtomicity:
    def test_no_torn_envelope_under_serialization_hammer(self, cache):
        """Readers serializing envelopes during transitions must never
        observe a terminal state with unassembled fields."""
        from repro.serve.jobqueue import Job

        violations = []
        stop = threading.Event()
        jobs = [
            Job(job_id=f"hammer-{i}", kind="run", params={})
            for i in range(50)
        ]

        def reader():
            while not stop.is_set():
                for job in jobs:
                    env = job.to_jsonable()
                    if env["state"] == "done" and (
                        env["finished_at"] is None
                        or env["result"] is None
                        or env["simulated"] is None
                        or env["elapsed_seconds"] is None
                    ):
                        violations.append(env)
                    if env["state"] == "failed" and (
                        env["finished_at"] is None or not env["error"]
                    ):
                        violations.append(env)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()

        def transition(job, index):
            assert job.try_start()
            if index % 3 == 0:
                job.fail("injected failure")
            else:
                job.finish({"payload": index}, simulated=True)

        writers = [
            threading.Thread(target=transition, args=(job, i))
            for i, job in enumerate(jobs)
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(5)
        time.sleep(0.1)
        stop.set()
        for thread in readers:
            thread.join(5)
        assert not violations, violations[:3]

    def test_try_start_claims_exactly_once(self, cache):
        from repro.serve.jobqueue import Job

        job = Job(job_id="once", kind="run", params={})
        wins = []
        barrier = threading.Barrier(8)

        def claim():
            barrier.wait()
            if job.try_start():
                wins.append(1)

        threads = [threading.Thread(target=claim) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert len(wins) == 1
        assert job.state == "running"
        # A drain cannot fail a job a worker already started.
        assert job.fail_if_pending("drain") is False


class TestRegistryRetention:
    def test_terminal_jobs_pruned_by_ttl(self, cache):
        from repro.serve.coalesce import CoalescingRegistry
        from repro.serve.jobqueue import Job

        registry = CoalescingRegistry(retention_seconds=0.05, max_terminal=None)
        done = Job(job_id="old-done", kind="run", params={})
        assert done.try_start()
        done.finish({"ok": 1}, simulated=True)
        registry.add_or_share(done)
        inflight = Job(job_id="inflight", kind="run", params={})
        registry.add_or_share(inflight)

        time.sleep(0.1)
        counts = registry.counts()
        assert counts["done"] == 0, "terminal job must be pruned after TTL"
        assert counts["pending"] == 1, "in-flight jobs are never pruned"
        assert counts["pruned"] == 1
        assert registry.get("old-done") is None
        assert registry.get("inflight") is inflight

    def test_terminal_jobs_pruned_by_count_cap(self, cache):
        from repro.serve.coalesce import CoalescingRegistry
        from repro.serve.jobqueue import Job

        registry = CoalescingRegistry(retention_seconds=None, max_terminal=3)
        for i in range(6):
            job = Job(job_id=f"job-{i}", kind="run", params={})
            assert job.try_start()
            job.finish({"i": i}, simulated=True)
            registry.add_or_share(job)
            time.sleep(0.01)  # distinct finished_at ordering
        counts = registry.counts()
        assert counts["done"] == 3
        # Oldest-finished go first.
        assert registry.get("job-0") is None
        assert registry.get("job-5") is not None

    def test_pruned_run_is_reanswered_warm_from_the_cache(self, cache):
        """Pruning an envelope loses nothing: the record is still in
        the content-addressed store under the same ID."""
        executor = CountingExecutor()
        queue = JobQueue(
            workers=1, cache=cache, executor=executor,
            retention_seconds=0.05, max_terminal=None,
        )
        queue.start()
        try:
            first = queue.submit_run(RunRequest(exp_id="validation"))
            assert first.wait(10) and first.state == DONE
            time.sleep(0.15)
            queue.registry.prune()
            assert queue.registry.get(first.job_id) is None  # pruned
            again = queue.submit_run(RunRequest(exp_id="validation"))
            assert again.state == DONE
            assert again.simulated is False
            assert executor.calls == 1
        finally:
            queue.stop()
