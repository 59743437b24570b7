"""Job queue behavior: coalescing, warm path, failure, force."""

import threading
import time

import pytest

from repro.runner.api import resolve_config
from repro.runner.cache import ResultCache, cache_key
from repro.runner.record import RunRecord
from repro.serve.jobqueue import DONE, FAILED, JobQueue
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


class CountingExecutor:
    """A run executor that counts calls and can block on a gate."""

    def __init__(self, gate=None, fail=False):
        self.calls = 0
        self.lock = threading.Lock()
        self.gate = gate
        self.fail = fail

    def __call__(self, request: RunRequest) -> RunRecord:
        with self.lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(10), "executor gate never opened"
        if self.fail:
            raise RuntimeError("injected simulation failure")
        config = resolve_config(request.exp_id, request.overrides or None)
        return make_record(config)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def make_queue(cache, executor, workers=2, **kwargs):
    queue = JobQueue(
        workers=workers, cache=cache, run_executor=executor, **kwargs
    )
    queue.start()
    return queue


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
        """The job ID and the cache read share one key computation."""
        import repro.runner.cache as cache_module
        import repro.serve.jobqueue as jobqueue_module

        config = resolve_config("validation")
        cache.store(make_record(config, payload="warm"))
        keyed = []

        def counting_key(config):
            keyed.append(config)
            return cache_key(config)

        monkeypatch.setattr(jobqueue_module, "cache_key", counting_key)
        monkeypatch.setattr(cache_module, "cache_key", counting_key)
        queue = JobQueue(cache=cache, run_executor=CountingExecutor())
        job = queue.submit_run(RunRequest(exp_id="validation"))
        assert job.state == DONE and job.simulated is False
        assert len(keyed) == 1

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

    def test_unknown_experiment_rejected_at_submission(self, cache):
        queue = JobQueue(cache=cache, run_executor=CountingExecutor())
        with pytest.raises(SchemaError, match="unknown experiment"):
            queue.submit_run(RunRequest(exp_id="not-an-experiment"))

    def test_bad_override_rejected_with_suggestion(self, cache):
        queue = JobQueue(cache=cache, run_executor=CountingExecutor())
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
        class FakeSweepResult:
            def to_jsonable(self):
                return {"points": [], "meta": {"simulated": 0, "cached": 3}}

        calls = []

        def sweep_executor(request, the_cache):
            calls.append((request, the_cache))
            return FakeSweepResult()

        queue = JobQueue(cache=cache, sweep_executor=sweep_executor)
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
            assert calls and calls[0][1] is cache
            assert calls[0][0].axes == {"net_latency": [0, 100]}
        finally:
            queue.stop()

    def test_identical_sweeps_coalesce(self, cache):
        gate = threading.Event()
        calls = []

        def sweep_executor(request, the_cache):
            calls.append(request)
            assert gate.wait(10)
            return {"meta": {"simulated": 1}}

        queue = JobQueue(
            workers=2, cache=cache, sweep_executor=sweep_executor
        )
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
            workers=1, cache=cache, run_executor=executor,
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


class TestSharedStoreCoordination:
    def test_two_queues_one_simulation_fleet_wide(self, tmp_path):
        """Two 'replicas' (JobQueues) on one SharedDirStore: identical
        concurrent cold submissions cost exactly one simulation, and
        both serve the same record."""
        from repro.serve.store import SharedDirStore

        store_dir = tmp_path / "shared"
        caches = [
            ResultCache(store=SharedDirStore(store_dir)) for _ in range(2)
        ]
        executors = [CountingExecutor(), CountingExecutor()]
        queues = [
            JobQueue(workers=1, cache=cache, run_executor=executor,
                     peer_poll_seconds=0.02)
            for cache, executor in zip(caches, executors)
        ]
        for queue in queues:
            queue.start()
        try:
            request = RunRequest(exp_id="validation")
            barrier = threading.Barrier(2)
            jobs = [None, None]

            def submit(i):
                barrier.wait()
                jobs[i] = queues[i].submit_run(request)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)

            for job in jobs:
                assert job is not None and job.wait(15)
                assert job.state == DONE, job.error
            total_sims = executors[0].calls + executors[1].calls
            assert total_sims == 1, (
                f"expected one simulation fleet-wide, got {total_sims}"
            )
            assert sum(1 for job in jobs if job.simulated) == 1
            # Bit-identical envelopes: the record is the record.
            assert jobs[0].result == jobs[1].result
            # No claim droppings left behind.
            assert list(store_dir.glob("*.lock")) == []
        finally:
            for queue in queues:
                queue.stop()

    def test_peer_crash_claim_is_taken_over(self, tmp_path):
        """A stale claim (crashed replica) must not wedge the job: the
        survivor breaks it and simulates."""
        from repro.runner.api import resolve_config
        from repro.serve.store import SharedDirStore

        cache = ResultCache(store=SharedDirStore(
            tmp_path / "shared", claim_ttl=0.1,
        ))
        config = resolve_config("validation")
        assert cache.try_claim(config)  # the "crashed" peer's claim
        executor = CountingExecutor()
        queue = JobQueue(
            workers=1, cache=cache, run_executor=executor,
            peer_poll_seconds=0.02,
        )
        queue.start()
        try:
            job = queue.submit_run(RunRequest(exp_id="validation"))
            assert job.wait(15)
            assert job.state == DONE, job.error
            assert job.simulated is True
            assert executor.calls == 1
        finally:
            queue.stop()
