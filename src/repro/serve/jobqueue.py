"""The async job queue between the HTTP surface and the simulators.

Submissions become :class:`Job` objects with content-hash IDs (a run's
ID is its config's cache key; a sweep's ID is its grid key) and flow
through a bounded pool of worker threads. Each worker drives one job
at a time through an *executor* — by default the run executor ships
the simulation to a spawned worker process running
:func:`repro.runner.executor.run_group`, so the GIL-heavy simulation
never stalls the HTTP threads — and writes the finished
record back to the content-addressed cache, then enforces the cache
byte budget (:mod:`repro.serve.eviction`).

The three paths a submission can take:

* **warm** — the cache already holds the record: the job is born
  ``done`` with ``simulated: false``, no queue, no simulation,
  response in milliseconds;
* **coalesced** — an identical job is pending or running: the
  submission attaches to it (``coalesced`` counts how many riders the
  job picked up) and no second simulation starts;
* **cold** — the job enters the queue and a worker simulates it.
  Cold admission is bounded: once ``max_pending`` jobs are waiting,
  new cold jobs are refused with
  :class:`~repro.serve.admission.AdmissionError` (HTTP ``429``).

Shutdown is a graceful drain (:meth:`JobQueue.stop`): submissions are
refused with :class:`QueueShutdown` (HTTP ``503``), jobs still waiting
for a worker fail immediately with a "server shutting down" error so
clients unblock, and running jobs get ``timeout`` seconds to finish.

Executors are injectable (``run_executor``/``sweep_executor``) so
tests can count simulations or substitute canned results without
touching the queue's concurrency behavior.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.runner.cache import ResultCache, cache_key
from repro.runner.record import RunRecord
from repro.serve.admission import AdmissionError
from repro.serve.coalesce import CoalescingRegistry
from repro.serve.eviction import enforce_budget
from repro.serve.schemas import RunRequest, SchemaError, SweepRequest

#: Job lifecycle states (JSON-facing strings).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Sentinel shutting a worker thread down.
_STOP = object()

RunExecutor = Callable[[RunRequest], RunRecord]
SweepExecutor = Callable[[SweepRequest, ResultCache], Any]


class QueueShutdown(Exception):
    """Submission refused because the queue is draining (HTTP ``503``)."""


@dataclass
class Job:
    """One submitted unit of work, polled via ``GET /v1/jobs/<id>``.

    State transitions and envelope serialization are guarded by a
    per-job lock, so an HTTP thread serializing the envelope mid-
    transition can never observe a torn state (``state: "done"`` with
    ``finished_at: null``). Within the lock, terminal fields are
    assigned *before* ``state``, so even lock-free readers (the
    registry's prune scan) see a consistent terminal envelope.
    """

    job_id: str
    kind: str  # "run" | "sweep"
    params: Dict[str, Any]
    state: str = PENDING
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: False when the result came straight from the cache (warm path,
    #: an all-warm sweep, or a record stored while the job waited);
    #: True when this job ran a simulation.
    simulated: Optional[bool] = None
    #: Extra submissions this job absorbed (see coalesce.py).
    coalesced: int = 0
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    done_event: threading.Event = field(default_factory=threading.Event)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @property
    def elapsed_seconds(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - (self.started_at or self.submitted_at)

    def try_start(self) -> bool:
        """Atomically move pending → running; False if already taken."""
        with self._lock:
            if self.state != PENDING:
                return False
            self.started_at = time.time()
            self.state = RUNNING
            return True

    def finish(self, result: Dict[str, Any], simulated: bool) -> None:
        with self._lock:
            self.result = result
            self.simulated = simulated
            self.finished_at = time.time()
            self.state = DONE
        self.done_event.set()

    def fail(self, error: str) -> None:
        with self._lock:
            self.error = error
            self.finished_at = time.time()
            self.state = FAILED
        self.done_event.set()

    def fail_if_pending(self, error: str) -> bool:
        """Fail the job only if no worker has started it (drain path)."""
        with self._lock:
            if self.state != PENDING:
                return False
            self.error = error
            self.finished_at = time.time()
            self.state = FAILED
        self.done_event.set()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (tests/clients)."""
        return self.done_event.wait(timeout)

    def to_jsonable(self, include_result: bool = True) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = {
                "job_id": self.job_id,
                "kind": self.kind,
                "state": self.state,
                "params": self.params,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "elapsed_seconds": self.elapsed_seconds,
                "simulated": self.simulated,
                "coalesced": self.coalesced,
                "error": self.error,
            }
            if include_result:
                out["result"] = self.result
        return out


# ---------------------------------------------------------------------------
# Default executors: simulate via the spawn-based process machinery.
# ---------------------------------------------------------------------------


def subprocess_run_executor(request: RunRequest) -> RunRecord:
    """Simulate one experiment in a spawned worker process.

    The queue's worker thread only blocks on the future, keeping the
    HTTP threads responsive while the simulation burns CPU in another
    process. The pool is built here because
    :func:`~repro.runner.executor.run_parallel` keeps a single group
    in this process.
    """
    from repro.runner.executor import run_group, spawn_pool

    with spawn_pool(1) as pool:
        item = (request.exp_id, request.overrides or None)
        return pool.submit(run_group, [item]).result()[0]


def inprocess_run_executor(request: RunRequest) -> RunRecord:
    """Simulate in this process, so tests can drive the queue without
    spawning (``repro serve`` always uses the spawned executor)."""
    from repro.runner.executor import run_group

    return run_group([(request.exp_id, request.overrides or None)])[0]


def default_sweep_executor(request: SweepRequest, cache: ResultCache) -> Any:
    """Run one sweep through :func:`repro.api.sweep` (cache-aware)."""
    from repro import api

    return api.sweep(
        request.spec,
        axes=request.axes or None,
        jobs=request.jobs,
        cache=cache,
        force=request.force,
    )


# ---------------------------------------------------------------------------
# The queue.
# ---------------------------------------------------------------------------


class JobQueue:
    """Bounded worker pool with coalescing submission endpoints."""

    def __init__(
        self,
        workers: int = 2,
        cache: Optional[ResultCache] = None,
        cache_budget_bytes: Optional[int] = None,
        run_executor: Optional[RunExecutor] = None,
        sweep_executor: Optional[SweepExecutor] = None,
        max_pending: Optional[int] = None,
        retention_seconds: Optional[float] = 3600.0,
        max_terminal: Optional[int] = 1024,
    ) -> None:
        self.workers = max(1, workers)
        self.cache = cache if cache is not None else ResultCache()
        self.cache_budget_bytes = cache_budget_bytes
        self.run_executor = run_executor or subprocess_run_executor
        self.sweep_executor = sweep_executor or default_sweep_executor
        self.max_pending = max_pending
        self.registry = CoalescingRegistry(
            retention_seconds=retention_seconds, max_terminal=max_terminal
        )
        self.last_finished_at: Optional[float] = None
        self._avg_seconds: Optional[float] = None
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._threads: list = []
        self._started = False
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-serve-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful drain: refuse new work, fail the backlog, let
        running jobs finish (up to ``timeout`` seconds per worker).

        Jobs still waiting for a worker reach a terminal state *now*
        (failed, with a "server shutting down" error), so no client is
        left polling a job that will never run.
        """
        if not self._started:
            return
        self._stopping = True
        self._drain_pending()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout)
        # A submission that passed admission just before the flag went
        # up may have enqueued behind the sentinels; fail it too.
        self._drain_pending()
        self._threads.clear()
        self._started = False

    def _drain_pending(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                item[0].fail_if_pending("server shutting down before this job started")

    def depth(self) -> int:
        """Jobs waiting for a worker (running jobs excluded)."""
        return self._queue.qsize()

    # -- admission ---------------------------------------------------------

    def _admit_cold(self) -> None:
        """Gate one cold job's entry into the queue.

        Runs under the registry lock (so refusal registers nothing);
        warm and coalesced submissions never reach this check.
        """
        if self._stopping:
            raise QueueShutdown(
                "server is shutting down; not accepting new jobs"
            )
        if self.max_pending is not None and self.depth() >= self.max_pending:
            raise AdmissionError(
                f"job queue full ({self.max_pending} jobs pending); "
                f"retry later",
                retry_after=self.retry_after_hint(),
            )

    def retry_after_hint(self) -> float:
        """Seconds until queue space plausibly frees up: the backlog
        divided across workers, priced at the recent mean job time."""
        per_job = self._avg_seconds if self._avg_seconds else 5.0
        return min(120.0, max(1.0, self.depth() * per_job / self.workers))

    # -- submission --------------------------------------------------------

    def submit_run(self, request: RunRequest) -> Job:
        """Submit one experiment run; warm/coalesced/cold (see module doc)."""
        from repro.runner.api import resolve_config

        try:
            config = resolve_config(request.exp_id, request.overrides or None)
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(str(exc.args[0] if exc.args else exc)) from exc
        key = cache_key(config)
        job = Job(
            job_id=key,
            kind="run",
            params={
                "experiment": request.exp_id,
                "overrides": request.overrides,
                "force": request.force,
            },
        )

        warm = None
        if not request.force:
            warm = self.cache.load_jsonable(config.exp_id, key)
        if warm is not None:
            job.started_at = job.submitted_at
            job.finish(warm, simulated=False)

        # A warm answer or a force re-run may displace an old finished
        # envelope under the same content hash; in-flight jobs are
        # always shared instead (one simulation, N clients).
        job, created = self.registry.add_or_share(
            job,
            replace_terminal=request.force or warm is not None,
            admit=self._admit_cold if job.state == PENDING else None,
        )
        if created and job.state == PENDING:
            self._queue.put((job, request))
        return job

    def submit_sweep(self, request: SweepRequest) -> Job:
        """Submit one sensitivity sweep (always queued; the engine
        serves warm points from the cache internally). Every grid point
        is resolved here, so a bad axis or value queues nothing."""
        from repro.core.experiments import get_experiment
        from repro.sweep import get_sweep

        try:
            spec = get_sweep(request.spec).with_axes(request.axes or None)
            spec.grid(get_experiment(spec.exp_id).config)
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(str(exc.args[0] if exc.args else exc)) from exc

        job = Job(
            job_id=spec.grid_key(),
            kind="sweep",
            params={
                "spec": request.spec,
                "axes": request.axes,
                "jobs": request.jobs,
                "force": request.force,
            },
        )
        job, created = self.registry.add_or_share(
            job, replace_terminal=request.force, admit=self._admit_cold
        )
        if created and job.state == PENDING:
            self._queue.put((job, request))
        return job

    # -- workers -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            job, request = item
            if not job.try_start():
                continue  # failed by a drain, or displaced
            try:
                if job.kind == "run":
                    self._execute_run(job, request)
                else:
                    self._execute_sweep(job, request)
            except Exception as exc:  # noqa: BLE001 - jobs report, not crash
                job.fail(f"{type(exc).__name__}: {exc}")
            self._note_finished(job)

    def _note_finished(self, job: Job) -> None:
        self.last_finished_at = time.time()
        elapsed = job.elapsed_seconds
        if elapsed is not None and job.simulated:
            self._avg_seconds = (
                elapsed if self._avg_seconds is None
                else 0.8 * self._avg_seconds + 0.2 * elapsed
            )

    def _execute_run(self, job: Job, request: RunRequest) -> None:
        # While this job sat in the queue a sweep point or a ``repro
        # run`` may have stored the record; serve it instead of
        # re-simulating.
        if not request.force:
            warm = self.cache.load_jsonable(request.exp_id, job.job_id)
            if warm is not None:
                job.finish(warm, simulated=False)
                return

        record = self.run_executor(request)
        self.cache.store(record)
        self._enforce_budget()
        job.finish(record.to_jsonable(), simulated=True)

    def _execute_sweep(self, job: Job, request: SweepRequest) -> None:
        result = self.sweep_executor(request, self.cache)
        payload = result.to_jsonable() if hasattr(result, "to_jsonable") else result
        simulated = True
        if isinstance(payload, dict):
            simulated = bool(payload.get("meta", {}).get("simulated", 1))
        self._enforce_budget()
        job.finish(payload, simulated=simulated)

    def _enforce_budget(self) -> None:
        if self.cache_budget_bytes is not None:
            enforce_budget(self.cache, self.cache_budget_bytes)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Queue-side numbers for ``/healthz``."""
        counts = self.registry.counts()
        return {
            "workers": self.workers,
            "depth": self.depth(),
            "max_pending": self.max_pending,
            "stopping": self._stopping,
            "jobs": {k: counts[k] for k in (PENDING, RUNNING, DONE, FAILED)},
            "coalesced": counts["coalesced"],
            "retention": {
                "seconds": self.registry.retention_seconds,
                "max_terminal": self.registry.max_terminal,
                "pruned": counts["pruned"],
            },
            "last_finished_at": self.last_finished_at,
        }
