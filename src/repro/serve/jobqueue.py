"""The async job queue between the HTTP surface and the simulators.

Submissions become :class:`Job` objects with content-hash IDs (a run's
ID is its config's cache key; a sweep's ID is its grid key) and flow
through a bounded pool of worker threads. A job is one library call,
:func:`run_job`: :func:`repro.api.record_for` or
:func:`repro.api.sweep` on the result cache, which loads, simulates
and stores. A worker thread hands each job to the *executor*, by
default :func:`spawned_executor`, which makes that call in a spawned
worker process, so nothing simulates on the server's interpreter; then
it enforces the cache byte budget (:mod:`repro.serve.eviction`).

The three paths a submission can take:

* **warm** — the cache already holds the record: the job is born
  ``done`` with ``simulated: false``, no queue, no simulation,
  response in milliseconds;
* **coalesced** — an identical job is pending or running: the
  submission attaches to it (``coalesced`` counts how many riders the
  job picked up) and no second simulation starts;
* **cold** — the job enters the queue and its library call simulates
  it in a spawned worker process, replacing any finished or failed job
  under the same ID. A run whose record was stored while it waited is
  served by that call from the cache, with ``simulated: false``.
  Cold admission is bounded: once ``max_pending`` jobs are waiting,
  new cold jobs are refused with
  :class:`~repro.serve.admission.AdmissionError` (HTTP ``429``).

A run request's cache key is a pure function of its body for the life
of the process, so the queue remembers the key of each request it has
accepted: a repeated warm submission resolves and hashes no config,
and :class:`~repro.runner.cache.ResultCache` serves its record from
memory while the record file is unchanged.

Shutdown is a graceful drain (:meth:`JobQueue.stop`): submissions are
refused with :class:`QueueShutdown` (HTTP ``503``), jobs still waiting
for a worker fail immediately with a "server shutting down" error so
clients unblock, and running jobs get ``timeout`` seconds to finish.

The executor, ``executor(request, cache_dir) -> (payload, simulated)``,
is injectable, so tests can count simulations or substitute canned
results without touching the queue's concurrency behavior;
:func:`run_job` itself is the in-process executor.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.runner.cache import ResultCache, cache_key
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

#: Accepted run requests whose cache keys a queue remembers; the memo
#: starts over when it reaches this size.
KEY_MEMO_SIZE = 4096

Request = Union[RunRequest, SweepRequest]
Executor = Callable[[Request, Path], Tuple[Dict[str, Any], bool]]


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
# A job is one library call.
# ---------------------------------------------------------------------------


def run_job(request: Request, cache_dir: Path) -> Tuple[Dict[str, Any], bool]:
    """Run one job on the result cache in ``cache_dir``; returns
    ``(payload, simulated)``.

    The runner's cache-first loop serves stored records and simulates
    and stores the rest. Must stay a top-level function: it is pickled
    by name when shipped to a spawned worker.
    """
    cache = ResultCache(cache_dir)
    if isinstance(request, SweepRequest):
        from repro.api import sweep

        payload = sweep(
            request.spec,
            axes=request.axes or None,
            jobs=request.jobs,
            cache=cache,
            force=request.force,
        ).to_jsonable()
        return payload, bool(payload["meta"]["simulated"])
    from repro.runner.api import record_for

    record = record_for(
        request.exp_id, request.overrides or None, cache=cache, force=request.force
    )
    return record.to_jsonable(), not record.cached


def spawned_executor(request: Request, cache_dir: Path) -> Tuple[Dict[str, Any], bool]:
    """The default executor: :func:`run_job` in a spawned worker process.

    The queue's worker thread only blocks on the future, keeping the
    HTTP threads responsive while the job burns CPU in another
    interpreter.
    """
    from repro.runner.executor import spawn_pool

    with spawn_pool(1) as pool:
        return pool.submit(run_job, request, cache_dir).result()


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
        executor: Optional[Executor] = None,
        max_pending: Optional[int] = None,
        retention_seconds: Optional[float] = 3600.0,
        max_terminal: Optional[int] = 1024,
    ) -> None:
        self.workers = max(1, workers)
        self.cache = cache if cache is not None else ResultCache()
        self.cache_budget_bytes = cache_budget_bytes
        self.executor = executor or spawned_executor
        self.max_pending = max_pending
        self.registry = CoalescingRegistry(
            retention_seconds=retention_seconds, max_terminal=max_terminal
        )
        self.last_finished_at: Optional[float] = None
        self._avg_seconds: Optional[float] = None
        self._queue: "queue.Queue[Any]" = queue.Queue()
        # Canonical JSON of [experiment, overrides] -> (exp_id, cache key).
        self._keys: Dict[str, Tuple[str, str]] = {}
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

    def _resolve_key(self, request: RunRequest) -> Tuple[str, str]:
        """The request's ``(exp_id, cache key)``; :class:`SchemaError`
        if it cannot become a runnable config.

        Only accepted requests are remembered, so a refused one is
        resolved, and refused with the same text, every time. Overrides
        that are not JSON (a programmatic request) skip the memo.
        """
        from repro.runner.api import resolve_config

        try:
            body = json.dumps([request.exp_id, request.overrides], sort_keys=True)
        except (TypeError, ValueError):
            body = None
        resolved = self._keys.get(body) if body is not None else None
        if resolved is not None:
            return resolved
        try:
            config = resolve_config(request.exp_id, request.overrides or None)
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(str(exc.args[0] if exc.args else exc)) from exc
        resolved = config.exp_id, cache_key(config)
        if body is not None:
            if len(self._keys) >= KEY_MEMO_SIZE:
                self._keys.clear()
            self._keys[body] = resolved
        return resolved

    def submit_run(self, request: RunRequest) -> Job:
        """Submit one experiment run; warm/coalesced/cold (see module doc)."""
        exp_id, key = self._resolve_key(request)
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
            warm = self.cache.load_jsonable(exp_id, key)
        if warm is not None:
            job.started_at = job.submitted_at
            job.finish(warm, simulated=False)

        # The new job displaces a finished or failed envelope under the
        # same content hash; an in-flight job is shared instead (one
        # simulation, N clients).
        job, created = self.registry.add_or_share(
            job, admit=self._admit_cold if job.state == PENDING else None
        )
        if created and job.state == PENDING:
            self._queue.put((job, request))
        return job

    def submit_sweep(self, request: SweepRequest) -> Job:
        """Submit one sensitivity sweep (always queued unless an
        identical sweep is in flight; the engine serves warm points
        from the cache internally). Every grid point is resolved here,
        so a bad axis or value queues nothing."""
        from repro.sweep import get_sweep

        try:
            spec = get_sweep(request.spec).with_axes(request.axes or None)
            spec.grid()
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
        job, created = self.registry.add_or_share(job, admit=self._admit_cold)
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
                self._execute(job, request)
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

    def _execute(self, job: Job, request: Request) -> None:
        payload, simulated = self.executor(request, self.cache.directory)
        if self.cache_budget_bytes is not None:
            enforce_budget(self.cache, self.cache_budget_bytes)
        job.finish(payload, simulated)

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
