"""Request coalescing: identical submissions share one job.

Job IDs are content hashes (the run's cache key, or the sweep's grid
key), so "the same request" is a pure function of the request body —
two clients asking for the same uncached configuration race to create
the same job ID, and the registry guarantees exactly one of them wins.
The loser's submission attaches to the winner's job: one simulation,
two (or N) satisfied clients.

The registry is also the job store the poll endpoint reads. *Terminal*
jobs (done/failed) are retained only for a bounded window — a TTL
(``retention_seconds`` past completion) and a count cap
(``max_terminal``, oldest-finished evicted first) — so a long-running
server's memory and ``/v1/jobs`` listing stay bounded. In-flight jobs
are never pruned. A pruned job ID is not lost information: run IDs are
cache keys, so re-submitting the same body is answered warm from the
result store.

Coalescing is onto *in-flight* jobs only. A submission whose ID names
a finished or failed job replaces it (same ID — the content address
did not change): a warm answer with a fresh envelope, a cold one with
a fresh pending job. So a failed run is retried, and a record removed
from the cache since is simulated again, rather than answered from an
old envelope. An in-flight job is never replaced, because sharing the
running simulation is strictly better than starting a second one.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.jobqueue import Job

#: Terminal states: a new submission replaces a job in one of these.
_REPLACEABLE = ("done", "failed")


class CoalescingRegistry:
    """Thread-safe job store keyed by content-hash job ID."""

    def __init__(
        self,
        retention_seconds: Optional[float] = 3600.0,
        max_terminal: Optional[int] = 1024,
    ) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, "Job"] = {}
        self._coalesced = 0
        self._pruned = 0
        self.retention_seconds = retention_seconds
        self.max_terminal = max_terminal

    def add_or_share(
        self,
        job: "Job",
        admit: Optional[Callable[[], None]] = None,
    ) -> Tuple["Job", bool]:
        """Register ``job``, or return the in-flight job with its ID.

        Returns ``(job, created)``: ``created`` is ``False`` when a
        pending or running job already owns the ID, in which case the
        caller must *not* enqueue any work — the existing job's
        execution serves this submission too. A finished or failed job
        under the ID is replaced by ``job``.

        ``admit`` (if given) runs under the registry lock immediately
        before the job would be inserted as *new*; raising from it
        (e.g. :class:`~repro.serve.admission.AdmissionError`) refuses
        the submission atomically — no job is registered, nothing must
        be rolled back, and coalesced/warm submissions are unaffected.
        """
        with self._lock:
            self._prune_locked()
            existing = self._jobs.get(job.job_id)
            if existing is not None and existing.state not in _REPLACEABLE:
                existing.coalesced += 1
                self._coalesced += 1
                return existing, False
            if admit is not None:
                admit()
            self._jobs[job.job_id] = job
            return job, True

    def get(self, job_id: str) -> Optional["Job"]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List["Job"]:
        with self._lock:
            self._prune_locked()
            return list(self._jobs.values())

    def prune(self) -> int:
        """Apply the retention policy now; returns jobs pruned so far."""
        with self._lock:
            self._prune_locked()
            return self._pruned

    def _prune_locked(self) -> None:
        """Drop terminal jobs past the TTL or over the count cap.

        In-flight (pending/running) jobs are never touched. Reading
        ``state`` without the per-job lock is safe: terminal states are
        set *after* ``finished_at`` and never change again.
        """
        terminal = [
            (job.finished_at or 0.0, job_id)
            for job_id, job in self._jobs.items()
            if job.state in _REPLACEABLE
        ]
        doomed = set()
        if self.retention_seconds is not None:
            cutoff = time.time() - self.retention_seconds
            doomed.update(jid for at, jid in terminal if at < cutoff)
        if self.max_terminal is not None:
            excess = len(terminal) - len(doomed) - self.max_terminal
            if excess > 0:
                survivors = sorted(
                    item for item in terminal if item[1] not in doomed
                )
                doomed.update(jid for _at, jid in survivors[:excess])
        for job_id in doomed:
            del self._jobs[job_id]
        self._pruned += len(doomed)

    def counts(self) -> Dict[str, int]:
        """Jobs per state plus lifetime coalesced/pruned counts."""
        with self._lock:
            self._prune_locked()
            counts: Dict[str, int] = {
                "pending": 0, "running": 0, "done": 0, "failed": 0,
            }
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            counts["coalesced"] = self._coalesced
            counts["pruned"] = self._pruned
            return counts
