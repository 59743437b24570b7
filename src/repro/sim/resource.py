"""FIFO server resource with per-request occupancy.

Requests queue in arrival order and each occupies the server for a
request-specific number of cycles. No machine builds one: the
shared-memory directory controllers keep their own inboxes and queue
counters (:mod:`repro.sm.directory`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.sim.engine import Engine
from repro.sim.events import SimEvent


class FifoResource:
    """Single server, FIFO queue, integer-cycle service times."""

    def __init__(self, engine: Engine, name: str = "resource") -> None:
        self.engine = engine
        self.name = name
        self._busy = False
        self._queue: Deque[Tuple[int, SimEvent, int]] = deque()
        # Instrumentation for the paper's contention analysis.
        self.requests_served = 0
        self.total_queue_cycles = 0
        self.total_service_cycles = 0

    def request(self, service_cycles: int) -> SimEvent:
        """Enqueue a request; returns an event fired when service completes.

        The event fires with the queuing delay (cycles spent waiting
        before service began), letting callers attribute contention.
        """
        if service_cycles < 0:
            raise ValueError(f"negative service time: {service_cycles}")
        done = SimEvent(name=f"{self.name}.req")
        self._queue.append((self.engine.now, done, service_cycles))
        if not self._busy:
            self._serve_next()
        return done

    @property
    def queue_length(self) -> int:
        """Requests waiting (including the one in service)."""
        return len(self._queue) + (1 if self._busy else 0)

    def mean_queue_delay(self) -> float:
        """Average cycles a served request spent queued before service."""
        if self.requests_served == 0:
            return 0.0
        return self.total_queue_cycles / self.requests_served

    def _serve_next(self) -> None:
        if not self._queue:
            return
        arrival, done, service_cycles = self._queue.popleft()
        self._busy = True
        queue_delay = self.engine.now - arrival
        self.total_queue_cycles += queue_delay
        self.total_service_cycles += service_cycles

        def _complete() -> None:
            self.requests_served += 1
            self._busy = False
            done.fire(queue_delay)
            self._serve_next()

        self.engine.schedule(service_cycles, _complete)
