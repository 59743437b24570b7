"""Event-queue core of the discrete-event simulator.

The engine keeps two structures: a binary heap of ``(time, sequence,
action)`` entries for *future* events, and a FIFO "due lane" for events
scheduled at the current simulation time (``delay == 0``). Ties in time
are broken by insertion order, which makes every simulation fully
deterministic: the same program and seed always produce the same event
interleaving and the same cycle counts.

The due lane preserves that contract without paying heap costs for the
kernel's most common operation (a zero-delay wake-up): it only ever
holds entries created *at* the current time, which by construction were
scheduled after every heap entry that shares that timestamp — so heap
entries due now drain first, then the lane in FIFO order, exactly the
(time, sequence) order the heap alone would have produced.

Both queues hold bare callables: nothing is ever cancelled, so an entry
needs no handle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation kernel."""


class Engine:
    """Deterministic discrete-event engine measured in processor cycles."""

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_due",
        "_running",
        "_inline",
        "events_executed",
        "dispatch_hook",
    )

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._due: Deque[Callable[[], None]] = deque()
        self._running = False
        self._inline = 0
        #: Lifetime count of executed actions across all run() calls
        #: (inline process steps included); benchmarks read this.
        self.events_executed = 0
        #: Observability hook ``hook(now)`` called after every dispatched
        #: action, or None (the default). The tracer sets it.
        self.dispatch_hook: Optional[Callable[[int], None]] = None

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        """Schedule ``action`` to run ``delay`` cycles from now."""
        if delay > 0:
            heapq.heappush(self._heap, (self._now + delay, self._seq, action))
            self._seq += 1
        elif delay == 0:
            self._due.append(action)
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")

    def run(self) -> int:
        """Drain the event queue.

        Returns:
            The number of actions executed (inline process steps count).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._inline = 0
        heap = self._heap
        due = self._due
        heappop = heapq.heappop
        hook = self.dispatch_hook
        now = self._now
        executed = 0
        try:
            while True:
                if due:
                    # Heap entries sharing the current timestamp were
                    # scheduled before anything in the due lane.
                    if heap and heap[0][0] <= now:
                        action = heappop(heap)[2]
                    else:
                        action = due.popleft()
                elif heap:
                    now, _seq, action = heappop(heap)
                    self._now = now
                else:
                    break
                action()
                executed += 1
                # consume_inline_delay() may advance time while the
                # action runs; resync the local copy.
                now = self._now
                if hook is not None:
                    hook(now)
        finally:
            self._running = False
            executed += self._inline
            self.events_executed += executed
        return executed

    def consume_inline_step(self) -> bool:
        """Grant the currently-running action one inline continuation.

        True only when running a zero-delay continuation immediately is
        indistinguishable from scheduling it: the engine is mid-run and
        nothing else is due at the current time. On a grant the step is
        counted as an executed action, so run()'s return value matches
        the scheduled path exactly.
        """
        if (
            self._due
            or not self._running
            or (self._heap and self._heap[0][0] <= self._now)
        ):
            return False
        self._inline += 1
        return True

    def consume_inline_delay(self, cycles: int) -> bool:
        """Advance time ``cycles`` inline for the currently-running action.

        The time-advance fast path of the process layer and the batched
        backend: a positive ``Delay`` normally suspends the process and
        re-enters the event loop via the heap. When the suspended
        continuation would be the *very next* event anyway — nothing due
        now and every heap entry strictly later than the resume time —
        the delay is granted inline: time jumps forward and the process
        keeps running without touching the heap. Any other state returns
        False and the caller schedules normally, so event interleaving
        (and therefore every cycle count) is bit-identical to the
        scheduled path.
        """
        if self._due or not self._running or cycles <= 0:
            return False
        resume = self._now + cycles
        heap = self._heap
        if heap and heap[0][0] <= resume:
            return False
        self._now = resume
        self._inline += 1
        return True

    def pending(self) -> int:
        """Number of scheduled actions not yet run."""
        return len(self._heap) + len(self._due)
