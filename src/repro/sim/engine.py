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

Two entry shapes share the queues. :meth:`Engine.schedule` wraps the
action in a cancellable :class:`ScheduledAction` handle; the internal
:meth:`Engine._schedule_step` used by the process layer enqueues the
bare callable — a process never cancels its own continuation, so the
hot path allocates nothing per step. Cancellation of handles is lazy
(the entry stays in place and is skipped when popped), but the engine
counts cancelled entries and compacts the heap once they outnumber the
live ones, so ``pending()`` is O(1) and the heap never holds more than
~half garbage.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, Union


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation kernel."""


#: Where a ScheduledAction currently lives (for cancellation accounting).
_GONE, _HEAP, _DUE = 0, 1, 2


class ScheduledAction:
    """Handle for a scheduled action; allows cancellation.

    Cancellation is lazy: the queue entry stays in place but is skipped
    when popped. The owning engine is told so it can keep its live-entry
    count exact and compact the heap when cancelled entries pile up.
    """

    __slots__ = ("action", "cancelled", "time", "_engine", "_where")

    def __init__(self, time: int, action: Callable[[], None]) -> None:
        self.time = time
        self.action = action
        self.cancelled = False
        self._engine: Optional["Engine"] = None
        self._where = _GONE

    def cancel(self) -> None:
        """Prevent the action from running when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None and self._where != _GONE:
            self._engine._note_cancel(self._where)


#: Queue entries: a cancellable handle or a bare continuation callable.
_Entry = Union[ScheduledAction, Callable[[], None]]


class Engine:
    """Deterministic discrete-event engine measured in processor cycles."""

    __slots__ = (
        "_now",
        "_seq",
        "_heap",
        "_due",
        "_running",
        "_stop_requested",
        "_heap_cancelled",
        "_due_cancelled",
        "_executed",
        "_inline",
        "_max_events",
        "_until",
        "events_executed",
        "dispatch_hook",
    )

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, _Entry]] = []
        self._due: Deque[_Entry] = deque()
        self._running = False
        self._stop_requested = False
        self._heap_cancelled = 0
        self._due_cancelled = 0
        self._executed = 0
        self._inline = 0
        self._max_events: Optional[int] = None
        self._until: Optional[int] = None
        #: Lifetime count of executed actions across all run() calls
        #: (inline process steps included); benchmarks read this.
        self.events_executed = 0
        #: Observability hook ``hook(now)`` called after every dispatched
        #: action. None (the default) keeps run() on the fast loop; the
        #: tracer sets it, accepting the general loop's bookkeeping cost.
        self.dispatch_hook: Optional[Callable[[int], None]] = None

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, action: Callable[[], None]) -> ScheduledAction:
        """Schedule ``action`` to run ``delay`` cycles from now."""
        if delay <= 0:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})"
                )
            handle = ScheduledAction(self._now, action)
            handle._engine = self
            handle._where = _DUE
            self._due.append(handle)
            return handle
        handle = ScheduledAction(self._now + delay, action)
        handle._engine = self
        handle._where = _HEAP
        heapq.heappush(self._heap, (handle.time, self._seq, handle))
        self._seq += 1
        return handle

    def _schedule_step(self, delay: int, action: Callable[[], None]) -> None:
        """Enqueue a bare continuation — no handle, not cancellable.

        The process layer's resume path: ``delay`` is already validated
        non-negative by the ``Delay`` command.
        """
        if delay == 0:
            self._due.append(action)
        else:
            heapq.heappush(self._heap, (self._now + delay, self._seq, action))
            self._seq += 1

    def schedule_at(self, time: int, action: Callable[[], None]) -> ScheduledAction:
        """Schedule ``action`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self.schedule(time - self._now, action)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current action."""
        self._stop_requested = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: if given, stop once simulation time would pass this value.
            max_events: if given, stop after this many actions (a guard
                against runaway simulations in tests).

        Returns:
            The number of actions executed (inline process steps count).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        self._executed = 0
        self._inline = 0
        self._max_events = max_events
        self._until = until
        heap = self._heap
        due = self._due
        heappop = heapq.heappop
        handle_cls = ScheduledAction
        now = self._now
        executed = 0
        hook = self.dispatch_hook
        try:
            if until is None and max_events is None and hook is None:
                # Fast loop: the production configuration. Bookkeeping
                # lives in locals; only time advances touch attributes.
                while True:
                    if self._stop_requested:
                        break
                    if due:
                        # Heap entries sharing the current timestamp were
                        # scheduled before anything in the due lane.
                        if heap and heap[0][0] <= now:
                            entry = heappop(heap)[2]
                            if entry.__class__ is handle_cls:
                                entry._where = _GONE
                                if entry.cancelled:
                                    self._heap_cancelled -= 1
                                    continue
                                entry = entry.action
                        else:
                            entry = due.popleft()
                            if entry.__class__ is handle_cls:
                                entry._where = _GONE
                                if entry.cancelled:
                                    self._due_cancelled -= 1
                                    continue
                                entry = entry.action
                    elif heap:
                        item = heappop(heap)
                        entry = item[2]
                        if entry.__class__ is handle_cls:
                            entry._where = _GONE
                            if entry.cancelled:
                                self._heap_cancelled -= 1
                                continue
                            entry = entry.action
                        now = item[0]
                        self._now = now
                    else:
                        break
                    entry()
                    executed += 1
                    # consume_inline_delay() may advance time while the
                    # entry runs; resync the local copy.
                    now = self._now
            else:
                while True:
                    if self._stop_requested:
                        break
                    if (
                        max_events is not None
                        and executed + self._inline >= max_events
                    ):
                        break
                    # consume_inline_step() reads the completed count.
                    self._executed = executed
                    if due:
                        if heap and heap[0][0] <= self._now:
                            entry = heappop(heap)[2]
                            if entry.__class__ is handle_cls:
                                entry._where = _GONE
                                if entry.cancelled:
                                    self._heap_cancelled -= 1
                                    continue
                                entry = entry.action
                        else:
                            if until is not None and until < self._now:
                                self._now = until
                                break
                            entry = due.popleft()
                            if entry.__class__ is handle_cls:
                                entry._where = _GONE
                                if entry.cancelled:
                                    self._due_cancelled -= 1
                                    continue
                                entry = entry.action
                    elif heap:
                        time = heap[0][0]
                        if until is not None and time > until:
                            # Peek, don't pop: the boundary event stays
                            # put and costs nothing when run() resumes.
                            top = heap[0][2]
                            if top.__class__ is handle_cls and top.cancelled:
                                heappop(heap)
                                top._where = _GONE
                                self._heap_cancelled -= 1
                                continue
                            self._now = until
                            break
                        entry = heappop(heap)[2]
                        if entry.__class__ is handle_cls:
                            entry._where = _GONE
                            if entry.cancelled:
                                self._heap_cancelled -= 1
                                continue
                            entry = entry.action
                        self._now = time
                    else:
                        break
                    entry()
                    executed += 1
                    if hook is not None:
                        hook(self._now)
        finally:
            self._running = False
            self._max_events = None
            self._until = None
            executed += self._inline
            self._executed = executed
            self.events_executed += executed
        return executed

    def consume_inline_step(self) -> bool:
        """Grant the currently-running action one inline continuation.

        True only when running a zero-delay continuation immediately is
        indistinguishable from scheduling it: the engine is mid-run,
        nothing else is due at the current time, no stop was requested,
        and the max-events budget has room. On a grant the step is
        counted as an executed action, so run()'s return value and
        max_events semantics match the scheduled path exactly.
        """
        if (
            self._due
            or not self._running
            or self._stop_requested
            or (self._heap and self._heap[0][0] <= self._now)
        ):
            return False
        if (
            self._max_events is not None
            and self._executed + self._inline + 1 >= self._max_events
        ):
            # The scheduled path would have stopped before running this
            # step; declining keeps the accounting exact.
            return False
        self._inline += 1
        return True

    def consume_inline_delay(self, cycles: int) -> bool:
        """Advance time ``cycles`` inline for the currently-running action.

        The time-advance fast path of the process layer and the batched
        backend: a positive ``Delay`` normally suspends the process and re-enters the event
        loop via the heap. When the suspended continuation would be the
        *very next* event anyway — nothing due now, every heap entry
        strictly later than the resume time, no stop requested, and the
        ``until``/``max_events`` budgets have room — the delay is granted
        inline: time jumps forward and the process keeps running without
        touching the heap. Any other state returns False and the caller
        schedules normally, so event interleaving (and therefore every
        cycle count) is bit-identical to the scheduled path.
        """
        if (
            self._due
            or not self._running
            or self._stop_requested
            or cycles <= 0
        ):
            return False
        resume = self._now + cycles
        heap = self._heap
        if heap and heap[0][0] <= resume:
            # A cancelled top entry would be skipped by the loop, but
            # proving that here costs more than declining; fall back.
            return False
        until = self._until
        if until is not None and resume > until:
            return False
        if (
            self._max_events is not None
            and self._executed + self._inline + 1 >= self._max_events
        ):
            return False
        self._now = resume
        self._inline += 1
        return True

    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled actions. O(1)."""
        return (
            len(self._heap)
            - self._heap_cancelled
            + len(self._due)
            - self._due_cancelled
        )

    # -- cancellation accounting -------------------------------------------

    #: Compaction floor: below this many cancelled entries the rebuild
    #: costs more than the garbage.
    _COMPACT_MIN = 64

    def _note_cancel(self, where: int) -> None:
        if where == _HEAP:
            self._heap_cancelled += 1
            if (
                self._heap_cancelled >= self._COMPACT_MIN
                and self._heap_cancelled * 2 > len(self._heap)
            ):
                self._compact()
        else:
            self._due_cancelled += 1

    def _compact(self) -> None:
        """Drop cancelled heap entries and re-heapify.

        Entries keep their original (time, sequence) keys, so the
        execution order of the survivors is untouched.
        """
        handle_cls = ScheduledAction
        # In-place: run() holds a direct reference to the heap list.
        self._heap[:] = [
            entry
            for entry in self._heap
            if entry[2].__class__ is not handle_cls or not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._heap_cancelled = 0
