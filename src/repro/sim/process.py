"""Generator-based simulated processes.

A process body is a Python generator that yields *commands* to the kernel:

* ``Delay(cycles)`` — resume after a fixed number of cycles.
* ``Wait(event)``   — resume when a :class:`~repro.sim.events.SimEvent`
  fires; the yield expression evaluates to the event's value.

Machine operations (memory accesses, message sends, barriers) are written
as generator subroutines that bottom out in these two commands and are
composed with ``yield from``. This mirrors how the Wisconsin Wind Tunnel
interleaves direct execution with simulator callouts, with Python
generators standing in for instrumented binaries.

Stepping is allocation-free on the hot path: each process owns one bound
continuation that is handed to the engine for every resume (no per-yield
lambda), and ``Delay(0)`` / already-fired ``Wait`` commands are stepped
inline — without a trip through the scheduler — whenever the engine can
prove the continuation would have been the very next event anyway
(:meth:`Engine.consume_inline_step`). A positive ``Delay`` advances time
inline under the same proof (:meth:`Engine.consume_inline_delay`, whose
checks ``_step`` open-codes). Event wake-ups always go through the
scheduler so a wake-up stays its own event, preserving deterministic
ordering among processes released by the same firing.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim.engine import Engine
from repro.sim.events import SimEvent


class Delay:
    """Command: suspend the process for ``cycles`` cycles."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError(f"negative delay: {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:
        return f"Delay({self.cycles})"


#: Interned small delays. A Delay is immutable once built and the kernel
#: only ever reads ``cycles``, so the same instance can be yielded by any
#: number of processes; the hot protocol paths use :func:`delay_of` to
#: skip the per-yield allocation.
_DELAY_CACHE = tuple(Delay(c) for c in range(257))


def delay_of(cycles: int) -> Delay:
    """An interned :class:`Delay` for small cycle counts."""
    if 0 <= cycles < 257:
        return _DELAY_CACHE[cycles]
    return Delay(cycles)


class Wait:
    """Command: suspend the process until ``event`` fires."""

    __slots__ = ("event",)

    def __init__(self, event: SimEvent) -> None:
        self.event = event

    def __repr__(self) -> str:
        return f"Wait({self.event.name!r})"


class ProcessCrash(RuntimeError):
    """An exception escaped a process body; wraps the original error."""

    def __init__(self, process_name: str, original: BaseException) -> None:
        super().__init__(f"process {process_name!r} crashed: {original!r}")
        self.process_name = process_name
        self.original = original


class DeadlockError(RuntimeError):
    """The event queue drained while some program had not finished."""


ProcessBody = Generator[Any, Any, Any]


class Process:
    """Drives one generator body through the engine.

    The process starts on the engine's next step after construction (time
    zero if created before ``run()``), so creation order does not skew
    start times. ``done`` fires with the generator's return value when
    the body completes.
    """

    __slots__ = (
        "engine",
        "name",
        "done",
        "_body",
        "_crashed",
        "_cont",
        "_deliver",
        "_on_event",
        "_wake_value",
    )

    def __init__(self, engine: Engine, body: ProcessBody, name: str = "proc") -> None:
        self.engine = engine
        self.name = name
        self.done = SimEvent(name=f"{name}.done")
        self._body = body
        self._crashed: Optional[ProcessCrash] = None
        # Bound once; every resume reuses these instead of building a
        # fresh closure per yield.
        self._cont = self._step
        self._deliver = self._deliver_wake
        self._on_event = self._resume_from_event
        self._wake_value: Any = None
        engine.schedule(0, self._cont)

    @property
    def finished(self) -> bool:
        """True once the body has returned (or crashed)."""
        return self.done.fired or self._crashed is not None

    def result(self) -> Any:
        """Return value of the body; raises if it crashed or is unfinished."""
        if self._crashed is not None:
            raise self._crashed
        if not self.done.fired:
            raise RuntimeError(f"process {self.name!r} has not finished")
        return self.done.value

    def _step(self, value: Any = None) -> None:
        body_send = self._body.send
        engine = self.engine
        cont = self._cont
        while True:
            try:
                command = body_send(value)
            except StopIteration as stop:
                self.done.fire(stop.value)
                return
            except Exception as exc:  # noqa: BLE001 - deliberate crash wrapping
                self._crashed = ProcessCrash(self.name, exc)
                raise self._crashed from exc
            # Exact-class dispatch: Delay and Wait are final commands (no
            # subclasses anywhere), and this runs once per simulated
            # machine cycle, so even one spared isinstance() call shows up.
            command_cls = command.__class__
            if command_cls is Delay:
                # Enqueue the continuation directly (the open-coded body
                # of Engine.schedule).
                cycles = command.cycles
                if cycles:
                    # The checks of Engine.consume_inline_delay, open-coded:
                    # resume inline when nothing else is due now and
                    # nothing on the heap comes first.
                    resume = engine._now + cycles
                    heap = engine._heap
                    if (
                        not engine._due
                        and (not heap or heap[0][0] > resume)
                        and engine._running
                    ):
                        engine._now = resume
                        engine._inline += 1
                        value = None
                        continue
                    heappush(heap, (resume, engine._seq, cont))
                    engine._seq += 1
                    return
                if not engine._due and engine.consume_inline_step():
                    value = None
                    continue
                engine._due.append(cont)
                return
            if command_cls is Wait:
                event = command.event
                if event.fired:
                    if engine.consume_inline_step():
                        value = event.value
                        continue
                    # Open-coded _resume_from_event for the already-fired
                    # case: park the value and wake on the next step.
                    self._wake_value = event.value
                    engine._due.append(self._deliver)
                    return
                event._callbacks.append(self._on_event)
                return
            error = TypeError(
                f"process {self.name!r} yielded {command!r}; "
                "only Delay and Wait commands are understood"
            )
            self._crashed = ProcessCrash(self.name, error)
            raise self._crashed from error

    def _resume_from_event(self, value: Any) -> None:
        # Resume via the engine so the wake-up happens as its own event,
        # preserving deterministic ordering among processes released by
        # the same firing. (A process waits on at most one thing, so one
        # parked wake value suffices.)
        self._wake_value = value
        self.engine._due.append(self._deliver)

    def _deliver_wake(self) -> None:
        value = self._wake_value
        self._wake_value = None
        self._step(value)
