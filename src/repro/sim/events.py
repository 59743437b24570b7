"""Synchronization primitives for simulated processes.

``SimEvent`` is a one-shot broadcast event carrying a value — the basic
completion signal for protocol transactions (a cache-miss reply, a message
arrival, a barrier release). ``Gate`` is a reusable level-triggered
condition used for spin-wait modeling: a waiter parks until the gate is
pulsed, re-checks its predicate, and parks again if unsatisfied.
"""

from __future__ import annotations

from typing import Any, Callable, List


class SimEvent:
    """One-shot event: fires once with a value, releasing all waiters.

    Waiters registered after the event has fired are resumed immediately
    (on the next engine step) with the stored value.
    """

    __slots__ = ("_callbacks", "_value", "fired", "name")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.fired = False
        self._value: Any = None
        self._callbacks: List[Callable[[Any], None]] = []

    @property
    def value(self) -> Any:
        """Value the event fired with (None before firing)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire the event, delivering ``value`` to every waiter."""
        if self.fired:
            raise RuntimeError(f"SimEvent {self.name!r} fired twice")
        self.fired = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the event fires (or now if fired)."""
        if self.fired:
            callback(self._value)
        else:
            self._callbacks.append(callback)


class Gate:
    """Reusable pulse: every pulse wakes all currently parked waiters.

    Unlike :class:`SimEvent`, a gate never stays fired; a waiter that
    arrives between pulses parks until the next pulse. This models
    spinning on a cached flag efficiently: the spinner parks on the gate
    attached to its flag's cache line and is pulsed when an invalidation
    (i.e., a remote write) arrives, at which point it re-reads the flag.
    """

    __slots__ = ("_waiters", "name")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List[Callable[[], None]] = []

    def pulse(self) -> None:
        """Wake every parked waiter."""
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter()

    def park(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to run on the next pulse."""
        self._waiters.append(callback)
