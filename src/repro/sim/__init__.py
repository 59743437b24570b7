"""Discrete-event simulation kernel.

This package is the reproduction's substitute for the Wisconsin Wind
Tunnel: a deterministic, process-oriented discrete-event simulator.
Simulated processors are Python generators that yield primitive commands
(``Delay``, ``Wait``; see :mod:`repro.sim.process`) to the kernel;
everything above that — memory accesses, network-interface operations,
barriers, locks — is built as generator subroutines in the machine
packages.

It also holds the one observer registry both machines share. The
timeline tracer and the invariant checker are *observers*: while one is
installed with :func:`observing`, every machine built calls its
``attach(machine)`` once, at the end of the constructor, and the
observer instruments that machine's instances by rebinding bound
methods. With nothing installed a constructor loops over an empty list,
and no per-event code changes.
"""

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

#: The installed observers, in installation order.
_OBSERVERS: List[Any] = []


@contextmanager
def observing(observer: Any) -> Iterator[Any]:
    """Attach ``observer`` to every machine built in the block.

    One observer of a type at a time: installing a second raises
    :class:`RuntimeError`. The observer is removed when the block
    exits, raised or not.
    """
    kind = type(observer)
    if installed(kind) is not None:
        raise RuntimeError(f"a {kind.__name__} is already installed")
    _OBSERVERS.append(observer)
    try:
        yield observer
    finally:
        _OBSERVERS.remove(observer)


def installed(kind: type) -> Optional[Any]:
    """The installed observer of type ``kind``, or None."""
    for observer in _OBSERVERS:
        if isinstance(observer, kind):
            return observer
    return None


def attach_observers(machine: Any) -> None:
    """Hand a freshly built machine to every installed observer."""
    for observer in _OBSERVERS:
        observer.attach(machine)
