"""Opt-in invariant checking for the simulated machines (``repro.check``).

Everything the paper measures assumes the Dir_nNB protocol and the
CM-5-style message layer are *correct*; this package makes that claim
checkable. It follows the :mod:`repro.trace` pattern exactly:

* **Zero overhead when off.** :func:`checking` installs a checker in
  the observer registry both machines share
  (:func:`repro.sim.observing`); with none installed, a machine
  constructor has nothing to hand itself to, and golden cycle counts
  stay bit-identical.
* **Per-instance instrumentation when on.** ``with checking():`` makes
  every machine built in the block self-checking: SWMR,
  directory/cache agreement, and the data-value invariant on the
  shared-memory machine; per-channel FIFO, packet conservation, and
  quiescence on the message-passing machine. A violation raises
  :class:`CheckError` at the instant it happens.
* **Checking never perturbs a run.** Monitors schedule no events and
  draw no RNG streams, so cycle counts with checking on equal the
  unchecked counts exactly.

The litmus-test DSL (:mod:`repro.check.litmus`) and the randomized
stress generator (:mod:`repro.check.stress`) build on the monitors;
they import the machines, so they are *not* imported here.
"""

from repro.check.errors import CheckError
from repro.check.monitor import Checker, checking

__all__ = [
    "CheckError",
    "Checker",
    "checking",
]
