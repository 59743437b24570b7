"""Opt-in timeline tracing: where every cycle went, and when.

The aggregate tables answer *how much* time each processor spent in
each category; this package answers *when*. A :class:`Tracer` attaches
to every machine built while it is installed and records

* per-processor **interval records** — (category, phase, start-cycle,
  duration), one per ``ProcStats`` charge, anchored so that
  retrospective charges (barrier waits, shared-miss transactions)
  cover the cycles they actually waited through;
* **flow events** — message send→receive on the message-passing
  machine, and requester→directory→cache-controller protocol messages
  on the shared-memory machine;
* **directory-protocol transitions** — every message arriving at a
  directory controller, as instant events;
* **counter samples** — named event counters (bytes, misses,
  messages) and the engine's pending-event depth.

Traces export to Chrome Trace Event JSON (:mod:`repro.trace.chrome`,
loadable in Perfetto or ``chrome://tracing``) and to a paper-style
ASCII timeline (:mod:`repro.trace.timeline`); ``python -m repro trace``
wires both to the experiment registry.

Zero overhead when disabled
---------------------------

:func:`tracing` installs a tracer in the observer registry both
machines share (:func:`repro.sim.observing`). A machine constructor
hands itself to each installed observer (one call per *machine
construction*, never per event), and all per-event instrumentation is
installed by rebinding bound methods on the specific
``ProcStats``/machine *instances* being traced. With tracing off, no
hot-path code changes: ``Engine.run`` keeps its allocation-free fast
loop (the dispatch hook is only consulted once per ``run()`` call), and
``ProcStats.charge`` is the same function the seed shipped. Golden
cycle and event counts are bit-identical either way.
"""

from repro.trace.tracer import Tracer, tracing

__all__ = [
    "Tracer",
    "tracing",
]
