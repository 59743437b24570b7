"""The tracer: per-instance instrumentation of machines under trace.

Nothing here runs unless a tracer is installed (:func:`tracing`, over
the shared observer registry :func:`repro.sim.observing`). Machines
hand themselves to every installed observer at the end of their
constructors; a :class:`Tracer` instruments the *instances* it is handed
— ``ProcStats`` charge/count/context/phase methods, the machine's
message-delivery paths, the directory controllers' inboxes, and the
engine's dispatch hook — by rebinding bound methods, so untraced
machines (and the class-level code paths) are untouched.

Interval anchoring: a ``charge(category, cycles)`` arriving at engine
time ``now`` is *prospective* (charged before the stall is simulated,
e.g. a local-miss stall) when ``now`` equals the processor's timeline
cursor, and *retrospective* (charged after waiting, e.g. barrier wait
or a shared-memory transaction measuring ``now - start``) when the
cycles exactly fill the gap back to the cursor. Both anchor the
interval on the cycles they describe, so per-category interval sums
equal the aggregate ``ProcStats`` totals cycle-for-cycle.
"""

from __future__ import annotations

from typing import Any, ContextManager, Dict, Iterable, List, Optional, Tuple

from repro.sim import observing

#: Chrome-trace thread-id layout, per simulated processor ``pid``:
#: cycles on ``pid``, message/flow endpoints on ``TID_NET + pid``,
#: phase spans on ``TID_PHASE + pid``, attribution contexts on
#: ``TID_CTX + pid``, directory controllers on ``TID_DIR + node``.
TID_NET = 1000
TID_PHASE = 2000
TID_CTX = 3000
TID_DIR = 4000

#: Default cap on stored capped records (intervals, flows, instants,
#: counter samples). Phase/context marks are exempt so begin/end pairs
#: always balance. Overflow increments ``Tracer.dropped``.
DEFAULT_MAX_EVENTS = 250_000

#: Engine dispatches between samples of the pending-event counter.
COUNTER_INTERVAL = 1024


def tracing(tracer: Optional["Tracer"] = None) -> ContextManager["Tracer"]:
    """``with tracing() as t:`` — trace every machine built in the block."""
    return observing(tracer if tracer is not None else Tracer())


class Tracer:
    """Collects timeline records from every machine built while installed.

    Args:
        procs: restrict per-processor records to these pids (all when None).
        max_events: cap on stored capped records (see DEFAULT_MAX_EVENTS);
            ``None`` means the default, not unlimited.
    """

    def __init__(
        self,
        procs: Optional[Iterable[int]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.procs = frozenset(procs) if procs is not None else None
        self.max_events = DEFAULT_MAX_EVENTS if max_events is None else int(max_events)
        #: (machine-index, pid, category-label, phase, start, duration)
        self.intervals: List[Tuple[int, int, str, str, int, int]] = []
        #: (machine-index, name, src-tid, dst-tid, t-send, t-recv, args)
        self.flows: List[Tuple[int, str, int, int, int, int, Dict[str, Any]]] = []
        #: (machine-index, tid, ts, name, args)
        self.instants: List[Tuple[int, int, int, str, Dict[str, Any]]] = []
        #: (machine-index, ts, counter-name, series-name, value)
        self.counters: List[Tuple[int, int, str, str, int]] = []
        #: (machine-index, tid, name, "B"|"E", ts) — exempt from the cap.
        self.marks: List[Tuple[int, int, str, str, int]] = []
        #: One dict per attached machine: label, kind, nprocs, engine.
        self.machines: List[Dict[str, Any]] = []
        self.dropped = 0
        self._stored = 0
        self._cursors: Dict[Tuple[int, int], int] = {}
        self._cum: Dict[Tuple[int, int, str], int] = {}

    # -- attach point (called by every machine constructor) ----------------

    def attach(self, machine: Any) -> None:
        """Instrument a freshly built machine of either kind."""
        mi = len(self.machines)
        self.machines.append(
            {
                "label": f"{machine.kind}{mi}",
                "kind": machine.kind,
                "nprocs": machine.nprocs,
                "engine": machine.engine,
            }
        )
        for node in machine.nodes:
            self._instrument_stats(mi, node.stats, machine.engine)
        if machine.kind == "mp":
            self._wrap_mp_delivery(mi, machine)
        else:
            self._wrap_sm_protocol(mi, machine)
        self._hook_engine(mi, machine.engine)

    # -- record storage -----------------------------------------------------

    def _admit(self) -> bool:
        """One capped record wants in; False (and counted) past the budget."""
        if self._stored >= self.max_events:
            self.dropped += 1
            return False
        self._stored += 1
        return True

    def _traced_pid(self, pid: int) -> bool:
        return self.procs is None or pid in self.procs

    def _interval(self, mi: int, pid: int, label: str, phase: str, now: int, cycles: int) -> None:
        key = (mi, pid)
        cursor = self._cursors.get(key, 0)
        start = now
        if now > cursor and now - cycles >= cursor:
            start = now - cycles  # retrospective charge: it fills the wait
        end = start + cycles
        if end > cursor:
            self._cursors[key] = end
        if self._admit():
            self.intervals.append((mi, pid, label, phase, start, cycles))

    def _flow(self, mi: int, name: str, src_tid: int, dst_tid: int, t0: int, t1: int, args: Dict[str, Any]) -> None:
        if self._admit():
            self.flows.append((mi, name, src_tid, dst_tid, t0, t1, args))

    def _instant(self, mi: int, tid: int, ts: int, name: str, args: Dict[str, Any]) -> None:
        if self._admit():
            self.instants.append((mi, tid, ts, name, args))

    def _counter(self, mi: int, ts: int, name: str, series: str, value: int) -> None:
        if self._admit():
            self.counters.append((mi, ts, name, series, value))

    def _mark(self, mi: int, tid: int, name: str, ph: str, ts: int) -> None:
        self.marks.append((mi, tid, name, ph, ts))

    # -- ProcStats instrumentation -----------------------------------------

    def _instrument_stats(self, mi: int, stats: Any, engine: Any) -> None:
        pid = stats.pid
        if not self._traced_pid(pid):
            return
        tracer = self
        orig_charge = stats.charge
        orig_charge_raw = stats.charge_raw
        orig_count = stats.count
        orig_push_context = stats.push_context
        orig_pop_context = stats.pop_context
        orig_push_phase = stats.push_phase
        orig_pop_phase = stats.pop_phase

        def charge(category: Any, cycles: int) -> None:
            orig_charge(category, cycles)
            if cycles > 0:
                tracer._interval(
                    mi, pid, _label(stats._resolve(category)),
                    stats.current_phase or "", engine.now, int(cycles),
                )

        def charge_raw(category: Any, cycles: int) -> None:
            orig_charge_raw(category, cycles)
            if cycles > 0:
                tracer._interval(
                    mi, pid, _label(category),
                    stats.current_phase or "", engine.now, int(cycles),
                )

        def count(key: str, amount: int = 1) -> None:
            orig_count(key, amount)
            cum_key = (mi, pid, key)
            value = tracer._cum.get(cum_key, 0) + amount
            tracer._cum[cum_key] = value
            tracer._counter(mi, engine.now, key, f"p{pid}", value)

        def push_context(name: str) -> None:
            orig_push_context(name)
            tracer._mark(mi, TID_CTX + pid, name, "B", engine.now)

        def pop_context(expected: Optional[str] = None) -> None:
            name = stats._context_stack[-1] if stats._context_stack else "?"
            orig_pop_context(expected)
            tracer._mark(mi, TID_CTX + pid, name, "E", engine.now)

        def push_phase(name: str) -> None:
            orig_push_phase(name)
            tracer._mark(mi, TID_PHASE + pid, name, "B", engine.now)

        def pop_phase(expected: Optional[str] = None) -> None:
            name = stats._phase_stack[-1] if stats._phase_stack else "?"
            orig_pop_phase(expected)
            tracer._mark(mi, TID_PHASE + pid, name, "E", engine.now)

        stats.charge = charge
        stats.charge_raw = charge_raw
        stats.count = count
        stats.push_context = push_context
        stats.pop_context = pop_context
        stats.push_phase = push_phase
        stats.pop_phase = pop_phase

    # -- machine-level instrumentation -------------------------------------

    def _wrap_mp_delivery(self, mi: int, machine: Any) -> None:
        """Record each packet train as a send→receive flow."""
        tracer = self
        engine = machine.engine
        latency = machine.params.common.message_latency
        orig_deliver = machine.deliver

        def deliver(packet: Any) -> None:
            orig_deliver(packet)
            if tracer._traced_pid(packet.src) or tracer._traced_pid(packet.dest):
                now = engine.now
                tracer._flow(
                    mi, f"msg {packet.tag}",
                    TID_NET + packet.src, TID_NET + packet.dest,
                    now, now + latency(packet.src, packet.dest),
                    {
                        "src": packet.src,
                        "dest": packet.dest,
                        "packets": packet.count,
                        "data_bytes": packet.data_bytes,
                        "control_bytes": packet.control_bytes,
                    },
                )

        machine.deliver = deliver

    def _wrap_sm_protocol(self, mi: int, machine: Any) -> None:
        """Record protocol messages as flows and directory arrivals as instants."""
        tracer = self
        engine = machine.engine
        orig_to_dir = machine.send_to_directory_from
        orig_to_cc = machine.send_to_cache_ctrl

        def send_to_directory_from(src: int, home: int, msg: Any) -> None:
            orig_to_dir(src, home, msg)
            if tracer._traced_pid(src) or tracer._traced_pid(home):
                now = engine.now
                tracer._flow(
                    mi, msg.type.name,
                    TID_NET + src, TID_DIR + home,
                    now, now + machine.latency(src, home),
                    {"block": msg.block, "src": src, "requester": msg.requester},
                )

        def send_to_cache_ctrl(src: int, dest: int, msg: Any) -> None:
            orig_to_cc(src, dest, msg)
            if tracer._traced_pid(src) or tracer._traced_pid(dest):
                now = engine.now
                tracer._flow(
                    mi, msg.type.name,
                    TID_DIR + src, TID_NET + dest,
                    now, now + machine.latency(src, dest),
                    {"block": msg.block, "src": src, "requester": msg.requester},
                )

        machine.send_to_directory_from = send_to_directory_from
        machine.send_to_cache_ctrl = send_to_cache_ctrl

        for directory in machine.directories:
            self._wrap_directory(mi, directory, engine)

    def _wrap_directory(self, mi: int, directory: Any, engine: Any) -> None:
        tracer = self
        node = directory.node_id
        if not self._traced_pid(node):
            return
        orig_post = directory.post

        def post(msg: Any) -> None:
            orig_post(msg)
            tracer._instant(
                mi, TID_DIR + node, engine.now, msg.type.name,
                {"block": msg.block, "src": msg.src, "requester": msg.requester},
            )

        directory.post = post

    def _hook_engine(self, mi: int, engine: Any) -> None:
        """Sample the engine's pending-event depth every COUNTER_INTERVAL
        dispatches."""
        tracer = self
        state = {"n": 0}

        def hook(now: int) -> None:
            state["n"] += 1
            if state["n"] % COUNTER_INTERVAL == 0:
                tracer._counter(mi, now, "engine.pending", "pending", engine.pending())

        engine.dispatch_hook = hook

    # -- summaries ----------------------------------------------------------

    def interval_totals(self, mi: int) -> Dict[int, Dict[str, int]]:
        """Per-processor per-category cycle sums of the recorded intervals."""
        totals: Dict[int, Dict[str, int]] = {}
        for rec_mi, pid, label, _phase, _start, dur in self.intervals:
            if rec_mi == mi:
                totals.setdefault(pid, {}).setdefault(label, 0)
                totals[pid][label] += dur
        return totals


def _label(category: Any) -> str:
    """Human-readable category name (enum value, else str)."""
    return getattr(category, "value", None) or str(category)
