"""The checker: opt-in runtime invariant monitors for both machines.

Nothing here runs unless a checker is installed (:func:`checking`,
over the shared observer registry :func:`repro.sim.observing`).
Machines hand themselves to every installed observer at the end of
their constructors; a :class:`Checker` instruments the *instances* it
is handed by rebinding bound methods (the same technique
:mod:`repro.trace` uses), so unchecked machines — and the class-level
hot paths — are untouched and golden cycle counts stay bit-identical
with checking off.

Checking is pure observation: no engine events are scheduled, no RNG
streams are drawn, no simulated cycles are charged. A checked run is
therefore cycle-for-cycle identical to an unchecked one; a violation
raises :class:`~repro.check.errors.CheckError` at the exact engine
instant the invariant broke.

Shared-memory invariants
------------------------

* **SWMR** (single-writer / multiple-reader): at every instant, a
  shared directory-protocol block is cached EXCLUSIVE by at most one
  node, and never EXCLUSIVE alongside any other copy. Checked at every
  cache insert / state change / invalidation. Blocks of ``"update"``
  protocol regions are exempt (the Section 5.3.4 user-level protocol
  deliberately refreshes consumer copies in place).
* **Directory/cache agreement**: at quiescence (end of run), every
  cached copy is accounted for by its home directory — an EXCLUSIVE
  line matches ``EXCLUSIVE@owner``, SHARED holders are a subset of the
  entry's sharer set (the directory may over-approximate: clean
  evictions are silent), and no entry is left busy or with parked
  requests.
* **Data-value invariant**: a load returns the value written by the
  most recent store to that location, judged against a flat
  shadow-memory oracle. The oracle is updated only at the completion
  instants of modeled stores (``write`` / ``write_scatter`` / atomics),
  so any value that appears via a path the protocol did not serialize
  shows up as a mismatch on the next load.

Relaxed machines (``consistency="tso"|"pc"``) adapt the data-value
invariant to per-location coherence: the shadow is advanced at each
store-buffer *commit* instant (the wrapped
:meth:`~repro.sm.relaxed.StoreBufferDrain.commit`), every commit must
respect per-location program order (CoWW / coherence order,
``checks["coherence-order"]``), a load must return the committed shadow
with the loader's *own* pending stores forwarded over it (exactly the
TSO/PC load value), and quiescence additionally requires every store
buffer to have drained dry (``checks["sb-quiescent"]``). SWMR and
directory agreement are unchanged — drain commits go through the real
protocol.

Message-passing invariants
--------------------------

* **Per-channel FIFO**: packets from one source, with one tag, bound
  for one destination queue (polled FIFO or interrupt queue) are
  dequeued in exactly the order the network delivered them.
* **Packet conservation**: every 20-byte packet injected is received
  at most once (receipt of an unknown or already-received packet trips
  immediately) and is never lost — at end of run every unreceived
  packet must still be sitting in some node's incoming FIFO or
  interrupt queue. Each train's data + control bytes account for
  exactly ``count`` packets.
* **Quiescence**: residue left at end of run is accounted for, not
  forbidden — real programs legitimately finish with last-round
  flow-control credits still queued (EM3D does) and with push-style
  channel bytes delivered but never waited on (ALCP-MP's star updates
  land in the window with no consumer). Both are counted, in
  ``checks["residual-packets"]`` and ``checks["residual-channel-bytes"]``;
  ``strict_quiescence=True`` turns any residue into a violation (the
  stress programs drain everything they send).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial
from typing import Any, ContextManager, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.arch.cache import LineState
from repro.check.errors import CheckError
from repro.memory.dataspace import Segment
from repro.sim import observing
from repro.sim.batch import run_batch_reference
from repro.sm.protocol import DirState


def _mismatch_mask(got: np.ndarray, expect: np.ndarray) -> np.ndarray:
    """Elementwise inequality treating NaN == NaN as a match."""
    neq = got != expect
    if neq.any() and got.dtype.kind == "f":
        neq &= ~(np.isnan(got) & np.isnan(expect))
    return neq


def checking(checker: Optional["Checker"] = None) -> ContextManager["Checker"]:
    """``with checking() as c:`` — check every machine built in the block."""
    return observing(checker if checker is not None else Checker())


class _SmState:
    """Per-attached-SM-machine monitor state."""

    __slots__ = ("machine", "holders", "block_kind", "shadow", "relaxed")

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        #: block -> {pid: LineState} over shared dir-protocol blocks.
        self.holders: Dict[int, Dict[int, LineState]] = {}
        #: block -> "dir" | "update" (memoized region-protocol lookup).
        self.block_kind: Dict[int, str] = {}
        #: region name -> flat oracle copy of the region's memory.
        self.shadow: Dict[str, np.ndarray] = {}
        #: True when the machine runs a non-SC memory model.
        self.relaxed: bool = getattr(machine, "consistency", "sc") != "sc"


class _MpState:
    """Per-attached-MP-machine monitor state."""

    __slots__ = ("machine", "outstanding", "channels", "sent", "received")

    def __init__(self, machine: Any) -> None:
        self.machine = machine
        #: id(packet) -> (src, dest, tag) for every delivered, unreceived train.
        self.outstanding: Dict[int, Tuple[int, int, str]] = {}
        #: (dest, src, tag, queue-class) -> FIFO of expected packet ids.
        self.channels: Dict[Tuple[int, int, str, str], Deque[int]] = {}
        self.sent = 0
        self.received = 0


class Checker:
    """Monitors every machine built while installed.

    Args:
        strict_quiescence: fail if any packet is left in a queue at end
            of run (off by default: last-round flow-control messages
            legitimately go undrained in real programs).
    """

    def __init__(self, strict_quiescence: bool = False) -> None:
        self.strict_quiescence = strict_quiescence
        #: Count of individual invariant checks performed, by name.
        self.checks: Counter = Counter()
        self._sm: List[_SmState] = []
        self._mp: List[_MpState] = []

    # -- attach point (called by every machine constructor) ----------------

    def attach(self, machine: Any) -> None:
        """Instrument a freshly built machine of either kind."""
        if machine.kind == "mp":
            st = _MpState(machine)
            self._mp.append(st)
            self._instrument_mp_network(st, machine)
            verify = self.verify_mp_quiescent
        else:
            st = _SmState(machine)
            self._sm.append(st)
            for node in machine.nodes:
                self._instrument_sm_cache(st, node.pid, node.cache)
            for ctx in machine.contexts:
                if st.relaxed:
                    self._instrument_sm_drain(st, ctx)
                self._instrument_sm_context(st, ctx)
            verify = self.verify_sm_quiescent
        orig_run = machine.run

        def run(*args: Any) -> Any:
            result = orig_run(*args)
            verify(st)
            return result

        machine.run = run

    # -- shared-memory: block classification --------------------------------

    def _block_kind(self, st: _SmState, block: int) -> str:
        """Protocol of the region covering ``block`` ("dir" or "update")."""
        kind = st.block_kind.get(block)
        if kind is None:
            kind = "dir"
            for region in st.machine.space.regions.values():
                base = region.base - (region.base % region.block_bytes)
                if base <= block < region.end:
                    kind = region.protocol
                    break
            st.block_kind[block] = kind
        return kind

    def _tracked(self, st: _SmState, block: int) -> bool:
        return st.machine.is_shared_block(block) and self._block_kind(st, block) == "dir"

    # -- shared-memory: SWMR at every cache mutation -------------------------

    def _instrument_sm_cache(self, st: _SmState, pid: int, cache: Any) -> None:
        checker = self
        orig_insert = cache.insert
        orig_set_state = cache.set_state
        orig_invalidate = cache.invalidate

        def insert(block_addr: int, state: LineState):
            victim = orig_insert(block_addr, state)
            if victim is not None:
                checker._drop_holder(st, pid, victim[0])
            checker._record_holder(st, pid, block_addr, state)
            return victim

        def set_state(block_addr: int, state: LineState) -> None:
            orig_set_state(block_addr, state)
            checker._record_holder(st, pid, block_addr, state)

        def invalidate(block_addr: int) -> LineState:
            prior = orig_invalidate(block_addr)
            checker._drop_holder(st, pid, block_addr)
            return prior

        cache.insert = insert
        cache.set_state = set_state
        cache.invalidate = invalidate

    def _record_holder(self, st: _SmState, pid: int, block: int, state: LineState) -> None:
        if not self._tracked(st, block):
            return
        holders = st.holders.get(block)
        if holders is None:
            holders = st.holders[block] = {}
        holders[pid] = state
        self.checks["swmr"] += 1
        if state is LineState.EXCLUSIVE and len(holders) > 1:
            others = {p: s.name for p, s in holders.items() if p != pid}
            raise CheckError(
                "swmr",
                f"node {pid} took EXCLUSIVE while copies exist at {others}",
                node=pid,
                block=block,
                state=self._dir_state(st, block),
            )
        if state is not LineState.EXCLUSIVE:
            writers = [p for p, s in holders.items() if s is LineState.EXCLUSIVE]
            if writers:
                raise CheckError(
                    "swmr",
                    f"node {pid} holds a {state.name} copy while node "
                    f"{writers[0]} holds it EXCLUSIVE",
                    node=pid,
                    block=block,
                    state=self._dir_state(st, block),
                )

    def _drop_holder(self, st: _SmState, pid: int, block: int) -> None:
        holders = st.holders.get(block)
        if holders is not None:
            holders.pop(pid, None)
            if not holders:
                del st.holders[block]

    def _dir_state(self, st: _SmState, block: int) -> Optional[str]:
        """Home-directory entry description for error messages."""
        try:
            home = st.machine.home_of(block)
        except KeyError:
            return None
        entry = st.machine.directories[home].entries.get(block)
        return entry.describe() if entry is not None else "absent"

    # -- shared-memory: data-value oracle ------------------------------------

    def _shadow(self, st: _SmState, region: Any) -> np.ndarray:
        shadow = st.shadow.get(region.name)
        if shadow is None:
            shadow = st.shadow[region.name] = np.array(
                region.np.reshape(-1), copy=True
            )
        return shadow

    def _oracle_region(self, region: Any) -> bool:
        return region.segment is Segment.SHARED and region.protocol == "dir"

    def _check_loaded(
        self,
        st: _SmState,
        pid: int,
        region: Any,
        where: Any,
        values: Any,
        store_buffer: Any = None,
    ) -> None:
        """Compare loaded values against the oracle; ``where`` is a slice
        start or an index array.

        ``store_buffer`` (relaxed machines) is the loading processor's
        own buffer: the expected value is then the *committed* shadow
        with that buffer's pending stores forwarded over it — exactly
        the value a TSO/PC load must return (per-location coherence,
        CoRR included, without demanding a global store order).
        """
        shadow = self._shadow(st, region)
        got = np.asarray(values).reshape(-1)
        if isinstance(where, np.ndarray):
            expect = shadow[where]
        else:
            expect = shadow[where : where + got.size]
        if store_buffer is not None and store_buffer.has_pending_for(region):
            if isinstance(where, np.ndarray):
                expect = store_buffer.apply_pending_gather(
                    region, where, np.array(expect)
                )
            else:
                expect = store_buffer.apply_pending(
                    region, where, where + got.size, np.array(expect)
                )
        self.checks["data-value"] += 1
        bad = np.flatnonzero(_mismatch_mask(got, expect))
        if bad.size:
            i = int(bad[0])
            raise CheckError(
                "data-value",
                f"load from {region.name!r} returned {got[i]!r} where the "
                f"most recent store wrote {expect[i]!r} (element "
                f"{(where[i] if isinstance(where, np.ndarray) else where + i)})",
                node=pid,
                block=region.addr_of(
                    int(where[i]) if isinstance(where, np.ndarray) else where + i
                ),
            )

    def _instrument_sm_context(self, st: _SmState, ctx: Any) -> None:
        checker = self
        pid = ctx.pid
        # Relaxed contexts buffer tracked stores: memory (and hence the
        # shadow) advances at the drain's commit instants — wrapped in
        # _instrument_sm_drain — not at write() completion, and loads
        # are judged with the loader's own pending stores forwarded.
        store_buffer = getattr(ctx, "store_buffer", None) if st.relaxed else None
        orig_read = ctx.read
        orig_read_gather = ctx.read_gather
        orig_write = ctx.write
        orig_write_scatter = ctx.write_scatter
        orig_swap = ctx.atomic_swap
        orig_cas = ctx.atomic_cas

        # Every wrapper snapshots the region's shadow at *operation start*
        # (before the modeled op mutates memory): atomics assign memory
        # mid-operation, so a shadow first materialized afterwards would
        # capture post-op values and mislabel the op's own effect.

        def read(region, start=0, stop=None):
            tracked = checker._oracle_region(region)
            if tracked:
                checker._shadow(st, region)
            values = yield from orig_read(region, start, stop)
            if tracked:
                checker._check_loaded(
                    st, pid, region, start, values, store_buffer=store_buffer
                )
            return values

        def read_gather(region, indices):
            tracked = checker._oracle_region(region)
            if tracked:
                checker._shadow(st, region)
            values = yield from orig_read_gather(region, indices)
            if tracked:
                idx = np.asarray(indices, dtype=np.int64)
                checker._check_loaded(
                    st, pid, region, idx, values, store_buffer=store_buffer
                )
            return values

        def write(region, start=0, stop=None, values=None):
            tracked = checker._oracle_region(region)
            if tracked:
                checker._shadow(st, region)
            result = yield from orig_write(region, start, stop, values=values)
            if tracked and store_buffer is None:
                end = start + np.asarray(values).size if values is not None else stop
                shadow = checker._shadow(st, region)
                shadow[start:end] = region.np.reshape(-1)[start:end]
            return result

        def write_scatter(region, indices, values):
            tracked = checker._oracle_region(region)
            if tracked:
                checker._shadow(st, region)
            result = yield from orig_write_scatter(region, indices, values)
            if tracked and store_buffer is None:
                idx = np.asarray(indices, dtype=np.int64)
                shadow = checker._shadow(st, region)
                shadow[idx] = region.np.reshape(-1)[idx]
            return result

        def atomic_swap(region, index, new_value):
            tracked = checker._oracle_region(region)
            if tracked:
                checker._shadow(st, region)
            old = yield from orig_swap(region, index, new_value)
            if tracked:
                shadow = checker._shadow(st, region)
                expect = shadow[index]
                checker.checks["data-value"] += 1
                if old != expect:
                    raise CheckError(
                        "data-value",
                        f"atomic_swap on {region.name}[{index}] returned "
                        f"{old!r}; the most recent store wrote {expect!r}",
                        node=pid,
                        block=region.addr_of(index),
                    )
                shadow[index] = region.np.reshape(-1)[index]
            return old

        def atomic_cas(region, index, expected, new_value):
            tracked = checker._oracle_region(region)
            if tracked:
                checker._shadow(st, region)
            swapped = yield from orig_cas(region, index, expected, new_value)
            if tracked:
                shadow = checker._shadow(st, region)
                shadow[index] = region.np.reshape(-1)[index]
            return swapped

        ctx.read = read
        ctx.read_gather = read_gather
        ctx.write = write
        ctx.write_scatter = write_scatter
        ctx.atomic_swap = atomic_swap
        ctx.atomic_cas = atomic_cas
        # A batch is observed only if it decomposes through the wrapped ops.
        ctx.run_batch = partial(run_batch_reference, ctx)

    # -- shared-memory: relaxed commit order + shadow advance ----------------

    def _instrument_sm_drain(self, st: _SmState, ctx: Any) -> None:
        """Wrap a relaxed context's drain commit (the visibility instant).

        Two duties: (a) *coherence order* — no entry may commit while an
        older pending store to an overlapping location exists (per-location
        program order; this is what keeps CoWW intact under both TSO and
        PC); (b) advance the shadow with the committed values, since the
        write() wrapper deliberately did not.
        """
        checker = self
        drain = ctx.drain
        store_buffer = ctx.store_buffer
        orig_commit = drain.commit

        def commit(entry: Any) -> None:
            checker.checks["coherence-order"] += 1
            if not store_buffer.is_oldest_conflicting(entry):
                raise CheckError(
                    "coherence-order",
                    f"node {ctx.pid} committed {entry.describe()} while an "
                    f"older pending store to the same location existed "
                    f"(per-location program order / CoWW violated)",
                    node=ctx.pid,
                )
            orig_commit(entry)
            if entry.values is not None and checker._oracle_region(entry.region):
                shadow = checker._shadow(st, entry.region)
                if entry.indices is None:
                    shadow[entry.start : entry.start + entry.values.size] = (
                        entry.values
                    )
                else:
                    shadow[entry.indices] = entry.values

        drain.commit = commit

    # -- shared-memory: quiescent directory/cache agreement ------------------

    def verify_sm_quiescent(self, st: _SmState) -> None:
        """End-of-run sweep: directories and caches agree, oracle matches."""
        machine = st.machine
        if st.relaxed:
            for ctx in machine.contexts:
                store_buffer = getattr(ctx, "store_buffer", None)
                if store_buffer is None:
                    continue
                self.checks["sb-quiescent"] += 1
                if len(store_buffer):
                    pending = ", ".join(
                        e.describe() for e in store_buffer.entries
                    )
                    raise CheckError(
                        "sb-quiescent",
                        f"node {ctx.pid} ended the run with "
                        f"{len(store_buffer)} uncommitted store(s): {pending}",
                        node=ctx.pid,
                    )
        for block, holders in st.holders.items():
            if not holders:
                continue
            self.checks["dir-agreement"] += 1
            try:
                home = machine.home_of(block)
            except KeyError:
                raise CheckError(
                    "dir-agreement",
                    f"cached block has no home region (holders {holders})",
                    block=block,
                ) from None
            entry = machine.directories[home].entries.get(block)
            describe = entry.describe() if entry is not None else "absent"
            writers = [p for p, s in holders.items() if s is LineState.EXCLUSIVE]
            readers = sorted(p for p, s in holders.items() if s is LineState.SHARED)
            if entry is None:
                raise CheckError(
                    "dir-agreement",
                    f"home {home} has no entry for a block cached at "
                    f"{sorted(holders)}",
                    node=home,
                    block=block,
                    state=describe,
                )
            if entry.busy or entry.pending:
                raise CheckError(
                    "dir-agreement",
                    f"entry still busy at quiescence ({len(entry.pending or ())} "
                    f"parked requests)",
                    node=home,
                    block=block,
                    state=describe,
                )
            if writers:
                if (
                    entry.state is not DirState.EXCLUSIVE
                    or entry.owner != writers[0]
                    or readers
                ):
                    raise CheckError(
                        "dir-agreement",
                        f"cache holds EXCLUSIVE at {writers} (readers "
                        f"{readers}) but the directory disagrees",
                        node=writers[0],
                        block=block,
                        state=describe,
                    )
            else:
                stray = [p for p in readers if p not in entry.sharers]
                if stray:
                    raise CheckError(
                        "dir-agreement",
                        f"nodes {stray} hold SHARED copies the directory "
                        f"does not track",
                        node=stray[0],
                        block=block,
                        state=describe,
                    )
        for name, shadow in st.shadow.items():
            region = machine.space.regions.get(name)
            if region is None:
                continue
            self.checks["oracle-final"] += 1
            memory = region.np.reshape(-1)
            bad = np.flatnonzero(_mismatch_mask(memory, shadow))
            if bad.size:
                i = int(bad[0])
                raise CheckError(
                    "data-value",
                    f"final memory of {name!r} diverged from the oracle "
                    f"at element {i}: memory {memory[i]!r} vs oracle "
                    f"{shadow[i]!r} (a store bypassed the protocol)",
                    block=region.addr_of(i),
                )

    # -- message-passing: FIFO + conservation --------------------------------

    def _instrument_mp_network(self, st: _MpState, machine: Any) -> None:
        checker = self
        packet_bytes = machine.params.mp.packet_bytes
        orig_deliver = machine.deliver

        def deliver(packet: Any) -> None:
            checker.checks["conservation"] += 1
            if packet.data_bytes + packet.control_bytes != packet.count * packet_bytes:
                raise CheckError(
                    "conservation",
                    f"train of {packet.count} packets carries "
                    f"{packet.data_bytes}+{packet.control_bytes} bytes; "
                    f"expected {packet.count * packet_bytes}",
                    node=packet.src,
                )
            st.outstanding[id(packet)] = (packet.src, packet.dest, packet.tag)
            st.sent += packet.count
            orig_deliver(packet)

        machine.deliver = deliver

        for node in machine.nodes:
            self._instrument_mp_ni(st, node.ni)

    def _instrument_mp_ni(self, st: _MpState, ni: Any) -> None:
        checker = self
        dest = ni.node_id
        orig_enqueue = ni.enqueue
        orig_dequeue = ni.dequeue
        orig_dequeue_interrupt = ni.dequeue_interrupt

        def enqueue(packet: Any) -> None:
            cls = "isr" if packet.tag in ni.interrupt_mask else "fifo"
            key = (dest, packet.src, packet.tag, cls)
            queue = st.channels.get(key)
            if queue is None:
                queue = st.channels[key] = deque()
            queue.append(id(packet))
            orig_enqueue(packet)

        def _receive(packet: Any, cls: str) -> None:
            entry = st.outstanding.pop(id(packet), None)
            if entry is None:
                raise CheckError(
                    "conservation",
                    f"node {dest} received a packet (tag {packet.tag!r} from "
                    f"{packet.src}) that was never delivered, or twice",
                    node=dest,
                )
            st.received += packet.count
            key = (dest, packet.src, packet.tag, cls)
            queue = st.channels.get(key)
            checker.checks["fifo"] += 1
            if not queue or queue[0] != id(packet):
                raise CheckError(
                    "fifo",
                    f"node {dest} dequeued a packet from {packet.src} "
                    f"(tag {packet.tag!r}) out of delivery order",
                    node=dest,
                )
            queue.popleft()

        def dequeue() -> Optional[Any]:
            packet = orig_dequeue()
            if packet is not None:
                _receive(packet, "fifo")
            return packet

        def dequeue_interrupt() -> Optional[Any]:
            packet = orig_dequeue_interrupt()
            if packet is not None:
                _receive(packet, "isr")
            return packet

        ni.enqueue = enqueue
        ni.dequeue = dequeue
        ni.dequeue_interrupt = dequeue_interrupt

    def verify_mp_quiescent(self, st: _MpState) -> None:
        """End-of-run sweep: nothing lost in flight, nothing half-consumed."""
        machine = st.machine
        self.checks["quiescence"] += 1
        # Account for every undelivered train: it must still be sitting in
        # some queue (benign residue, e.g. last-round flow-control credits)
        # — anything else was lost by the network or delivered twice.
        residual_trains = 0
        residual_packets = 0
        unaccounted = dict(st.outstanding)
        for node in machine.nodes:
            for packet in list(node.ni._incoming) + list(node.ni._interrupt_queue):
                residual_trains += 1
                residual_packets += packet.count
                if unaccounted.pop(id(packet), None) is None:
                    raise CheckError(
                        "conservation",
                        f"queued packet (tag {packet.tag!r} from "
                        f"{packet.src}) was never delivered by the network",
                        node=node.pid,
                    )
        if unaccounted:
            (src, dest, tag) = next(iter(unaccounted.values()))
            raise CheckError(
                "conservation",
                f"{len(unaccounted)} packet train(s) lost in flight, "
                f"e.g. {src}->{dest} tag {tag!r} "
                f"(sent {st.sent}, received {st.received})",
                node=dest,
            )
        if residual_packets:
            self.checks["residual-packets"] += residual_packets
            if self.strict_quiescence:
                raise CheckError(
                    "quiescence",
                    f"{residual_packets} packet(s) in {residual_trains} "
                    f"train(s) left undrained in incoming queues at end "
                    f"of run",
                )
        if st.sent != st.received + residual_packets:
            raise CheckError(
                "conservation",
                f"sent {st.sent} packets but received {st.received} "
                f"with {residual_packets} still queued",
            )
        # Push-style channels (ALCP-MP's star updates) legitimately end the
        # run with delivered-but-never-waited-on bytes: the data already
        # landed in the window and no consumer exists. Count the residue;
        # only strict mode (programs that drain everything) rejects it.
        for ctx in machine.contexts:
            cmmd = getattr(ctx, "cmmd", None)
            if cmmd is None:
                continue
            for channel in cmmd._recv_channels.values():
                if channel.received_bytes:
                    self.checks["residual-channel-bytes"] += channel.received_bytes
                    if self.strict_quiescence:
                        raise CheckError(
                            "quiescence",
                            f"CMMD channel {channel.cid} on node {ctx.pid} "
                            f"holds {channel.received_bytes} delivered but "
                            f"unconsumed bytes at end of run",
                            node=ctx.pid,
                        )

    # -- reporting -----------------------------------------------------------

    def verify_quiescent(self) -> None:
        """Run the end-of-run sweeps for every attached machine now."""
        for st in self._sm:
            self.verify_sm_quiescent(st)
        for st in self._mp:
            self.verify_mp_quiescent(st)

    def report(self) -> Dict[str, int]:
        """Checks performed so far, by invariant name (all of them passed —
        a failure raises instead of counting)."""
        return dict(sorted(self.checks.items()))
