"""Relaxed-consistency execution for the shared-memory machine.

Under ``consistency="tso"`` or ``"pc"`` the machine builds
:class:`RelaxedSmContext` (for *both* execution backends — batched
bulk runs decompose to the scalar ops below, see
:mod:`repro.sim.batch`), which places a semantic per-processor
:class:`~repro.arch.write_buffer.StoreBuffer` between the processor and
the Dir_nNB protocol:

* **Stores** to shared directory-protocol regions retire into the
  buffer in one cycle and return immediately; their values are *not*
  yet in memory, so no other processor can observe them.
* **Loads** perform their normal (committed-state) protocol access,
  then forward this processor's own pending stores over the result —
  read-own-write forwarding, so a processor always sees its own program
  order.
* A per-processor **drain process** commits entries at its own pace:
  each commit performs the real GETX/UPGRADE coherence transaction
  (directory occupancy, invalidation rounds, wire bytes — everything),
  then writes the values to memory. The processor does not stall for
  drains, so drain transactions charge no processor cycle categories.
* **Fences** — atomics, the hardware barrier, lock release, and
  parmacs ``create`` — wait for the buffer to run dry, which is what
  makes a correctly synchronized program correct under relaxation.

Ordering: TSO drains strictly in program order (FIFO); PC (partition
consistency, Cheng/Higham/Kawash) keeps per-location program order but
commits different locations in an order set by a seeded per-entry
retirement delay — deterministic per machine seed, so relaxed runs are
reproducible and the litmus matrix is a stable regression gate.

Private-region and update-protocol writes are unbuffered (the paper's
machine already completes them locally), and sequentially consistent
runs never construct this class — the ``sc`` path is bit-identical to
the pre-relaxation machine.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from repro.arch.cache import LineState
from repro.arch.write_buffer import StoreBuffer
from repro.memory.dataspace import Region, Segment
from repro.sim.events import Gate, SimEvent
from repro.sim.process import Process, Wait, delay_of
from repro.sm.api import SmContext
from repro.stats.categories import SmCat

#: Cycles the processor spends retiring one store into the buffer.
RETIRE_CYCLES = 1

#: Cycles a store sits in the TSO buffer before its commit transaction
#: may issue. Comparable to a remote-miss latency: long enough that a
#: racing load can complete before the commit lands (making store
#: buffering observable — an eager drain's GETX is exactly as fast as
#: the racing GETS, so the commit would always win), short enough that
#: fences stay cheap relative to a lock handoff.
TSO_DRAIN_BANDS = ((200, 200),)

#: PC residency profile: each entry draws one band uniformly, then a
#: delay inside it. The bimodal mix — most stores commit promptly, some
#: linger behind buffer backpressure — is what makes the model's
#: signature reorders reachable. A fast flag commit (short band) can
#: beat a consumer's first load while the older data store (long band)
#: out-sits the consumer's whole load chain: the MP shape's relaxed
#: outcome. A single uniform window cannot do both at once — wide
#: enough to delay the data store, it almost never commits the flag in
#: time.
PC_DRAIN_BANDS = ((0, 20), (100, 500), (800, 1400))


class RelaxedSmContext(SmContext):
    """Shared-memory context with a store buffer in front of Dir_nNB."""

    def __init__(self, machine, pid: int) -> None:
        super().__init__(machine, pid)
        consistency = machine.consistency
        relaxed = consistency == "pc"
        self.store_buffer = StoreBuffer(
            ordering="relaxed" if relaxed else "fifo",
            rng=machine.rngs.stream(f"sm.storebuf.{pid}") if relaxed else None,
            delay_bands=PC_DRAIN_BANDS if relaxed else TSO_DRAIN_BANDS,
        )
        # Blocks with a program-side coherence transaction in flight;
        # the drain defers its own transaction on such a block so its
        # cache-state decision is never made against a moving line.
        self._program_inflight: set = set()
        self._program_txn_gate = Gate(name=f"p{pid}.txns")
        self._fence_name = f"p{pid}.fence"
        self.drain = StoreBufferDrain(self)

    # -- helpers -----------------------------------------------------------

    def _buffered_region(self, region: Region) -> bool:
        return region.segment is Segment.SHARED and region.protocol == "dir"

    def fence(self) -> Generator:
        """Stall until this processor's store buffer is empty.

        The wait is charged as write-fault time (stores completing), so
        attribution contexts remap it exactly like a blocking store —
        fences inside lock code land in the Locks row.
        """
        sb = self.store_buffer
        if not len(sb):
            return
        wake = SimEvent(name=self._fence_name)
        sb.on_empty(lambda: wake.fire(None))
        start = self.engine.now
        yield Wait(wake)
        waited = self.engine.now - start
        if waited:
            self.stats.charge(SmCat.WRITE_FAULT, waited)
        self.stats.count("fences")

    # -- buffered stores ---------------------------------------------------

    def write(
        self,
        region: Region,
        start: int = 0,
        stop: Optional[int] = None,
        *,
        values: Optional[Sequence] = None,
    ) -> Generator:
        if not self._buffered_region(region):
            yield from SmContext.write(self, region, start, stop, values=values)
            return
        if values is not None:
            values = np.asarray(values, dtype=region.np.dtype).reshape(-1).copy()
            stop = start + values.size
        if stop is None:
            raise ValueError("write needs values or stop")
        if start < 0 or stop > region.np.size:
            raise IndexError(
                f"write [{start}:{stop}) outside {region.name} "
                f"(size {region.np.size})"
            )
        self.store_buffer.push_range(region, start, values, self.engine.now)
        self.stats.count("sb_stores")
        self.stats.charge(SmCat.COMPUTE, RETIRE_CYCLES)
        yield delay_of(RETIRE_CYCLES)
        self.drain.kick()

    def write_scatter(
        self, region: Region, indices: Sequence[int], values
    ) -> Generator:
        if not self._buffered_region(region):
            yield from SmContext.write_scatter(self, region, indices, values)
            return
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.array(
            np.broadcast_to(np.asarray(values, dtype=region.np.dtype), idx.shape)
        )
        self.store_buffer.push_scatter(region, idx, vals, self.engine.now)
        self.stats.count("sb_stores")
        self.stats.charge(SmCat.COMPUTE, RETIRE_CYCLES)
        yield delay_of(RETIRE_CYCLES)
        self.drain.kick()

    # -- forwarding loads --------------------------------------------------

    def read(
        self, region: Region, start: int = 0, stop: Optional[int] = None
    ) -> Generator:
        base = yield from SmContext.read(self, region, start, stop)
        sb = self.store_buffer
        if sb.has_pending_for(region):
            return sb.apply_pending(region, start, start + base.size, base)
        return base

    def read_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        base = yield from SmContext.read_gather(self, region, indices)
        sb = self.store_buffer
        if sb.has_pending_for(region):
            return sb.apply_pending_gather(
                region, np.asarray(indices, dtype=np.int64), base
            )
        return base

    # -- fenced operations -------------------------------------------------

    def atomic_swap(self, region: Region, index: int, new_value) -> Generator:
        yield from self.fence()
        return (yield from SmContext.atomic_swap(self, region, index, new_value))

    def atomic_cas(
        self, region: Region, index: int, expected, new_value
    ) -> Generator:
        yield from self.fence()
        return (
            yield from SmContext.atomic_cas(
                self, region, index, expected, new_value
            )
        )

    def barrier(self) -> Generator:
        yield from self.fence()
        yield from SmContext.barrier(self)

    def create(self) -> None:
        """Fire parmacs create only after start-up stores are visible.

        Processor 0's initialization writes sit in its store buffer;
        releasing the other processors before those commit would let
        them read pre-initialization values. The release is deferred to
        the buffer-empty instant (immediate when already empty).
        """
        machine = self.machine
        self.store_buffer.on_empty(lambda: machine.created.fire(None))

    # -- program/drain transaction interlock -------------------------------

    def _shared_transaction(
        self,
        region: Region,
        block: int,
        write: bool,
        upgrade: bool = False,
        charge: bool = True,
    ) -> Generator:
        drain = self.drain
        while drain.inflight_block == block:
            yield Wait(drain.inflight_done)
        # The caller chose this transaction from the line state it saw
        # before any wait; a drain commit since then may have made the
        # line EXCLUSIVE, and then the access hits. Issuing anyway would
        # send a GETS from the owner, which the directory serves by
        # downgrading the entry to SHARED while this cache still holds
        # the line EXCLUSIVE until the grant lands.
        if self.cache.peek(block) is LineState.EXCLUSIVE:
            return
        self._program_inflight.add(block)
        try:
            yield from SmContext._shared_transaction(
                self, region, block, write, upgrade=upgrade, charge=charge
            )
        finally:
            self._program_inflight.discard(block)
            self._program_txn_gate.pulse()


class StoreBufferDrain:
    """Per-processor process that commits buffered stores to memory."""

    def __init__(self, ctx: RelaxedSmContext) -> None:
        self.ctx = ctx
        #: Block of the drain's in-flight coherence transaction (the
        #: program's own accesses to it wait on ``inflight_done``).
        self.inflight_block: Optional[int] = None
        self.inflight_done: Optional[SimEvent] = None
        self._gate = Gate(name=f"p{ctx.pid}.sbdrain")
        self._wake_name = f"p{ctx.pid}.sbdrain.wake"
        self.process = Process(
            ctx.engine, self._run(), name=f"sm.sbdrain{ctx.pid}"
        )

    def kick(self) -> None:
        """Wake the drain after a push."""
        self._gate.pulse()

    def _run(self) -> Generator:
        ctx = self.ctx
        engine = ctx.engine
        sb = ctx.store_buffer
        while True:
            entry = sb.next_entry()
            if entry is None:
                wake = SimEvent(name=self._wake_name)
                self._gate.park(lambda: wake.fired or wake.fire(None))
                yield Wait(wake)
                continue
            now = engine.now
            if entry.ready_time > now:
                # Sleep to the nominee's retirement time, then re-pick —
                # but let a push preempt the sleep: a fresher entry to
                # another location may carry an earlier ready_time, and
                # it must not sit behind a long-lingering older store.
                wake = SimEvent(name=self._wake_name)
                fire = lambda: wake.fired or wake.fire(None)
                engine.schedule(entry.ready_time - now, fire)
                self._gate.park(fire)
                yield Wait(wake)
                continue
            yield from self._drain_entry(entry)

    def _drain_entry(self, entry) -> Generator:
        ctx = self.ctx
        region = entry.region
        common = ctx.params.common
        if entry.indices is None:
            addr_range = region.range_of(entry.lo, entry.hi)
            blocks = [int(b) for b in addr_range.blocks(common.block_bytes)]
        else:
            blocks = [
                int(b) for b in region.block_addrs_of_indices(entry.indices)
            ]
        for block in blocks:
            # Never decide against a moving line: wait out the program's
            # own in-flight transaction on this block first.
            while block in ctx._program_inflight:
                wake = SimEvent(name=self._wake_name)
                ctx._program_txn_gate.park(
                    lambda: wake.fired or wake.fire(None)
                )
                yield Wait(wake)
            state = ctx.cache.peek(block)
            if state is LineState.EXCLUSIVE:
                continue
            self.inflight_block = block
            self.inflight_done = SimEvent(name=f"p{ctx.pid}.sbtxn")
            try:
                # The full coherence transaction (occupancy, INV rounds,
                # wire bytes) with charge=False: the processor did not
                # stall for this commit, so no cycle category is charged.
                yield from SmContext._shared_transaction(
                    ctx,
                    region,
                    block,
                    write=True,
                    upgrade=(state is LineState.SHARED),
                    charge=False,
                )
            finally:
                self.inflight_block = None
                self.inflight_done.fire(None)
        self.commit(entry)
        ctx.stats.count("sb_drains")

    def commit(self, entry) -> None:
        """Make the entry's values globally visible (the commit instant).

        A separate method so the checker can wrap the exact point where
        a buffered store enters memory (per-location order + shadow).
        """
        if entry.values is not None:
            flat = entry.region.np.reshape(-1)
            if entry.indices is None:
                flat[entry.start:entry.start + entry.values.size] = entry.values
            else:
                flat[entry.indices] = entry.values
        self.ctx.store_buffer.remove(entry)
