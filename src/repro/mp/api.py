"""Programming interface of the message-passing machine.

Application code receives an :class:`MpContext` and is written as a
generator; every operation that takes simulated time is a generator
subroutine invoked with ``yield from``. The context exposes:

* ``compute`` / ``compute_flops`` — charge computation cycles;
* ``read`` / ``write`` / ``read_gather`` — local memory accesses that
  drive the cache and TLB simulation at block granularity (there is no
  ``write_scatter``: it raises ``TypeError`` on both backends);
* packet injection and polling on the network interface (Table 2 costs);
* the hardware barrier;
* the active-message layer (``ctx.am``) and CMMD library (``ctx.cmmd``),
  attached by the machine.

Cycle attribution: inside ``stats.context("lib")`` (library code),
computation is charged as Lib Comp and local misses as Lib Misses,
exactly the paper's taxonomy. Time spent *waiting* for a message while
polling in library code therefore lands in Lib Comp, which is how the
paper's MSE discussion explains its library time ("the waiting time due
to load imbalance manifests itself as library computation time").
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from repro.arch.address import block_span, page_span
from repro.arch.cache import LineState
from repro.memory.dataspace import Region
from repro.mp.netiface import Packet
from repro.sim.batch import BatchScript, run_batch_reference
from repro.sim.events import SimEvent
from repro.sim.process import Wait, delay_of
from repro.stats.categories import MpCat


class MpContext:
    """Per-processor view of the message-passing machine."""

    def __init__(self, machine: "repro.mp.machine.MpMachine", pid: int) -> None:  # noqa: F821
        self.machine = machine
        self.pid = pid
        self.engine = machine.engine
        self.params = machine.params
        self.costs = machine.costs
        node = machine.nodes[pid]
        self.stats = node.stats
        self.cache = node.cache
        self.tlb = node.tlb
        self.ni = node.ni
        self.space = machine.space
        # Attached by the machine after construction.
        self.am: Any = None
        self.cmmd: Any = None

    @property
    def nprocs(self) -> int:
        return self.machine.nprocs

    # -- allocation ---------------------------------------------------------

    def alloc(
        self,
        name: str,
        shape,
        dtype=np.float64,
        fill: float = 0.0,
    ) -> Region:
        """Allocate node-private memory (all memory on this machine is local)."""
        return self.space.alloc_private(
            f"p{self.pid}.{name}", owner=self.pid, shape=shape, dtype=dtype, fill=fill
        )

    # -- computation --------------------------------------------------------

    def compute(self, cycles: float) -> Generator:
        """Charge computation cycles (Lib Comp when in library context)."""
        cycles = int(round(cycles))
        if cycles <= 0:
            return
        self.stats.charge(MpCat.COMPUTE, cycles)
        yield delay_of(cycles)

    def compute_flops(self, count: float) -> Generator:
        yield from self.compute(self.costs.flops(count))

    # -- local memory -------------------------------------------------------

    def _touch_range(self, region: Region, lo: int, hi: int, write: bool) -> int:
        """Simulate cache/TLB traffic for elements [lo, hi); returns stall cycles.

        This loop (with its twin in :meth:`read_gather`) runs once per
        simulated block access, so attribute lookups are hoisted out of it.
        """
        common = self.params.common
        start, length = region.span_of(lo, hi)
        stall = 0
        misses = 0
        tlb_access = self.tlb.access
        stats_count = self.stats.count
        tlb_miss_cycles = common.tlb_miss_cycles
        for page in page_span(start, length, common.page_bytes):
            if not tlb_access(page):
                stall += tlb_miss_cycles
                stats_count("tlb_misses")
        target_state = LineState.EXCLUSIVE if write else LineState.SHARED
        cache = self.cache
        lookup = cache.lookup
        invalid = LineState.INVALID
        exclusive = LineState.EXCLUSIVE
        miss_cycles = common.local_miss_total_cycles
        for block in block_span(start, length, common.block_bytes):
            state = lookup(block)
            if state is invalid:
                misses += 1
                stall += miss_cycles
                victim = cache.insert(block, target_state)
                if victim is not None and victim[1] is exclusive:
                    stall += self.params.mp.replacement_cycles
            elif write and state is not exclusive:
                cache.set_state(block, exclusive)
        if misses:
            stats_count("local_misses", misses)
        return stall

    def read(
        self, region: Region, start: int = 0, stop: Optional[int] = None
    ) -> Generator:
        """Read elements [start, stop); returns the numpy view after miss stalls."""
        if stop is None:
            stop = region.np.size
        stall = self._touch_range(region, start, stop, write=False)
        if stall:
            self.stats.charge(MpCat.LOCAL_MISS, stall)
            yield delay_of(stall)
        return region.np.reshape(-1)[start:stop]

    def write(
        self,
        region: Region,
        start: int = 0,
        stop: Optional[int] = None,
        *,
        values: Optional[Sequence] = None,
    ) -> Generator:
        """Write elements [start, stop) (``stop`` inferred from ``values``)."""
        flat = region.np.reshape(-1)
        if values is not None:
            values = np.asarray(values)
            stop = start + values.size
        if stop is None:
            raise ValueError("write needs values or stop")
        stall = self._touch_range(region, start, stop, write=True)
        if values is not None:
            flat[start:stop] = values.reshape(-1)
        if stall:
            self.stats.charge(MpCat.LOCAL_MISS, stall)
            yield delay_of(stall)

    def read_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        """Indexed read: touches the unique blocks under ``indices``."""
        common = self.params.common
        stall = 0
        misses = 0
        tlb_access = self.tlb.access
        stats_count = self.stats.count
        cache = self.cache
        lookup = cache.lookup
        invalid = LineState.INVALID
        shared = LineState.SHARED
        exclusive = LineState.EXCLUSIVE
        tlb_miss_cycles = common.tlb_miss_cycles
        miss_cycles = common.local_miss_total_cycles
        for block in region.block_addrs_of_indices(indices):
            block = int(block)
            if not tlb_access(block):
                stall += tlb_miss_cycles
                stats_count("tlb_misses")
            if lookup(block) is invalid:
                misses += 1
                stall += miss_cycles
                victim = cache.insert(block, shared)
                if victim is not None and victim[1] is exclusive:
                    stall += self.params.mp.replacement_cycles
        if misses:
            stats_count("local_misses", misses)
        if stall:
            self.stats.charge(MpCat.LOCAL_MISS, stall)
            yield delay_of(stall)
        return region.np.reshape(-1)[np.asarray(indices, dtype=np.int64)]

    def write_scatter(self, region: Region, indices: Sequence[int], values) -> Generator:
        """Not an operation of this machine, scalar or in a batch."""
        raise TypeError("the message-passing machine has no write_scatter")

    # -- declared bulk runs ---------------------------------------------------

    def batch(self) -> BatchScript:
        """Start a declared bulk run (see :mod:`repro.sim.batch`)."""
        return BatchScript()

    def run_batch(self, script: BatchScript) -> Generator:
        """Execute a batch script; returns the list of read results.

        On the reference backend this decomposes into the exact scalar
        ops the program would have made; the batched backend overrides
        it with a single-step executor that is bit-identical.
        """
        return (yield from run_batch_reference(self, script))

    # -- network interface ----------------------------------------------------

    def packets_for(self, nbytes: int) -> int:
        """Packets needed for a transfer of ``nbytes`` payload bytes."""
        return max(1, math.ceil(nbytes / self.params.mp.packet_payload_bytes))

    def inject(
        self,
        dest: int,
        handler: str,
        payload: Any,
        npackets: int = 1,
        data_bytes: int = 0,
        control_bytes: Optional[int] = None,
    ) -> Generator:
        """Push packets into the NI: tag+dest write then 5-word stores each.

        ``control_bytes`` defaults to the non-data remainder of the train
        (4-byte header per packet plus any unused payload).
        """
        mp = self.params.mp
        if control_bytes is None:
            control_bytes = npackets * mp.packet_bytes - data_bytes
        ni_cycles = npackets * mp.send_packet_cycles
        self.stats.charge(MpCat.NETWORK_ACCESS, ni_cycles)
        self.stats.count("messages_sent", npackets)
        self.stats.count("data_bytes", data_bytes)
        self.stats.count("control_bytes", control_bytes)
        yield delay_of(ni_cycles)
        packet = Packet(
            src=self.pid,
            dest=dest,
            tag=handler,
            payload=payload,
            data_bytes=data_bytes,
            control_bytes=control_bytes,
            count=npackets,
        )
        self.machine.deliver(packet)

    def poll(self) -> Generator:
        """One poll: status read, then drain + dispatch one train if present.

        Returns True if a packet train was received and handled.
        """
        mp = self.params.mp
        self.stats.charge(MpCat.NETWORK_ACCESS, mp.ni_status_cycles)
        yield delay_of(mp.ni_status_cycles)
        packet = self.ni.dequeue()
        if packet is None:
            return False
        recv_cycles = packet.count * mp.recv_packet_cycles
        self.stats.charge(MpCat.NETWORK_ACCESS, recv_cycles)
        yield delay_of(recv_cycles)
        yield from self.am.dispatch(packet)
        return True

    def _wait_arrival(self) -> Generator:
        """Park until a packet arrives; waiting counted as library polling."""
        event = SimEvent(name=f"p{self.pid}.arrival")
        self.ni.arrival_gate.park(lambda: event.fire(None))
        start = self.engine.now
        yield Wait(event)
        waited = self.engine.now - start
        if waited:
            self.stats.charge(MpCat.COMPUTE, waited)

    def poll_wait(self, predicate: Callable[[], bool]) -> Generator:
        """Library wait loop: poll until ``predicate()`` becomes true.

        Runs in library context: waiting and handler bookkeeping land in
        Lib Comp / Lib Misses, NI operations in Network Access.
        """
        with self.stats.context("lib"):
            while not predicate():
                if self.ni.status():
                    yield from self.poll()
                else:
                    yield from self._wait_arrival()

    def drain_polls(self) -> Generator:
        """Service every queued packet, then return (no waiting)."""
        with self.stats.context("lib"):
            while self.ni.status():
                yield from self.poll()

    # -- interrupt-driven delivery ---------------------------------------------

    def enable_interrupts(self, tag: str) -> None:
        """Route packets with ``tag`` to interrupt service (NI mask).

        Handlers then run without the program polling, at the cost of a
        kernel-trap dispatch per message. Interrupt service is modeled
        as a concurrent servicer whose handler time is charged to this
        node's library categories (see DESIGN.md: the paper's own
        simulator invoked handlers directly; CMMD polls heavily, so the
        polled path is the default).
        """
        self.ni.interrupt_mask.add(tag)
        self.machine.ensure_interrupt_servicer(self.pid)

    def disable_interrupts(self, tag: str) -> None:
        """Clear ``tag`` from the interrupt mask (back to polling)."""
        self.ni.interrupt_mask.discard(tag)

    def _interrupt_service(self) -> Generator:
        """Per-node ISR process: drain and dispatch masked packets."""
        mp = self.params.mp
        while True:
            packet = self.ni.dequeue_interrupt()
            if packet is None:
                wake = SimEvent(name=f"p{self.pid}.isr")
                self.ni.interrupt_gate.park(
                    lambda: wake.fired or wake.fire(None)
                )
                yield Wait(wake)
                continue
            self.ni.packets_dequeued += packet.count
            with self.stats.context("lib"):
                yield from self.compute(mp.interrupt_dispatch_cycles)
            recv_cycles = packet.count * mp.recv_packet_cycles
            self.stats.charge(MpCat.NETWORK_ACCESS, recv_cycles)
            yield delay_of(recv_cycles)
            yield from self.am.dispatch(packet)
            # Handler side effects may satisfy a poll_wait predicate.
            self.ni.arrival_gate.pulse()

    # -- synchronization ------------------------------------------------------

    def barrier(self) -> Generator:
        """Hardware barrier; wait time charged to Barriers."""
        waited = yield from self.machine.barrier.arrive()
        self.stats.charge_raw(MpCat.BARRIER, waited)
        self.stats.count("barriers")
