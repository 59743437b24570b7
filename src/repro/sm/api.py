"""Programming interface of the shared-memory machine.

Shared-memory programs use the parmacs-style surface the paper
describes: ``gmalloc`` for shared allocations (round-robin placement by
default), ``create``/``wait_create`` for the processor-0 start-up
pattern, the hardware barrier, and atomic swap/compare-and-swap for
locks. Reads and writes to shared regions drive the Dir_nNB protocol;
each remote miss, write fault, and invalidation is paid in full.

Cycle attribution follows the paper's SM taxonomy: private misses,
shared misses (split local/remote in the event counts), write faults,
and TLB misses under data access; lock, reduction, and start-up time
under synchronization via attribution contexts ("lock", "reduction",
"sync", "startup").
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from repro.arch.address import block_span, page_span
from repro.arch.cache import LineState
from repro.memory.dataspace import HomePolicy, Region, Segment
from repro.sim.batch import BatchScript, run_batch_reference
from repro.sim.events import SimEvent
from repro.sim.process import Wait, delay_of
from repro.sm.protocol import Msg, MsgType
from repro.stats.categories import SmCat


class SmContext:
    """Per-processor view of the shared-memory machine."""

    def __init__(self, machine: "repro.sm.machine.SmMachine", pid: int) -> None:  # noqa: F821
        self.machine = machine
        self.pid = pid
        self.engine = machine.engine
        self.params = machine.params
        self.costs = machine.costs
        node = machine.nodes[pid]
        self.stats = node.stats
        self.cache = node.cache
        self.tlb = node.tlb
        self.space = machine.space
        # Event names for the transaction hot path, built once.
        self._txn_name = f"p{pid}.txn"
        self._spin_name = f"p{pid}.spin"
        # Constants of the miss path, read once per context.
        common = self.params.common
        sm = self.params.sm
        self._page_bytes = common.page_bytes
        self._block_bytes = common.block_bytes
        self._tlb_miss_cycles = common.tlb_miss_cycles
        self._tlb_miss_delay = delay_of(common.tlb_miss_cycles)
        self._local_miss_cycles = common.local_miss_total_cycles
        self._miss_delay = delay_of(sm.shared_miss_cycles)
        self._fault_delay = delay_of(sm.write_fault_detect_cycles)
        self._control_bytes = sm.control_only_bytes
        self._block_control_bytes = sm.block_message_control_bytes
        self._fetch_control_bytes = sm.control_only_bytes + 8
        self._repl_private = sm.replacement_private_cycles
        self._repl_clean = sm.replacement_shared_clean_cycles
        self._repl_dirty = sm.replacement_shared_dirty_cycles

    @property
    def nprocs(self) -> int:
        return self.machine.nprocs

    # -- allocation ----------------------------------------------------------

    def gmalloc(
        self,
        name: str,
        shape,
        dtype=np.float64,
        policy: Optional[HomePolicy] = None,
        fill: float = 0.0,
        protocol: str = "dir",
    ) -> Region:
        """Allocate shared memory (the parmacs gmalloc).

        Placement defaults to the machine's allocation policy
        (round-robin in the paper's base configuration). ``protocol``
        may be "update" for the bulk-update extension (Section 5.3.4):
        such a region has a single producer per element, whose writes
        are local; consumers receive values via :meth:`push_update`.
        """
        if policy is None:
            policy = self.machine.allocation_policy
        region = self.space.alloc_shared(
            name, owner=self.pid, shape=shape, dtype=dtype, policy=policy,
            fill=fill, protocol=protocol,
        )
        self.machine.index_region(region)
        return region

    def alloc_private(self, name: str, shape, dtype=np.float64, fill: float = 0.0) -> Region:
        """Allocate node-private memory."""
        region = self.space.alloc_private(
            f"p{self.pid}.{name}", owner=self.pid, shape=shape, dtype=dtype, fill=fill
        )
        self.machine.index_region(region)
        return region

    # -- computation -----------------------------------------------------------

    def compute(self, cycles: float) -> Generator:
        """Charge computation cycles (remapped inside sync contexts)."""
        cycles = int(round(cycles))
        if cycles <= 0:
            return
        self.stats.charge(SmCat.COMPUTE, cycles)
        yield delay_of(cycles)

    def compute_flops(self, count: float) -> Generator:
        yield from self.compute(self.costs.flops(count))

    # -- memory access ------------------------------------------------------------

    def read(
        self, region: Region, start: int = 0, stop: Optional[int] = None
    ) -> Generator:
        """Read elements [start, stop); returns the numpy view."""
        if stop is None:
            stop = region.np.size
        yield from self._access_range(region, start, stop, write=False)
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
        yield from self._access_range(region, start, stop, write=True)
        if values is not None:
            flat[start:stop] = values.reshape(-1)

    def read_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        """Indexed read touching only the blocks under ``indices``."""
        yield from self._access_blocks(
            region, region.block_addrs_of_indices(indices).tolist(), write=False
        )
        return region.np.reshape(-1)[np.asarray(indices, dtype=np.int64)]

    def write_scatter(self, region: Region, indices: Sequence[int], values) -> Generator:
        """Indexed write touching only the blocks under ``indices``."""
        yield from self._access_blocks(
            region, region.block_addrs_of_indices(indices).tolist(), write=True
        )
        region.np.reshape(-1)[np.asarray(indices, dtype=np.int64)] = values

    def _access_range(self, region: Region, lo: int, hi: int, write: bool) -> Generator:
        start, length = region.span_of(lo, hi)
        tlb_stall = 0
        tlb_access = self.tlb.access
        for page in page_span(start, length, self._page_bytes):
            if not tlb_access(page):
                tlb_stall += self._tlb_miss_cycles
                self.stats.count("tlb_misses")
        if tlb_stall:
            self.stats.charge(SmCat.TLB_MISS, tlb_stall)
            yield delay_of(tlb_stall)
        yield from self._access_blocks(
            region, block_span(start, length, self._block_bytes), write, tlb_done=True
        )

    def _access_blocks(
        self, region: Region, blocks, write: bool, tlb_done: bool = False
    ) -> Generator:
        """Access each block of ``blocks`` (Python ints, ascending) in turn."""
        shared = region.segment is Segment.SHARED
        private_stall = 0
        private_misses = 0
        # Hot loop: one iteration per simulated block access. Hoist the
        # lookups that never change across the range.
        tlb_access = self.tlb.access
        lookup = self.cache.lookup
        set_state = self.cache.set_state
        invalid = LineState.INVALID
        exclusive = LineState.EXCLUSIVE
        miss_cycles = self._local_miss_cycles
        target_state = exclusive if write else LineState.SHARED
        update_write = write and region.protocol == "update"
        for block in blocks:
            if not tlb_done and not tlb_access(block):
                self.stats.count("tlb_misses")
                self.stats.charge(SmCat.TLB_MISS, self._tlb_miss_cycles)
                yield self._tlb_miss_delay
            state = lookup(block)
            if not shared:
                if state is invalid:
                    private_misses += 1
                    private_stall += miss_cycles
                    private_stall += self._install(block, target_state)
                elif write and state is not exclusive:
                    set_state(block, exclusive)
                continue
            # Bulk-update regions (Section 5.3.4 extension): writes are
            # producer-local (values travel by explicit pushes), reads
            # miss through a plain home fetch with no sharer tracking
            # consequences (no invalidations ever target these blocks).
            if update_write:
                if state is invalid:
                    private_misses += 1
                    private_stall += miss_cycles
                    private_stall += self._install(block, exclusive)
                elif state is not exclusive:
                    set_state(block, exclusive)
                continue
            # Shared segment: protocol work.
            if state is invalid:
                if private_stall:
                    # Flush accumulated private stall before the transaction.
                    self.stats.charge(SmCat.PRIVATE_MISS, private_stall)
                    self.stats.count("private_misses", private_misses)
                    yield delay_of(private_stall)
                    private_stall = 0
                    private_misses = 0
                yield from self._shared_transaction(region, block, write=write)
            elif write and state is LineState.SHARED:
                if private_stall:
                    self.stats.charge(SmCat.PRIVATE_MISS, private_stall)
                    self.stats.count("private_misses", private_misses)
                    yield delay_of(private_stall)
                    private_stall = 0
                    private_misses = 0
                yield from self._shared_transaction(region, block, write=True, upgrade=True)
        if private_stall:
            self.stats.charge(SmCat.PRIVATE_MISS, private_stall)
            self.stats.count("private_misses", private_misses)
            yield delay_of(private_stall)

    def _install(self, block: int, state: LineState) -> int:
        """Insert a line; returns replacement cycles (and issues writebacks)."""
        victim = self.cache.insert(block, state)
        if victim is None:
            return 0
        victim_addr, victim_state = victim
        if not self.machine.is_shared_block(victim_addr):
            return self._repl_private
        if victim_state is LineState.EXCLUSIVE:
            self.machine.evict_dirty_shared(self.pid, victim_addr)
            return self._repl_dirty
        return self._repl_clean

    def _shared_transaction(
        self,
        region: Region,
        block: int,
        write: bool,
        upgrade: bool = False,
        charge: bool = True,
    ) -> Generator:
        """One coherence transaction: miss (GETS/GETX) or upgrade.

        ``charge=False`` runs the full protocol (directory occupancy,
        invalidation rounds, wire bytes) but skips the processor-side
        cycle charges and miss/fault counts — used by the relaxed
        store-buffer drain, whose commits do not stall the processor.
        """
        home = region.home_of_block(block)
        self.machine.block_home[block] = home
        engine = self.engine
        start = engine._now
        if upgrade:
            msg_type = MsgType.UPGRADE
            yield self._fault_delay
        else:
            msg_type = MsgType.GETX if write else MsgType.GETS
            yield self._miss_delay
        done = SimEvent(name=self._txn_name)
        pid = self.pid
        stats = self.stats
        remote = home != pid
        if remote:
            # Network traffic only: messages to the local directory never
            # cross the network (the paper's byte counts are wire bytes).
            stats.count("control_bytes", self._control_bytes)
        self.machine.send_to_directory_from(
            pid, home, Msg(msg_type, block, pid, pid, done)
        )
        info = yield Wait(done)
        # Reply traffic, attributed to this (initiating) processor.
        if remote:
            if info.with_data:
                stats.count("data_bytes", 32)
                stats.count("control_bytes", self._block_control_bytes)
            else:
                stats.count("control_bytes", self._control_bytes)
        if info.invalidations:
            stats.count(
                "control_bytes", 2 * self._control_bytes * info.invalidations
            )
        if info.fetched:
            stats.count("control_bytes", self._fetch_control_bytes)
            stats.count("data_bytes", 32)
        # Install / upgrade the line.
        repl = 0
        if upgrade and self.cache.peek(block) is LineState.SHARED:
            self.cache.set_state(block, LineState.EXCLUSIVE)
        else:
            repl = self._install(
                block, LineState.EXCLUSIVE if write else LineState.SHARED
            )
        if repl:
            yield delay_of(repl)
        if not charge:
            return
        elapsed = engine._now - start
        if upgrade:
            stats.count("write_faults")
            stats.charge(SmCat.WRITE_FAULT, elapsed)
        else:
            key = "shared_misses_local" if home == pid else "shared_misses_remote"
            stats.count(key)
            stats.charge(SmCat.SHARED_MISS, elapsed)

    # -- declared bulk runs --------------------------------------------------------

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

    # -- atomic operations ---------------------------------------------------------

    def _ensure_exclusive(self, region: Region, index: int) -> Generator:
        """Obtain write permission on the block holding element ``index``."""
        common = self.params.common
        addr = region.addr_of(index)
        block = addr - (addr % common.block_bytes)
        if not self.tlb.access(block):
            self.stats.count("tlb_misses")
            self.stats.charge(SmCat.TLB_MISS, common.tlb_miss_cycles)
            yield delay_of(common.tlb_miss_cycles)
        state = self.cache.lookup(block)
        if region.segment is not Segment.SHARED:
            raise ValueError("atomic operations are for shared memory")
        if state is LineState.INVALID:
            yield from self._shared_transaction(region, block, write=True)
        elif state is LineState.SHARED:
            yield from self._shared_transaction(region, block, write=True, upgrade=True)

    def atomic_swap(self, region: Region, index: int, new_value) -> Generator:
        """Atomically exchange element ``index``; returns the old value."""
        yield from self._ensure_exclusive(region, index)
        flat = region.np.reshape(-1)
        old = flat[index].item()
        flat[index] = new_value
        self.stats.count("atomic_ops")
        yield from self.compute(self.params.sm.atomic_op_cycles)
        return old

    def atomic_cas(self, region: Region, index: int, expected, new_value) -> Generator:
        """Atomic compare-and-swap; returns True if the swap happened."""
        yield from self._ensure_exclusive(region, index)
        flat = region.np.reshape(-1)
        self.stats.count("atomic_ops")
        yield from self.compute(self.params.sm.atomic_op_cycles)
        if flat[index].item() == expected:
            flat[index] = new_value
            return True
        return False

    # -- protocol extensions (paper Section 5.3.4) ---------------------------------

    def flush(
        self, region: Region, start: int = 0, stop: Optional[int] = None
    ) -> Generator:
        """Proactively drop clean copies of elements [start, stop).

        The paper's suggested consumer optimization: flushing a copy of
        a remote value turns the producer's next 2-message invalidation
        into a single-message cache replacement. Dirty lines write back.
        """
        if stop is None:
            stop = region.np.size
        addr_range = region.range_of(start, stop)
        yield from self._flush_blocks(
            region, addr_range.blocks(self.params.common.block_bytes)
        )

    def flush_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        """Flush only the blocks under the given element indices."""
        yield from self._flush_blocks(
            region, (int(b) for b in region.block_addrs_of_indices(indices))
        )

    def _flush_blocks(self, region: Region, blocks) -> Generator:
        sm = self.params.sm
        stall = 0
        for block in blocks:
            block = int(block)
            state = self.cache.peek(block)
            if state is LineState.INVALID:
                continue
            self.cache.invalidate(block)
            self.stats.count("flushes")
            home = region.home_of_block(block)
            self.machine.block_home[block] = home
            if state is LineState.EXCLUSIVE:
                stall += sm.replacement_shared_dirty_cycles
                self.machine.evict_dirty_shared(self.pid, block)
            else:
                stall += sm.invalidate_cycles + sm.replacement_shared_clean_cycles
                # One control message releases the copy at the directory.
                if home != self.pid:
                    self.stats.count("control_bytes", sm.control_only_bytes)
                self.machine.send_to_directory_from(
                    self.pid,
                    home,
                    Msg(MsgType.FLUSH, block, src=self.pid, requester=self.pid),
                )
        if stall:
            self.stats.charge(SmCat.COMPUTE, stall)
            yield delay_of(stall)

    def push_update(
        self,
        region: Region,
        indices: Sequence[int],
        subscribers: Sequence[int],
    ) -> Generator:
        """Bulk-push current values of ``indices`` to consumer caches.

        The Section 5.3.4 bulk-update protocol: a single message per
        consumer carries every touched block; consumer copies are
        refreshed in place instead of invalidated, so the consumer's
        next read hits. The region must use the "update" protocol.
        """
        if region.protocol != "update":
            raise ValueError(f"region {region.name!r} is not an update region")
        sm = self.params.sm
        blocks = [int(b) for b in region.block_addrs_of_indices(indices)]
        if not blocks:
            return
        for target in subscribers:
            if target == self.pid:
                continue
            cost = 20 + 5 * len(blocks)  # message setup + per-block stores
            self.stats.charge(SmCat.COMPUTE, cost)
            yield delay_of(cost)
            self.stats.count("update_pushes")
            self.stats.count("data_bytes", 32 * len(blocks))
            self.stats.count("control_bytes", sm.block_message_control_bytes)
            self.machine.send_to_cache_ctrl(
                self.pid,
                target,
                Msg(
                    MsgType.UPDATE_PUSH,
                    blocks[0],
                    src=self.pid,
                    requester=self.pid,
                    info=tuple(blocks),
                ),
            )

    def prefetch_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        """Issue non-binding prefetches for the blocks under ``indices``.

        The paper's other 5.3.4 suggestion (cooperative prefetch, CSM):
        the transactions run in the background; lines install on arrival
        without stalling the processor. Issue cost: one cycle per block.
        A later demand read that beats the reply pays a normal miss.
        """
        common = self.params.common
        issued = 0
        for block in region.block_addrs_of_indices(indices):
            block = int(block)
            if self.cache.peek(block) is not LineState.INVALID:
                continue
            if block in self.machine.prefetches_in_flight:
                continue
            home = region.home_of_block(block)
            self.machine.block_home[block] = home
            done = SimEvent(name=f"p{self.pid}.prefetch")
            remote = home != self.pid
            if remote:
                self.stats.count("control_bytes", self.params.sm.control_only_bytes)
            self.machine.send_to_directory_from(
                self.pid,
                home,
                Msg(MsgType.GETS, block, src=self.pid, requester=self.pid, done=done),
            )
            self.machine.prefetches_in_flight.add(block)
            done.add_callback(self._prefetch_arrival(block, remote))
            issued += 1
            self.stats.count("prefetches")
        if issued:
            self.stats.charge(SmCat.COMPUTE, issued)
            yield delay_of(issued)

    def _prefetch_arrival(self, block: int, remote: bool):
        def install(_info) -> None:
            self.machine.prefetches_in_flight.discard(block)
            if remote:
                self.stats.count("data_bytes", 32)
                self.stats.count(
                    "control_bytes", self.params.sm.block_message_control_bytes
                )
            if self.cache.peek(block) is LineState.INVALID:
                victim = self.cache.insert(block, LineState.SHARED)
                if (
                    victim is not None
                    and victim[1] is LineState.EXCLUSIVE
                    and self.machine.is_shared_block(victim[0])
                ):
                    self.machine.evict_dirty_shared(self.pid, victim[0])

        return install

    # -- spin waiting ------------------------------------------------------------------

    def spin_until(
        self, region: Region, index: int, predicate: Callable[[float], bool]
    ) -> Generator:
        """Spin on a cached location until ``predicate(value)`` holds.

        Models MCS-style local spinning: the value is re-read (a fresh
        coherence transaction) only after an invalidation — i.e., a
        remote write — reaches this node's cache; between invalidations
        the spin hits in the cache and costs nothing extra. Waiting time
        is charged as computation (remapped by the active context, e.g.
        to Locks inside lock code).
        """
        common = self.params.common
        addr = region.addr_of(index)
        block = addr - (addr % common.block_bytes)
        while True:
            values = yield from self.read(region, index, index + 1)
            value = values[0].item()
            if predicate(value):
                return value
            wake = SimEvent(name=self._spin_name)
            self.machine.inval_gate(self.pid, block).park(
                lambda: wake.fired or wake.fire(None)
            )
            start = self.engine.now
            yield Wait(wake)
            waited = self.engine.now - start
            if waited:
                self.stats.charge(SmCat.COMPUTE, waited)

    # -- synchronization ----------------------------------------------------------------

    def fence(self) -> Generator:
        """Store fence: wait until this processor's stores are visible.

        Sequential consistency commits every store before the storing
        instruction completes, so the fence is free — it returns without
        touching the engine at all (the ``sc`` path stays bit-identical).
        :class:`~repro.sm.relaxed.RelaxedSmContext` overrides this to
        drain its store buffer.
        """
        return
        yield  # pragma: no cover - makes this a generator function

    def barrier(self) -> Generator:
        """Hardware barrier; wait time charged to Barriers."""
        waited = yield from self.machine.barrier.arrive()
        self.stats.charge_raw(SmCat.BARRIER, waited)
        self.stats.count("barriers")

    def create(self) -> None:
        """Processor 0 signals that start-up is done (parmacs create)."""
        self.machine.created.fire(None)

    def wait_create(self) -> Generator:
        """Non-zero processors wait for create; time is Start-up Wait."""
        start = self.engine.now
        yield Wait(self.machine.created)
        self.stats.charge_raw(SmCat.STARTUP_WAIT, self.engine.now - start)
