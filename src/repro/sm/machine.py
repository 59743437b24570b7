"""Assembly of the simulated shared-memory machine.

Per node: a cache, TLB, directory controller (for blocks homed there),
and cache controller (for invalidations/fetches arriving here). One
global hardware barrier and a create event provide the parmacs start-up
pattern. Locks and reductions are registered machine-wide so every
processor resolves the same shared structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.arch.barrier import HardwareBarrier
from repro.arch.cache import Cache
from repro.arch.costs import CostModel
from repro.arch.params import MEMORY_MODELS, MachineParams
from repro.arch.tlb import Tlb
from repro.memory.dataspace import DataSpace, HomePolicy, Region
from repro.sim import attach_observers
from repro.sim.engine import Engine
from repro.sim.events import Gate, SimEvent
from repro.sim.process import DeadlockError, Process
from repro.sim.rng import RngStreams
from repro.sm.api import SmContext
from repro.sm.batched import BatchedSmContext
from repro.sm.cache_ctrl import CacheCtrl
from repro.sm.directory import Directory
from repro.sm.mcs import McsLock, McsReduction
from repro.sm.protocol import Msg, MsgType
from repro.stats.categories import SmCat
from repro.stats.collector import ProcStats, StatsBoard

#: Attribution contexts for the paper's SM synchronization rows.
_SYNC_SOURCES = (
    SmCat.COMPUTE,
    SmCat.SHARED_MISS,
    SmCat.WRITE_FAULT,
    SmCat.PRIVATE_MISS,
    SmCat.TLB_MISS,
)

SM_REMAPS = {
    "sync": {
        SmCat.COMPUTE: SmCat.SYNC_COMPUTE,
        SmCat.SHARED_MISS: SmCat.SYNC_MISS,
        SmCat.WRITE_FAULT: SmCat.SYNC_MISS,
        SmCat.PRIVATE_MISS: SmCat.SYNC_MISS,
        SmCat.TLB_MISS: SmCat.SYNC_MISS,
    },
    "lock": {source: SmCat.LOCK for source in _SYNC_SOURCES},
    "reduction": {source: SmCat.REDUCTION for source in _SYNC_SOURCES},
    "startup": {source: SmCat.STARTUP_WAIT for source in _SYNC_SOURCES},
}


class SmNode:
    """One processor node of the shared-memory machine."""

    def __init__(self, machine: "SmMachine", pid: int) -> None:
        common = machine.params.common
        self.pid = pid
        self.cache = Cache(
            common.cache_bytes,
            common.cache_assoc,
            common.block_bytes,
            machine.rngs.stream(f"sm.cache.{pid}"),
            name=f"sm.cache{pid}",
        )
        self.tlb = Tlb(common.tlb_entries, common.page_bytes)
        self.stats = ProcStats(pid, remaps=SM_REMAPS)


@dataclass
class SmRunResult:
    """Outcome of one shared-memory machine run."""

    board: StatsBoard
    elapsed_cycles: int
    events_executed: int
    outputs: List[Any]
    machine: "SmMachine"


class SmMachine:
    """The Dir_nNB cache-coherent shared-memory machine."""

    kind = "sm"

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        seed: int = 1994,
        costs: Optional[CostModel] = None,
        allocation_policy: HomePolicy = HomePolicy.ROUND_ROBIN,
        backend: str = "batched",
        consistency: str = "sc",
    ) -> None:
        if backend not in ("reference", "batched"):
            raise ValueError(
                f"unknown backend {backend!r}; use 'reference' or 'batched'"
            )
        if consistency not in MEMORY_MODELS:
            raise ValueError(
                f"unknown consistency {consistency!r}; "
                f"known: {list(MEMORY_MODELS)}"
            )
        self.backend = backend
        self.consistency = consistency
        self.params = params or MachineParams.paper()
        self.costs = costs or CostModel()
        self.engine = Engine()
        self.rngs = RngStreams(seed)
        self.nprocs = self.params.common.num_processors
        self.allocation_policy = allocation_policy
        self.space = DataSpace(self.nprocs, self.params.common.block_bytes)
        self.barrier = HardwareBarrier(
            self.engine, self.nprocs, self.params.common.barrier_latency
        )
        self.created = SimEvent(name="parmacs.create")
        #: ``latencies[src][dest]``: :meth:`latency` for every node pair,
        #: read by the message hot path.
        self.latencies = [
            [self.latency(src, dest) for dest in range(self.nprocs)]
            for src in range(self.nprocs)
        ]
        self.nodes = [SmNode(self, pid) for pid in range(self.nprocs)]
        self.directories = [Directory(self, pid) for pid in range(self.nprocs)]
        self.cache_ctrls = [CacheCtrl(self, pid) for pid in range(self.nprocs)]
        if consistency != "sc":
            # Relaxed models need per-op store buffering, so both
            # backends run the scalar relaxed context (batched bulk
            # steps assume SC visibility).
            from repro.sm.relaxed import RelaxedSmContext

            context_cls = RelaxedSmContext
        else:
            context_cls = BatchedSmContext if backend == "batched" else SmContext
        self.contexts = [context_cls(self, pid) for pid in range(self.nprocs)]
        self.block_home: Dict[int, int] = {}
        # Blocks with a prefetch outstanding (Section 5.3.4 extension).
        self.prefetches_in_flight: set = set()
        self._inval_gates: List[Dict[int, Gate]] = [{} for _ in range(self.nprocs)]
        self._locks: Dict[str, McsLock] = {}
        self._reductions: Dict[str, McsReduction] = {}
        self.regions: List[Region] = []
        self._finish_times: Dict[int, int] = {}
        attach_observers(self)

    # -- topology ---------------------------------------------------------------

    def latency(self, src: int, dest: int) -> int:
        """Message latency: 10 cycles to self, 100 remote (Tables 1/3).

        Two-level presets (``cluster``) make the remote cost depend on
        whether the pair shares a cluster; the paper's flat machine is
        the ``intra_cluster_latency=None`` special case.
        """
        if src == dest:
            return self.params.sm.self_message_cycles
        return self.params.common.message_latency(src, dest)

    def is_shared_block(self, addr: int) -> bool:
        """Is this address in the shared segment (vs. node-private)?"""
        return addr >= (self.nprocs + 1) * DataSpace.SEGMENT_STRIDE

    def index_region(self, region: Region) -> None:
        """Track a region for diagnostics (home lookups are lazy)."""
        self.regions.append(region)

    def home_of(self, block: int) -> int:
        """Home node of a block (from the lazily built map, else regions)."""
        home = self.block_home.get(block)
        if home is not None:
            return home
        for region in self.regions:
            if region.base - (region.base % region.block_bytes) <= block < region.end:
                home = region.home_of_block(block)
                self.block_home[block] = home
                return home
        raise KeyError(f"no region covers block {block:#x}")

    # -- message plumbing ----------------------------------------------------------

    def send_to_directory_from(self, src: int, home: int, msg: Msg) -> None:
        """Requester -> home directory, after the network latency."""
        self.engine.schedule(
            self.latencies[src][home], partial(self.directories[home].post, msg)
        )

    def send_to_directory(self, src: int, block: int, msg: Msg) -> None:
        """Cache controller -> the block's home directory (ACK/FETCH_REPLY)."""
        home = self.home_of(block)
        self.send_to_directory_from(src, home, msg)

    def send_to_cache_ctrl(self, src: int, dest: int, msg: Msg) -> None:
        """Directory -> a remote cache controller (INV/FETCH)."""
        self.engine.schedule(
            self.latencies[src][dest], partial(self.cache_ctrls[dest].post, msg)
        )

    def evict_dirty_shared(self, pid: int, block: int) -> None:
        """Dirty shared eviction: writeback traffic + logical downgrade."""
        home = self.home_of(block)
        self.directories[home].downgrade_for_eviction(block, pid)
        stats = self.nodes[pid].stats
        if home != pid:  # wire bytes only; self-writebacks stay on-node
            stats.count("data_bytes", 32)
            stats.count("control_bytes", self.params.sm.block_message_control_bytes)
        stats.count("writebacks")
        self.send_to_directory_from(
            pid, home, Msg(MsgType.WRITEBACK, block, src=pid, requester=pid)
        )

    # -- invalidation gates (spin-wait wake-ups) -----------------------------------------

    def inval_gate(self, pid: int, block: int) -> Gate:
        gates = self._inval_gates[pid]
        gate = gates.get(block)
        if gate is None:
            gate = Gate(name=f"inval.p{pid}.{block:#x}")
            gates[block] = gate
        return gate

    def pulse_inval_gate(self, pid: int, block: int) -> None:
        gate = self._inval_gates[pid].get(block)
        if gate is not None:
            gate.pulse()

    # -- shared synchronization objects ---------------------------------------------------

    def make_lock(self, name: str) -> McsLock:
        """Create (or fetch) a machine-wide MCS lock."""
        lock = self._locks.get(name)
        if lock is None:
            lock = McsLock(self, name)
            self._locks[name] = lock
        return lock

    def get_lock(self, name: str) -> McsLock:
        lock = self._locks.get(name)
        if lock is None:
            raise KeyError(f"lock {name!r} was never created")
        return lock

    def make_reduction(self, name: str, context: str = "reduction") -> McsReduction:
        """Create (or fetch) a machine-wide combining reduction."""
        reduction = self._reductions.get(name)
        if reduction is None:
            reduction = McsReduction(self, name, context=context)
            self._reductions[name] = reduction
        return reduction

    # -- running ---------------------------------------------------------------------------

    def _wrap(
        self, program: Callable[..., Generator], ctx: SmContext, args: tuple
    ) -> Generator:
        result = yield from program(ctx, *args)
        self._finish_times[ctx.pid] = self.engine.now
        return result

    def run(self, program: Callable[..., Generator], *args: Any) -> SmRunResult:
        """Run ``program(ctx, *args)`` on every processor to completion."""
        processes = [
            Process(self.engine, self._wrap(program, ctx, args), name=f"sm.p{ctx.pid}")
            for ctx in self.contexts
        ]
        self.engine.run()
        unfinished = [p.name for p in processes if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"programs never finished: {unfinished} "
                f"(likely an unmatched spin/barrier or a protocol stall)"
            )
        elapsed = max(self._finish_times.values()) if self._finish_times else 0
        return SmRunResult(
            board=StatsBoard([node.stats for node in self.nodes]),
            elapsed_cycles=elapsed,
            events_executed=self.engine.events_executed,
            outputs=[p.result() for p in processes],
            machine=self,
        )

    def directory_contention(self) -> float:
        """Mean queue delay over all directories (paper Section 5.2)."""
        served = sum(d.requests_served for d in self.directories)
        if served == 0:
            return 0.0
        queued = sum(d.total_queue_cycles for d in self.directories)
        return queued / served
