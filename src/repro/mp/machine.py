"""Assembly of the simulated message-passing machine.

Builds the per-node hardware (cache, TLB, network interface), attaches
the software stack (active messages, CMMD, collectives), runs one
program generator per processor, and returns per-processor statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.arch.barrier import HardwareBarrier
from repro.arch.cache import Cache
from repro.arch.costs import CostModel
from repro.arch.params import MachineParams
from repro.arch.tlb import Tlb
from repro.memory.dataspace import DataSpace
from repro.mp.active_messages import AmLayer
from repro.mp.api import MpContext
from repro.mp.batched import BatchedMpContext
from repro.mp.cmmd import CmmdLib
from repro.mp.collectives import CollectiveGroup
from repro.mp.netiface import NetworkInterface, Packet
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.stats.categories import MpCat
from repro.stats.collector import ProcStats, StatsBoard
from repro import check, trace

#: Attribution remaps: in library code, computation is Lib Comp and
#: local misses are Lib Misses (the paper's MP communication breakdown).
MP_REMAPS = {
    "lib": {
        MpCat.COMPUTE: MpCat.LIB_COMPUTE,
        MpCat.LOCAL_MISS: MpCat.LIB_MISS,
    }
}


class DeadlockError(RuntimeError):
    """The event queue drained while some program had not finished."""


class MpNode:
    """One processor node: cache, TLB, network interface, statistics."""

    def __init__(self, machine: "MpMachine", pid: int) -> None:
        common = machine.params.common
        self.pid = pid
        self.cache = Cache(
            common.cache_bytes,
            common.cache_assoc,
            common.block_bytes,
            machine.rngs.stream(f"mp.cache.{pid}"),
            name=f"mp.cache{pid}",
        )
        self.tlb = Tlb(common.tlb_entries, common.page_bytes)
        self.ni = NetworkInterface(pid)
        self.stats = ProcStats(pid, remaps=MP_REMAPS)


@dataclass
class MpRunResult:
    """Outcome of one message-passing machine run."""

    board: StatsBoard
    elapsed_cycles: int
    events_executed: int
    outputs: List[Any]
    machine: "MpMachine"


class MpMachine:
    """The CM-5-like message-passing machine."""

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        seed: int = 1994,
        costs: Optional[CostModel] = None,
        collective_strategy: str = "lopsided",
        backend: str = "batched",
    ) -> None:
        if backend not in ("reference", "batched"):
            raise ValueError(
                f"unknown backend {backend!r}; use 'reference' or 'batched'"
            )
        self.backend = backend
        self.params = params or MachineParams.paper()
        self.costs = costs or CostModel()
        self.engine = Engine()
        self.rngs = RngStreams(seed)
        self.nprocs = self.params.common.num_processors
        self.space = DataSpace(self.nprocs, self.params.common.block_bytes)
        self.barrier = HardwareBarrier(
            self.engine, self.nprocs, self.params.common.barrier_latency
        )
        self.nodes = [MpNode(self, pid) for pid in range(self.nprocs)]
        context_cls = BatchedMpContext if backend == "batched" else MpContext
        self.contexts = [context_cls(self, pid) for pid in range(self.nprocs)]
        for ctx in self.contexts:
            ctx.am = AmLayer(ctx)
            ctx.cmmd = CmmdLib(ctx)
            ctx.coll = CollectiveGroup(ctx, strategy=collective_strategy)
        self._finish_times: Dict[int, int] = {}
        self._interrupt_servicers: Dict[int, Process] = {}
        # No-ops unless a tracer/checker is installed (repro.trace/check).
        trace.active().attach_mp(self)
        check.active().attach_mp(self)

    def ensure_interrupt_servicer(self, pid: int) -> None:
        """Start the node's interrupt-service process (idempotent)."""
        if pid not in self._interrupt_servicers:
            self._interrupt_servicers[pid] = Process(
                self.engine,
                self.contexts[pid]._interrupt_service(),
                name=f"mp.isr{pid}",
            )

    def deliver(self, packet: Packet) -> None:
        """Network delivery: the packet lands after the network latency."""
        if not 0 <= packet.dest < self.nprocs:
            raise ValueError(f"bad destination {packet.dest}")
        latency = self.params.common.message_latency(packet.src, packet.dest)
        # Bare continuation: deliveries are never cancelled, so the
        # handle-free path keeps the same (time, seq) ordering without
        # allocating a ScheduledAction.
        ni = self.nodes[packet.dest].ni
        self.engine._schedule_step(latency, lambda: ni.enqueue(packet))

    def _wrap(self, program: Callable[..., Generator], ctx: MpContext, args: tuple) -> Generator:
        result = yield from program(ctx, *args)
        self._finish_times[ctx.pid] = self.engine.now
        return result

    def run(self, program: Callable[..., Generator], *args: Any) -> MpRunResult:
        """Run ``program(ctx, *args)`` on every processor to completion."""
        processes = [
            Process(self.engine, self._wrap(program, ctx, args), name=f"mp.p{ctx.pid}")
            for ctx in self.contexts
        ]
        self.engine.run()
        unfinished = [p.name for p in processes if not p.finished]
        if unfinished:
            raise DeadlockError(
                f"programs never finished: {unfinished} "
                f"(likely waiting for a message that was never sent)"
            )
        elapsed = max(self._finish_times.values()) if self._finish_times else 0
        return MpRunResult(
            board=StatsBoard([node.stats for node in self.nodes]),
            elapsed_cycles=elapsed,
            events_executed=self.engine.events_executed,
            outputs=[p.result() for p in processes],
            machine=self,
        )
