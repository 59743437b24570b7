"""Per-node directory controller of the Dir_nNB protocol.

One directory process per node manages coherence for the blocks homed
there. Messages are served strictly in arrival order with the occupancy
costs of paper Table 3 (10 cycles base, +8 to receive a block, +5 per
message sent, +8 to send a block); queuing behind earlier messages is
what produces the directory contention the paper measures in Gauss
(~200-cycle average queuing delay).

Multi-message transactions (a fetch of a dirty copy, an invalidation
round) mark the block's entry *busy*; requests for a busy block are
parked on the entry and re-posted when the transaction completes, which
serializes conflicting accesses exactly as a blocking home-node protocol
does.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Generator, Tuple

from repro.check.errors import CheckError
from repro.sim.events import Gate, SimEvent
from repro.sim.process import Process, Wait, delay_of
from repro.sm.protocol import DirEntry, DirState, Msg, MsgType, TransactionInfo


class Directory:
    """Directory controller for the blocks homed at one node."""

    def __init__(self, machine: "repro.sm.machine.SmMachine", node_id: int) -> None:  # noqa: F821
        self.machine = machine
        self.node_id = node_id
        self.engine = machine.engine
        self.sm = machine.params.sm
        self.common = machine.params.common
        self.entries: Dict[int, DirEntry] = defaultdict(DirEntry)
        self._inbox: Deque[Tuple[int, Msg]] = deque()
        self._gate = Gate(name=f"dir{node_id}.inbox")
        self.process = Process(self.engine, self._run(), name=f"dir{node_id}")
        # Contention instrumentation (paper Section 5.2).
        self.requests_served = 0
        self.total_queue_cycles = 0

    # -- message entry points ---------------------------------------------------

    def post(self, msg: Msg) -> None:
        """Deliver a message into the directory's FIFO inbox."""
        self._inbox.append((self.engine._now, msg))
        self._gate.pulse()

    def downgrade_for_eviction(self, block: int, owner: int) -> None:
        """Synchronous logical effect of a dirty eviction at ``owner``.

        The WRITEBACK message that carries the data (and pays occupancy
        and traffic) follows separately; updating the logical state here
        keeps the directory from fetching from a stale owner. See
        DESIGN.md on this simplification.
        """
        entry = self.entries[block]
        if entry.state is DirState.EXCLUSIVE and entry.owner == owner:
            entry.state = DirState.UNOWNED
            entry.owner = None

    def mean_queue_delay(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.total_queue_cycles / self.requests_served

    # -- serving loop --------------------------------------------------------------

    def _run(self) -> Generator:
        wake_name = f"dir{self.node_id}.wake"
        engine = self.engine
        inbox = self._inbox
        popleft = inbox.popleft
        while True:
            if not inbox:
                wake = SimEvent(name=wake_name)
                self._gate.park(lambda: wake.fired or wake.fire(None))
                yield Wait(wake)
                continue
            arrival, msg = popleft()
            self.requests_served += 1
            self.total_queue_cycles += engine._now - arrival
            yield from self._handle(msg)

    def _handle(self, msg: Msg) -> Generator:
        entry = self.entries[msg.block]
        if msg.type in (MsgType.GETS, MsgType.GETX, MsgType.UPGRADE):
            if entry.busy:
                if entry.pending is None:
                    entry.pending = deque()
                entry.pending.append(msg)
                yield delay_of(1)  # queue-and-defer bookkeeping
                return
            yield from self._handle_request(entry, msg)
        elif msg.type is MsgType.ACK:
            yield from self._handle_ack(entry, msg)
        elif msg.type is MsgType.FETCH_REPLY:
            yield from self._handle_fetch_reply(entry, msg)
        elif msg.type is MsgType.WRITEBACK:
            yield delay_of(
                self.sm.directory_base_cycles
                + self.sm.directory_recv_block_cycles
                + self.common.dram_cycles
            )
        elif msg.type is MsgType.FLUSH:
            # Section 5.3.4 extension: a consumer proactively dropped its
            # clean copy, so the next write needs no invalidation round.
            yield delay_of(self.sm.directory_ack_cycles)
            entry.sharers.discard(msg.src)
            if entry.state is DirState.SHARED and not entry.sharers:
                entry.state = DirState.UNOWNED
        else:
            raise CheckError(
                "protocol",
                f"directory cannot serve message {msg}",
                node=self.node_id,
                block=msg.block,
                state=entry.describe(),
            )

    # -- request handling --------------------------------------------------------------

    def _handle_request(self, entry: DirEntry, msg: Msg) -> Generator:
        requester = msg.requester
        if entry.state is DirState.EXCLUSIVE and entry.owner != requester:
            # Recall the dirty copy; the transaction completes at
            # _handle_fetch_reply. Capture the owner now: its eviction
            # writeback may race with our occupancy delay (the cache
            # controller answers fetches for already-evicted lines).
            owner = entry.owner
            entry.busy = True
            entry.waiting = msg
            entry.txn_info = TransactionInfo(with_data=True, fetched=True)
            yield delay_of(
                self.sm.directory_base_cycles + self.sm.directory_send_msg_cycles
            )
            invalidate_owner = msg.type is not MsgType.GETS
            self.machine.send_to_cache_ctrl(
                self.node_id,
                owner,
                Msg(
                    MsgType.FETCH,
                    msg.block,
                    src=self.node_id,
                    requester=requester,
                    info=invalidate_owner,
                ),
            )
            return

        if msg.type is MsgType.GETS:
            yield delay_of(
                self.sm.directory_base_cycles
                + self.common.dram_cycles
                + self.sm.directory_send_msg_cycles
                + self.sm.directory_send_block_cycles
            )
            entry.state = DirState.SHARED
            entry.sharers.add(requester)
            entry.owner = None
            self._complete(msg, TransactionInfo(with_data=True))
            return

        # GETX or UPGRADE.
        targets = entry.sharers - {requester}
        if entry.state is DirState.SHARED and targets:
            entry.busy = True
            entry.waiting = msg
            entry.acks_needed = len(targets)
            entry.txn_info = TransactionInfo(
                with_data=(msg.type is MsgType.GETX)
                or requester not in entry.sharers,
                invalidations=len(targets),
            )
            yield delay_of(
                self.sm.directory_base_cycles
                + self.sm.directory_send_msg_cycles * len(targets)
            )
            for target in sorted(targets):
                self.machine.send_to_cache_ctrl(
                    self.node_id,
                    target,
                    Msg(MsgType.INV, msg.block, src=self.node_id, requester=requester),
                )
            return

        # No other copies: grant immediately.
        with_data = not (
            msg.type is MsgType.UPGRADE and requester in entry.sharers
        )
        occupancy = self.sm.directory_base_cycles + self.sm.directory_send_msg_cycles
        if with_data:
            occupancy += self.common.dram_cycles + self.sm.directory_send_block_cycles
        yield delay_of(occupancy)
        entry.state = DirState.EXCLUSIVE
        entry.owner = requester
        entry.sharers.clear()
        self._complete(msg, TransactionInfo(with_data=with_data))

    def _handle_ack(self, entry: DirEntry, msg: Msg) -> Generator:
        yield delay_of(self.sm.directory_ack_cycles)
        if not entry.busy or entry.acks_needed <= 0:
            raise CheckError(
                "protocol",
                f"unexpected ACK from node {msg.src} (no invalidation "
                f"round in progress)",
                node=self.node_id,
                block=msg.block,
                state=entry.describe(),
            )
        entry.acks_needed -= 1
        if entry.acks_needed:
            return
        request = entry.waiting
        info = entry.txn_info
        occupancy = self.sm.directory_send_msg_cycles
        if info.with_data:
            occupancy += self.common.dram_cycles + self.sm.directory_send_block_cycles
        yield delay_of(occupancy)
        entry.state = DirState.EXCLUSIVE
        entry.owner = request.requester
        entry.sharers.clear()
        self._finish_transaction(entry, request, info)

    def _handle_fetch_reply(self, entry: DirEntry, msg: Msg) -> Generator:
        yield delay_of(
            self.sm.directory_base_cycles
            + self.sm.directory_recv_block_cycles
            + self.common.dram_cycles
            + self.sm.directory_send_msg_cycles
            + self.sm.directory_send_block_cycles
        )
        request = entry.waiting
        info = entry.txn_info
        old_owner = entry.owner
        if request.type is MsgType.GETS:
            entry.state = DirState.SHARED
            entry.sharers = {request.requester}
            if old_owner is not None:
                entry.sharers.add(old_owner)  # owner downgraded to a copy
            entry.owner = None
        else:
            entry.state = DirState.EXCLUSIVE
            entry.owner = request.requester
            entry.sharers.clear()
        self._finish_transaction(entry, request, info)

    # -- completion ------------------------------------------------------------------------

    def _finish_transaction(
        self, entry: DirEntry, request: Msg, info: TransactionInfo
    ) -> None:
        entry.busy = False
        entry.waiting = None
        entry.txn_info = None
        entry.acks_needed = 0
        self._complete(request, info)
        pending = entry.pending
        if pending:
            entry.pending = None
            for parked in pending:
                self.post(parked)

    def _complete(self, msg: Msg, info: TransactionInfo) -> None:
        """Deliver the reply (data or grant) to the requester."""
        latency = self.machine.latency(self.node_id, msg.requester)
        done = msg.done
        self.engine._schedule_step(latency, lambda: done.fire(info))
