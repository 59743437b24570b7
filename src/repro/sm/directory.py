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
from functools import partial
from typing import Deque, Dict, Generator, Tuple

from repro.check.errors import CheckError
from repro.sim.events import SimEvent
from repro.sim.process import Process, Wait, delay_of
from repro.sm.protocol import DirEntry, DirState, Msg, MsgType, TransactionInfo, bit_nodes

_GETS, _GETX, _UPGRADE = MsgType.GETS, MsgType.GETX, MsgType.UPGRADE
_INV, _FETCH = MsgType.INV, MsgType.FETCH
_ACK, _FETCH_REPLY = MsgType.ACK, MsgType.FETCH_REPLY
_WRITEBACK, _FLUSH = MsgType.WRITEBACK, MsgType.FLUSH
_UNOWNED, _SHARED, _EXCLUSIVE = DirState.UNOWNED, DirState.SHARED, DirState.EXCLUSIVE

#: Completion payloads of the one-message grants and of a dirty fetch,
#: shared by every transaction of that kind (TransactionInfo is frozen).
_GRANT_DATA = TransactionInfo(with_data=True)
_GRANT_NO_DATA = TransactionInfo(with_data=False)
_FETCHED = TransactionInfo(with_data=True, fetched=True)


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
        # The serving loop's one wake event, re-armed each time the inbox
        # runs dry. It stays fired while the loop is busy, so a post then
        # queues no wake-up.
        self._wake = SimEvent(name=f"dir{node_id}.wake")
        self.process = Process(self.engine, self._run(), name=f"dir{node_id}")
        # Contention instrumentation (paper Section 5.2).
        self.requests_served = 0
        self.total_queue_cycles = 0

    # -- message entry points ---------------------------------------------------

    def post(self, msg: Msg) -> None:
        """Deliver a message into the directory's FIFO inbox."""
        self._inbox.append((self.engine._now, msg))
        wake = self._wake
        if not wake.fired:
            wake.fire(None)

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
        """Serve the inbox in arrival order, one generator frame for all.

        Each message pays its Table 3 occupancy as one ``Delay``, built
        here once per kind, before (or, for an invalidation round's last
        ACK, between) its state changes, exactly as the paper's blocking
        home node does.
        """
        engine = self.engine
        machine = self.machine
        entries = self.entries
        node = self.node_id
        inbox = self._inbox
        popleft = inbox.popleft
        wake = self._wake
        wait = Wait(wake)
        sm = self.sm
        dram = self.common.dram_cycles
        base = sm.directory_base_cycles
        send_msg = sm.directory_send_msg_cycles
        send_block = sm.directory_send_block_cycles
        recv_block = sm.directory_recv_block_cycles
        park_delay = delay_of(1)  # queue-and-defer bookkeeping
        writeback_delay = delay_of(base + recv_block + dram)
        ack_delay = delay_of(sm.directory_ack_cycles)
        # One message out: a fetch request or a grant without data ...
        control_delay = delay_of(base + send_msg)
        # ... or a grant that reads the block from DRAM and sends it.
        data_delay = delay_of(base + dram + send_msg + send_block)
        # The last ACK of a round: the grant, plus the block if it carries one.
        grant_delay = delay_of(send_msg)
        grant_data_delay = delay_of(send_msg + dram + send_block)
        fetch_reply_delay = delay_of(base + recv_block + dram + send_msg + send_block)
        round_delays = [
            delay_of(base + send_msg * count)
            for count in range(machine.nprocs + 1)
        ]
        while True:
            if not inbox:
                wake.fired = False  # re-arm: this loop is its only waiter
                yield wait
                continue
            arrival, msg = popleft()
            self.requests_served += 1
            self.total_queue_cycles += engine._now - arrival
            block = msg.block
            entry = entries[block]
            kind = msg.type
            if kind is _GETS or kind is _GETX or kind is _UPGRADE:
                if entry.busy:
                    if entry.pending is None:
                        entry.pending = deque()
                    entry.pending.append(msg)
                    yield park_delay
                    continue
                requester = msg.requester
                if entry.state is _EXCLUSIVE and entry.owner != requester:
                    # Recall the dirty copy; the transaction completes at
                    # its FETCH_REPLY. Capture the owner now: its eviction
                    # writeback may race with our occupancy delay (the
                    # cache controller answers fetches for already-evicted
                    # lines).
                    owner = entry.owner
                    entry.busy = True
                    entry.waiting = msg
                    entry.txn_info = _FETCHED
                    yield control_delay
                    machine.send_to_cache_ctrl(
                        node,
                        owner,
                        Msg(_FETCH, block, node, requester, None, kind is not _GETS),
                    )
                    continue
                if kind is _GETS:
                    yield data_delay
                    entry.state = _SHARED
                    entry.sharer_bits |= 1 << requester
                    entry.owner = None
                    self._complete(msg, _GRANT_DATA)
                    continue
                # GETX or UPGRADE: invalidate every other copy, in node order.
                held = entry.sharer_bits & (1 << requester)
                if entry.state is _SHARED and entry.sharer_bits ^ held:
                    targets = list(bit_nodes(entry.sharer_bits ^ held))
                    count = len(targets)
                    entry.busy = True
                    entry.waiting = msg
                    entry.acks_needed = count
                    entry.txn_info = TransactionInfo(
                        with_data=kind is _GETX or not held, invalidations=count
                    )
                    yield round_delays[count]
                    for target in targets:
                        machine.send_to_cache_ctrl(
                            node, target, Msg(_INV, block, node, requester)
                        )
                    continue
                # No other copies: grant immediately.
                if kind is _UPGRADE and held:
                    yield control_delay
                    info = _GRANT_NO_DATA
                else:
                    yield data_delay
                    info = _GRANT_DATA
                entry.state = _EXCLUSIVE
                entry.owner = requester
                entry.sharer_bits = 0
                self._complete(msg, info)
            elif kind is _ACK:
                yield ack_delay
                if not entry.busy or entry.acks_needed <= 0:
                    raise CheckError(
                        "protocol",
                        f"unexpected ACK from node {msg.src} (no invalidation "
                        f"round in progress)",
                        node=node,
                        block=block,
                        state=entry.describe(),
                    )
                entry.acks_needed -= 1
                if entry.acks_needed:
                    continue
                request = entry.waiting
                info = entry.txn_info
                yield grant_data_delay if info.with_data else grant_delay
                entry.state = _EXCLUSIVE
                entry.owner = request.requester
                entry.sharer_bits = 0
                self._finish_transaction(entry, request, info)
            elif kind is _FETCH_REPLY:
                yield fetch_reply_delay
                request = entry.waiting
                old_owner = entry.owner
                if request.type is _GETS:
                    entry.state = _SHARED
                    entry.sharer_bits = 1 << request.requester
                    if old_owner is not None:
                        # The owner downgraded to a copy.
                        entry.sharer_bits |= 1 << old_owner
                    entry.owner = None
                else:
                    entry.state = _EXCLUSIVE
                    entry.owner = request.requester
                    entry.sharer_bits = 0
                self._finish_transaction(entry, request, entry.txn_info)
            elif kind is _WRITEBACK:
                yield writeback_delay
            elif kind is _FLUSH:
                # Section 5.3.4 extension: a consumer proactively dropped
                # its clean copy, so the next write needs no invalidation
                # round.
                yield ack_delay
                entry.sharer_bits &= ~(1 << msg.src)
                if entry.state is _SHARED and not entry.sharer_bits:
                    entry.state = _UNOWNED
            else:
                raise CheckError(
                    "protocol",
                    f"directory cannot serve message {msg}",
                    node=node,
                    block=block,
                    state=entry.describe(),
                )

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
        self.engine.schedule(
            self.machine.latencies[self.node_id][msg.requester],
            partial(msg.done.fire, info),
        )
