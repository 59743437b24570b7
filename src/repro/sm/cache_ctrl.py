"""Per-node cache controller of the shared-memory machine.

Services the protocol messages that *arrive at* a node's cache:
invalidations (3 cycles + replacement cost, paper Table 3) and fetches
(recall of a dirty copy). Runs concurrently with the node's processor,
as the hardware does; its costs therefore consume controller occupancy
and add to transaction latency rather than to the local program's cycle
categories. Invalidations received are counted on the node's stats and
pulse the node's per-block invalidation gates, which wake spin-waiting
readers (the MCS-lock spin model).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Tuple

from repro.arch.cache import LineState
from repro.check.errors import CheckError
from repro.sim.events import SimEvent
from repro.sim.process import Process, Wait, delay_of
from repro.sm.protocol import Msg, MsgType

_INV, _FETCH, _UPDATE_PUSH = MsgType.INV, MsgType.FETCH, MsgType.UPDATE_PUSH
_ACK, _FETCH_REPLY = MsgType.ACK, MsgType.FETCH_REPLY
_INVALID, _SHARED, _EXCLUSIVE = LineState.INVALID, LineState.SHARED, LineState.EXCLUSIVE


class CacheCtrl:
    """Invalidation/fetch servicing for one node's cache."""

    def __init__(self, machine: "repro.sm.machine.SmMachine", node_id: int) -> None:  # noqa: F821
        self.machine = machine
        self.node_id = node_id
        self.engine = machine.engine
        self.sm = machine.params.sm
        self._inbox: Deque[Tuple[int, Msg]] = deque()
        # Re-armed wake event, as in Directory: fired while the loop is busy.
        self._wake = SimEvent(name=f"cc{node_id}.wake")
        self.process = Process(self.engine, self._run(), name=f"cc{node_id}")
        self.invalidations_serviced = 0
        self.fetches_serviced = 0

    def post(self, msg: Msg) -> None:
        self._inbox.append((self.engine._now, msg))
        wake = self._wake
        if not wake.fired:
            wake.fire(None)

    def _run(self) -> Generator:
        """Serve the inbox in arrival order, one generator frame for all.

        An invalidation or fetch costs ``invalidate_cycles`` plus the
        replacement cost of the line's prior state (nothing if it was
        already evicted); a bulk update push, ``invalidate_cycles`` per
        block written.
        """
        machine = self.machine
        node = self.node_id
        cache = machine.nodes[node].cache
        stats = machine.nodes[node].stats
        inbox = self._inbox
        popleft = inbox.popleft
        wake = self._wake
        wait = Wait(wake)
        sm = self.sm
        invalidate_cycles = sm.invalidate_cycles
        # Occupancy by the line's prior state.
        evicted_delay = delay_of(invalidate_cycles)
        clean_delay = delay_of(invalidate_cycles + sm.replacement_shared_clean_cycles)
        dirty_delay = delay_of(invalidate_cycles + sm.replacement_shared_dirty_cycles)
        while True:
            if not inbox:
                wake.fired = False  # re-arm: this loop is its only waiter
                yield wait
                continue
            _arrival, msg = popleft()
            kind = msg.type
            block = msg.block
            if kind is _INV:
                prior = cache.invalidate(block)
                if prior is _EXCLUSIVE:
                    yield dirty_delay
                elif prior is _SHARED:
                    yield clean_delay
                else:
                    yield evicted_delay
                self.invalidations_serviced += 1
                stats.count("invalidations_received")
                machine.pulse_inval_gate(node, block)
                machine.send_to_directory(
                    node, block, Msg(_ACK, block, node, msg.requester)
                )
            elif kind is _FETCH:
                # Recall this node's dirty copy: drop it for a GETX
                # (``msg.info`` true), downgrade it for a GETS. If the line
                # was already evicted (its writeback raced the fetch),
                # reply anyway: the data is at home by then.
                if msg.info:
                    prior = cache.invalidate(block)
                    if prior is not _INVALID:
                        machine.pulse_inval_gate(node, block)
                else:
                    prior = cache.peek(block)
                    if prior is _EXCLUSIVE:
                        cache.set_state(block, _SHARED)
                if prior is _EXCLUSIVE:
                    yield dirty_delay
                elif prior is _SHARED:
                    yield clean_delay
                else:
                    yield evicted_delay
                self.fetches_serviced += 1
                machine.send_to_directory(
                    node, block, Msg(_FETCH_REPLY, block, node, msg.requester)
                )
            elif kind is _UPDATE_PUSH:
                # Section 5.3.4 bulk update: consumer copies are refreshed
                # in place rather than invalidated, so the next read of
                # these blocks hits.
                blocks = msg.info
                yield delay_of(invalidate_cycles * len(blocks))
                for pushed in blocks:
                    if cache.peek(pushed) is _INVALID:
                        victim = cache.insert(pushed, _SHARED)
                        if (
                            victim is not None
                            and victim[1] is _EXCLUSIVE
                            and machine.is_shared_block(victim[0])
                        ):
                            machine.evict_dirty_shared(node, victim[0])
                stats.count("updates_received", len(blocks))
            else:
                raise CheckError(
                    "protocol",
                    f"cache controller cannot serve message {msg}",
                    node=node,
                    block=block,
                    state=cache.peek(block).name,
                )
