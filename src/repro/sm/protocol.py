"""Message and state vocabulary of the Dir_nNB coherence protocol.

``Dir_nNB``: a full-map directory (n = all processors may share a
block), No Broadcast. The directory at a block's home node records
either its sharers (read-only copies), as a full-map vector of one
presence bit per processor, or a single owner (writable dirty copy),
and sends the fewest possible invalidations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Deque, FrozenSet, Iterator, Optional

from repro.sim.events import SimEvent


class DirState(enum.Enum):
    """Directory-side state of a block."""

    UNOWNED = 0  # memory at home holds the only copy
    SHARED = 1  # read-only copies at the nodes in `sharer_bits`
    EXCLUSIVE = 2  # one dirty copy at `owner`


class MsgType(enum.Enum):
    """Protocol messages.

    Requests (processor -> home directory): GETS (read miss), GETX
    (write miss), UPGRADE (write fault on a SHARED copy), WRITEBACK
    (dirty eviction). Directory -> remote cache controller: INV
    (invalidate a copy), FETCH (recall the dirty copy). Responses:
    ACK (invalidation done), FETCH_REPLY (dirty data back to home).
    The data/grant to the original requester is delivered by firing the
    transaction's completion event.
    """

    GETS = "gets"
    GETX = "getx"
    UPGRADE = "upgrade"
    WRITEBACK = "writeback"
    INV = "inv"
    FETCH = "fetch"
    ACK = "ack"
    FETCH_REPLY = "fetch_reply"
    # Extensions (paper Section 5.3.4 discussion):
    FLUSH = "flush"  # drop a clean copy, notifying the directory
    UPDATE_PUSH = "update_push"  # bulk data push (user-level protocol)


@dataclass
class Msg:
    """One protocol message in flight."""

    type: MsgType
    block: int
    src: int  # sending node
    requester: int  # node whose transaction this belongs to
    done: Optional[SimEvent] = None  # completion event (requests only)
    info: Any = None


@dataclass
class TransactionInfo:
    """Completion payload: what the transaction cost on the wire.

    The requester uses this to attribute the transaction's secondary
    traffic (invalidations, acknowledgements, fetches) to itself, the
    way the paper's per-processor byte counts do.
    """

    with_data: bool  # did the reply carry a cache block?
    invalidations: int = 0
    fetched: bool = False


def bit_nodes(bits: int) -> Iterator[int]:
    """The node ids whose bits are set in ``bits``, in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class DirEntry:
    """Directory record for one block at its home node.

    A directory holds one entry for every block it has ever served, so
    the entry is a slotted class, its sharers are the paper's full-map
    bit vector (bit ``p`` of ``sharer_bits`` is set while node ``p`` may
    hold a read-only copy), and its ``pending`` queue (requests parked
    while a transaction is in progress) stays ``None`` until a request
    first parks.
    """

    __slots__ = (
        "state", "sharer_bits", "owner", "busy", "pending",
        "acks_needed", "waiting", "txn_info",
    )

    def __init__(self) -> None:
        self.state = DirState.UNOWNED
        self.sharer_bits = 0
        self.owner: Optional[int] = None
        self.busy = False  # a multi-message transaction is in progress
        self.pending: Optional[Deque[Msg]] = None
        # State of the in-progress transaction (valid while busy).
        self.acks_needed = 0
        self.waiting: Optional[Msg] = None  # the request being served
        self.txn_info: Optional[TransactionInfo] = None

    @property
    def sharers(self) -> FrozenSet[int]:
        """The nodes whose presence bits are set (a read-only view)."""
        return frozenset(bit_nodes(self.sharer_bits))

    def describe(self) -> str:
        if self.state is DirState.EXCLUSIVE:
            return f"EXCLUSIVE@{self.owner}"
        if self.state is DirState.SHARED:
            return f"SHARED{sorted(self.sharers)}"
        return "UNOWNED"
