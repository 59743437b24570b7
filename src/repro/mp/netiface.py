"""Memory-mapped network interface of the message-passing machine.

Models the CM-5 data-network interface (paper Section 4.1): incoming and
outgoing FIFOs for packets of at most 20 bytes (16 payload + 4 tag), a
status word indicating whether an incoming packet is queued, and
processor-driven loads/stores for all data movement (no DMA). A send
always succeeds, since network contention is not modeled (as in the
paper).

For simulation efficiency, consecutive packets of one bulk transfer may
travel as a single *train*: accounting (packet counts, bytes, per-packet
cycle costs) is per-packet, but the train is delivered as one event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.events import Gate


class Packet:
    """One 20-byte network packet (possibly representing a train).

    ``count`` > 1 makes this a train of ``count`` identical-cost packets
    delivered together; ``payload`` then describes the whole train.
    ``data_bytes``/``control_bytes`` cover the entire train.
    """

    __slots__ = ("control_bytes", "count", "data_bytes", "dest", "payload", "src", "tag")

    def __init__(
        self,
        src: int,
        dest: int,
        tag: str,
        payload: Any,
        data_bytes: int = 0,
        control_bytes: int = 0,
        count: int = 1,
    ) -> None:
        if count < 1:
            raise ValueError("packet train must contain at least one packet")
        self.src = src
        self.dest = dest
        self.tag = tag
        self.payload = payload
        self.data_bytes = data_bytes
        self.control_bytes = control_bytes
        self.count = count

    def __repr__(self) -> str:
        return (
            f"Packet({self.src}->{self.dest}, tag={self.tag!r}, "
            f"count={self.count}, data={self.data_bytes}, ctrl={self.control_bytes})"
        )


class NetworkInterface:
    """Per-node incoming FIFO, arrival notification, interrupt mask.

    The interrupt mask (paper Section 4.1: "the interface's interrupt
    mask controls if the processor will be interrupted when a message
    with a particular tag(s) enters the queue") steers matching packets
    to the node's interrupt-service queue instead of the polled FIFO.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._incoming: Deque[Packet] = deque()
        self._interrupt_queue: Deque[Packet] = deque()
        self.arrival_gate = Gate(name=f"ni{node_id}.arrival")
        self.interrupt_gate = Gate(name=f"ni{node_id}.interrupt")
        self.interrupt_mask: set = set()
        self.packets_enqueued = 0
        self.packets_dequeued = 0
        self.interrupts_raised = 0

    def enqueue(self, packet: Packet) -> None:
        """Network-side delivery into the incoming FIFO (or the ISR)."""
        self.packets_enqueued += packet.count
        if packet.tag in self.interrupt_mask:
            self._interrupt_queue.append(packet)
            self.interrupts_raised += 1
            self.interrupt_gate.pulse()
            return
        self._incoming.append(packet)
        self.arrival_gate.pulse()

    def dequeue_interrupt(self) -> Optional[Packet]:
        """Pull the next packet pending interrupt service."""
        if not self._interrupt_queue:
            return None
        return self._interrupt_queue.popleft()

    def status(self) -> bool:
        """Status-word read: is an incoming packet queued?"""
        return bool(self._incoming)

    def dequeue(self) -> Optional[Packet]:
        """Pull the packet (train) at the head of the incoming FIFO."""
        if not self._incoming:
            return None
        packet = self._incoming.popleft()
        self.packets_dequeued += packet.count
        return packet

    def pending(self) -> int:
        """Packets (not trains) waiting in the incoming FIFO."""
        return sum(p.count for p in self._incoming)
