"""Machine parameters, transcribed from the paper's Tables 1-3.

All times are in processor cycles (the paper assumes a 30 ns cycle).
Defaults reproduce the paper's configuration exactly; experiments may
override (e.g., the 1 MB-cache EM3D ablation of paper Table 16).

Beyond the paper's CM-5-era table, two *presets* re-ask the paper's
MP-vs-SM question on later hardware (ROADMAP scenario-diversity item):

* :meth:`MachineParams.multicore` — a multicore-era table (grounded in
  Hasta & Mutiara, PAPERS.md): cores share a die, so remote messages
  cross an on-chip interconnect in tens of cycles, while DRAM costs
  *more* cycles than in 1994 (the memory wall).
* :meth:`MachineParams.cluster` — a cluster-of-multicores with
  two-level communication cost (grounded in Task & Chauhan, PAPERS.md):
  ``cluster_size`` cores per node talk at ``intra_cluster_latency``;
  crossing nodes pays the full NIC + wire ``network_latency``.

``cluster_size=1`` / ``intra_cluster_latency=None`` are inert: both
machines then use the flat latency exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class CommonParams:
    """Paper Table 1: hardware characteristics common to both machines."""

    num_processors: int = 32
    cache_bytes: int = 256 * 1024
    cache_assoc: int = 4
    block_bytes: int = 32
    tlb_entries: int = 64
    page_bytes: int = 4096
    network_latency: int = 100  # cycles, remote message
    barrier_latency: int = 100  # cycles from last arrival
    local_miss_cycles: int = 11  # + replacement; excludes DRAM access
    dram_cycles: int = 10
    # Not in the paper's tables; documented assumption (software-loaded
    # TLB on a SPARC-like node). Only the shared-memory machine reports
    # TLB-miss time, matching the paper's tables.
    tlb_miss_cycles: int = 25
    # Two-level topology (cluster preset). cluster_size=1 means flat:
    # every distinct pair of processors is "remote" and pays
    # network_latency, exactly the paper's machine.
    cluster_size: int = 1
    intra_cluster_latency: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("cache_assoc", "block_bytes"):  # the divisors below
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.cache_bytes % (self.block_bytes * self.cache_assoc) != 0:
            raise ValueError("cache size must be a multiple of assoc * block")
        if self.page_bytes % self.block_bytes != 0:
            raise ValueError("page size must be a multiple of block size")
        if self.cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        # Cycle counts become Delays and schedule() delays, which cannot
        # run backwards; zero is a legal (free) cost.
        for name in (
            "network_latency",
            "barrier_latency",
            "local_miss_cycles",
            "dram_cycles",
            "tlb_miss_cycles",
            "intra_cluster_latency",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def message_latency(self, src: int, dest: int) -> int:
        """Network cycles between two distinct processors.

        Flat machines (``intra_cluster_latency=None``) always pay
        ``network_latency``. Two-level machines pay the cheap on-node
        latency when both processors sit in the same cluster.
        """
        if (
            self.intra_cluster_latency is not None
            and src // self.cluster_size == dest // self.cluster_size
        ):
            return self.intra_cluster_latency
        return self.network_latency

    @property
    def cache_sets(self) -> int:
        return self.cache_bytes // (self.block_bytes * self.cache_assoc)

    @property
    def local_miss_total_cycles(self) -> int:
        """Full cost of a local miss: detection + DRAM (replacement extra)."""
        return self.local_miss_cycles + self.dram_cycles


@dataclass(frozen=True)
class MpParams:
    """Paper Table 2: the message-passing machine's network interface.

    Packets are 20 bytes, as on the CM-5 (the CMMD library uses 20-byte
    packets); we model them as 16 payload bytes plus a 4-byte tag/header.
    """

    replacement_cycles: int = 1  # infinite write buffer
    ni_status_cycles: int = 5
    ni_write_tag_dest_cycles: int = 5
    ni_send_5_words_cycles: int = 15  # including the stores
    ni_recv_5_words_cycles: int = 15  # including the loads
    packet_bytes: int = 20
    packet_payload_bytes: int = 16
    # Software overheads of the re-implemented CMAML/CMMD library (not in
    # the paper's tables; calibrated so library time lands in the paper's
    # reported 3-42% band — see DESIGN.md section 2.8).
    lib_send_packet_cycles: int = 70  # per-packet sender bookkeeping
    lib_recv_packet_cycles: int = 80  # per-packet handler bookkeeping
    lib_transfer_setup_cycles: int = 100  # per channel-write/send setup
    lib_handshake_cycles: int = 60  # per sync-send rendezvous leg
    lib_am_send_cycles: int = 25  # active-message injection bookkeeping
    lib_am_handler_cycles: int = 35  # active-message handler bookkeeping
    # Interrupt-driven delivery (the NI's interrupt mask): on a real
    # CM-5 a message interrupt traps to the kernel, which invokes the
    # user handler in a new register window. The paper's simulator
    # skips that cost (CMMD polls heavily); ours models it for programs
    # that do enable interrupts.
    interrupt_dispatch_cycles: int = 120

    @property
    def packet_header_bytes(self) -> int:
        return self.packet_bytes - self.packet_payload_bytes

    @property
    def send_packet_cycles(self) -> int:
        """NI cost to inject one packet: tag+dest write, then 5 words."""
        return self.ni_write_tag_dest_cycles + self.ni_send_5_words_cycles

    @property
    def recv_packet_cycles(self) -> int:
        """NI cost to drain one packet (5 word loads)."""
        return self.ni_recv_5_words_cycles


@dataclass(frozen=True)
class SmParams:
    """Paper Table 3: the shared-memory machine (Dir_nNB protocol)."""

    self_message_cycles: int = 10
    shared_miss_cycles: int = 19  # processor-side; + replacement
    invalidate_cycles: int = 3  # at the invalidated cache; + replacement
    replacement_private_cycles: int = 1
    replacement_shared_clean_cycles: int = 5
    replacement_shared_dirty_cycles: int = 13
    directory_base_cycles: int = 10
    directory_recv_block_cycles: int = 8
    directory_send_msg_cycles: int = 5
    directory_send_block_cycles: int = 8
    message_bytes: int = 40  # cache block + control information
    atomic_op_cycles: int = 5  # atomic swap ALU cost (assumption)
    directory_ack_cycles: int = 2  # directory occupancy per collected ack
    write_fault_detect_cycles: int = 5  # processor-side write-fault cost

    @property
    def control_only_bytes(self) -> int:
        """Wire size charged for a block-less protocol message."""
        return self.message_bytes

    @property
    def block_message_control_bytes(self) -> int:
        """Control portion of a block-carrying message (40 - 32 bytes)."""
        return self.message_bytes - 32


@dataclass(frozen=True)
class MachineParams:
    """Complete configuration for one simulated machine."""

    common: CommonParams = field(default_factory=CommonParams)
    mp: MpParams = field(default_factory=MpParams)
    sm: SmParams = field(default_factory=SmParams)

    @classmethod
    def paper(cls, num_processors: int = 32) -> "MachineParams":
        """The paper's exact configuration."""
        return cls(common=CommonParams(num_processors=num_processors))

    @classmethod
    def multicore(cls, num_processors: int = 32) -> "MachineParams":
        """A multicore-era table (Hasta & Mutiara grounding).

        Cores share a die: remote messages cross an on-chip mesh in
        ~30 cycles and barriers resolve on-chip, but a DRAM access —
        10 cycles in the paper's 30 ns world — costs ~150 core cycles
        behind a modern clock (the memory wall). Caches are larger and
        local-miss detection is a longer pipeline.
        """
        return cls(
            common=CommonParams(
                num_processors=num_processors,
                cache_bytes=1024 * 1024,
                network_latency=30,
                barrier_latency=30,
                local_miss_cycles=20,
                dram_cycles=150,
            )
        )

    @classmethod
    def cluster(cls, num_processors: int = 32) -> "MachineParams":
        """A cluster of multicores with two-level latency (Task & Chauhan).

        ``cluster_size`` cores per node keep the cheap on-chip latency
        of the multicore table among themselves; any message that
        crosses nodes pays a NIC + wire cost far above the CM-5's 100
        cycles (a few microseconds at a modern clock). The barrier
        spans nodes, so it pays the cross-node cost too.
        """
        return cls(
            common=CommonParams(
                num_processors=num_processors,
                cache_bytes=1024 * 1024,
                network_latency=600,
                barrier_latency=600,
                local_miss_cycles=20,
                dram_cycles=150,
                cluster_size=8,
                intra_cluster_latency=30,
            )
        )

    def with_cache_bytes(self, cache_bytes: int) -> "MachineParams":
        """Copy with a different cache size (EM3D Table 16 ablation)."""
        return replace(self, common=replace(self.common, cache_bytes=cache_bytes))

    def with_processors(self, num_processors: int) -> "MachineParams":
        return replace(
            self, common=replace(self.common, num_processors=num_processors)
        )


#: Named machine tables selectable via the ``preset=`` config channel.
MACHINE_PRESETS: Tuple[str, ...] = ("paper", "multicore", "cluster")

#: The memory-consistency models the shared-memory machine implements
#: (the ``consistency=`` config channel). ``sc`` is the paper's
#: sequentially consistent baseline (no store buffer at all —
#: bit-identical to the pre-relaxation code path); the store buffers
#: behind ``tso`` and ``pc`` live in :mod:`repro.arch.write_buffer`.
MEMORY_MODELS: Tuple[str, ...] = ("sc", "tso", "pc")


def machine_preset(name: str, num_processors: int = 32) -> MachineParams:
    """Resolve a preset name to its :class:`MachineParams`."""
    if name not in MACHINE_PRESETS:
        raise ValueError(
            f"unknown machine preset {name!r}; known: {list(MACHINE_PRESETS)}"
        )
    factory = getattr(MachineParams, name)
    return factory(num_processors=num_processors)
