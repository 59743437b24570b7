"""Region allocation, address layout, and home-node placement policies.

The shared-memory machine's ``gmalloc`` allocates from the shared
segment with **round-robin** placement across processors (the paper's
default); the EM3D ablation of paper Table 17 switches to **local**
placement. Round-robin is modeled at cache-block granularity: block *k*
of a region is homed on node ``k mod P``, which reproduces the paper's
observation that with 32 processors roughly 97% of a processor's misses
to its "own" data are remote.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.address import AddressRange, align_up


#: Longest index list :meth:`Region.block_addrs_of_indices` resolves in
#: Python rather than numpy (the measured break-even is near 40).
SMALL_GATHER = 32
_SMALL_TYPES = (list, tuple)


class Segment(enum.Enum):
    """Which address segment a region lives in."""

    PRIVATE = "private"
    SHARED = "shared"


class HomePolicy(enum.Enum):
    """How a shared region's blocks map to home nodes."""

    LOCAL = "local"  # every block homed on the owning node
    ROUND_ROBIN = "round_robin"  # block k homed on node k mod P


class Region:
    """A named, contiguous simulated allocation with numpy backing.

    ``protocol`` selects the coherence mechanism for shared regions:
    ``"dir"`` (default) is the Dir_nNB invalidation protocol; ``"update"``
    is the user-level bulk-update protocol of the paper's Section 5.3.4
    discussion (Falsafi et al.): a single producer per element writes
    locally and pushes bulk updates to subscribed consumers.
    """

    def __init__(
        self,
        name: str,
        base: int,
        array: np.ndarray,
        segment: Segment,
        owner: int,
        policy: HomePolicy,
        num_nodes: int,
        block_bytes: int,
        protocol: str = "dir",
    ) -> None:
        if protocol not in ("dir", "update"):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.name = name
        self.base = base
        self.np = array
        # Cached flat view: the access hot paths slice/index the region
        # element-wise far more often than they see its declared shape.
        self.flat = array.reshape(-1)
        self.segment = segment
        self.owner = owner
        self.policy = policy
        self.num_nodes = num_nodes
        self.block_bytes = block_bytes
        self.itemsize = array.itemsize
        self.protocol = protocol
        # Bounds of home_of_block: the first block and the end address.
        self._first_block = base - (base % block_bytes)
        self._end = base + array.size * array.itemsize

    @property
    def nbytes(self) -> int:
        return self.np.size * self.itemsize

    @property
    def end(self) -> int:
        return self.base + self.nbytes

    def addr_of(self, index: int) -> int:
        """Byte address of element ``index`` (flat indexing)."""
        if index < 0 or index >= self.np.size:
            raise IndexError(f"{self.name}[{index}] out of range")
        return self.base + index * self.itemsize

    def span_of(self, lo: int, hi: int) -> Tuple[int, int]:
        """``(start, length)`` in bytes of flat elements ``[lo, hi)``."""
        if lo < 0 or hi > self.flat.size or lo > hi:
            raise IndexError(f"{self.name}[{lo}:{hi}] out of range")
        return self.base + lo * self.itemsize, (hi - lo) * self.itemsize

    def range_of(self, lo: int = 0, hi: Optional[int] = None) -> AddressRange:
        """Byte range covering flat elements ``[lo, hi)``."""
        return AddressRange(*self.span_of(lo, self.flat.size if hi is None else hi))

    def block_addrs_of_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Unique, sorted block addresses touched by the given elements."""
        if type(indices) in _SMALL_TYPES and len(indices) <= SMALL_GATHER:
            # A set and a sort beat numpy's per-call overhead on short
            # lists; int() truncates as the int64 conversion below does.
            base, itemsize, block_bytes = self.base, self.itemsize, self.block_bytes
            blocks = set()
            for index in indices:
                addr = base + int(index) * itemsize
                blocks.add(addr - addr % block_bytes)
            return np.array(sorted(blocks), dtype=np.int64)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        addrs = self.base + idx * self.itemsize
        blocks = addrs - (addrs % self.block_bytes)
        return np.unique(blocks)

    def home_of_block(self, block_addr: int) -> int:
        """Home node of the block at ``block_addr``."""
        if block_addr < self._first_block or block_addr >= self._end:
            raise ValueError(f"block {block_addr:#x} not in region {self.name}")
        if self.policy is HomePolicy.LOCAL:
            return self.owner
        block_index = (block_addr - self.base) // self.block_bytes
        return block_index % self.num_nodes

    def __repr__(self) -> str:
        return (
            f"Region({self.name!r}, base={self.base:#x}, nbytes={self.nbytes}, "
            f"{self.segment.value}, owner={self.owner}, {self.policy.value})"
        )


class DataSpace:
    """Bump allocator for the simulated address space of one machine.

    Each node's private allocations and the shared segment share one
    address space; regions never overlap and are block-aligned so that
    home-node interleaving is clean.
    """

    #: Address stride separating each node's private segment (and the
    #: shared segment) so regions can never collide.
    SEGMENT_STRIDE = 1 << 40

    def __init__(self, num_nodes: int, block_bytes: int) -> None:
        self.num_nodes = num_nodes
        self.block_bytes = block_bytes
        # Cursor per private segment (index = node) plus the shared
        # segment (index = num_nodes).
        self._cursors: Dict[int, int] = {
            i: (i + 1) * self.SEGMENT_STRIDE for i in range(num_nodes + 1)
        }
        self.regions: Dict[str, Region] = {}

    def _alloc_bytes(self, segment_index: int, nbytes: int) -> int:
        base = align_up(self._cursors[segment_index], self.block_bytes)
        self._cursors[segment_index] = base + nbytes
        return base

    def alloc_private(
        self,
        name: str,
        owner: int,
        shape: Union[int, tuple],
        dtype: Union[str, np.dtype] = np.float64,
        fill: float = 0.0,
    ) -> Region:
        """Allocate a node-private region (always homed on its owner)."""
        return self._alloc(name, owner, shape, dtype, Segment.PRIVATE, HomePolicy.LOCAL, fill)

    def alloc_shared(
        self,
        name: str,
        owner: int,
        shape: Union[int, tuple],
        dtype: Union[str, np.dtype] = np.float64,
        policy: HomePolicy = HomePolicy.ROUND_ROBIN,
        fill: float = 0.0,
        protocol: str = "dir",
    ) -> Region:
        """Allocate from the shared segment (the parmacs ``gmalloc``)."""
        return self._alloc(
            name, owner, shape, dtype, Segment.SHARED, policy, fill, protocol
        )

    def _alloc(
        self,
        name: str,
        owner: int,
        shape: Union[int, tuple],
        dtype: Union[str, np.dtype],
        segment: Segment,
        policy: HomePolicy,
        fill: float,
        protocol: str = "dir",
    ) -> Region:
        if name in self.regions:
            raise ValueError(f"region name {name!r} already allocated")
        if not 0 <= owner < self.num_nodes:
            raise ValueError(f"owner {owner} out of range")
        array = np.full(shape, fill, dtype=dtype)
        segment_index = self.num_nodes if segment is Segment.SHARED else owner
        base = self._alloc_bytes(segment_index, array.size * array.itemsize)
        region = Region(
            name=name,
            base=base,
            array=array,
            segment=segment,
            owner=owner,
            policy=policy,
            num_nodes=self.num_nodes,
            block_bytes=self.block_bytes,
            protocol=protocol,
        )
        self.regions[name] = region
        return region

    def region_at(self, addr: int) -> Optional[Region]:
        """Region containing byte address ``addr`` (linear scan; test aid)."""
        for region in self.regions.values():
            if region.base <= addr < region.end:
                return region
        return None
