"""Set-associative cache with random replacement (paper Table 1).

One structure serves both machines. The message-passing machine only
uses INVALID/PRESENT-style occupancy for local data; the shared-memory
machine additionally distinguishes SHARED (read-only) from EXCLUSIVE
(writable, dirty) lines for the Dir_nNB protocol.

Lookups are the simulator's single hottest operation (every simulated
block access probes the cache, and the overwhelming majority hit), so
the resident state is mirrored in one flat ``block_addr -> state`` dict:
a hit is a single dict probe plus a counter bump. The per-set dicts
remain the authority for occupancy and victim choice; both structures
are updated together on the (rare) insert/invalidate paths.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class LineState(enum.Enum):
    """Coherence state of a cache line."""

    INVALID = 0
    SHARED = 1  # read-only copy
    EXCLUSIVE = 2  # writable and dirty


_INVALID = LineState.INVALID

#: Victim draws taken from the replacement stream at a time. On numpy's
#: PCG64, ``integers(n, size=k)`` yields exactly the values of k scalar
#: ``integers(n)`` calls, so chunking moves no victim; each cache owns its
#: stream, so drawing ahead shifts nothing else.
_VICTIM_CHUNK = 256


class CacheError(RuntimeError):
    """Raised on inconsistent cache manipulation."""


class Cache:
    """N-way set-associative, random replacement, write-allocate.

    Eviction notifications: ``on_evict(block_addr, state)`` is invoked for
    every line displaced by an insert, letting the owning machine issue
    write-backs (shared-memory) or charge replacement costs.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        block_bytes: int,
        rng: np.random.Generator,
        name: str = "cache",
    ) -> None:
        if size_bytes % (assoc * block_bytes) != 0:
            raise ValueError("cache size must divide into assoc * block_bytes")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.name = name
        self.num_sets = size_bytes // (assoc * block_bytes)
        self._rng = rng
        # Victim indices drawn ahead, next one last (see insert).
        self._victim_draws: List[int] = []
        # Per set: dict block_addr -> LineState (len <= assoc).
        self._sets: List[Dict[int, LineState]] = [{} for _ in range(self.num_sets)]
        # Flat mirror of every resident line (the hit fast path).
        self._lines: Dict[int, LineState] = {}
        self.on_evict: Optional[Callable[[int, LineState], None]] = None
        # Instrumentation.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Bumped on every content mutation (insert/set_state/invalidate/
        # flush). A probe verdict computed at version V stays valid while
        # the version still reads V: hits never mutate content, so the
        # batched backend memoizes all-hit verdicts against this stamp.
        self.version = 0

    def _set_of(self, block_addr: int) -> Dict[int, LineState]:
        """The set holding ``block_addr``, which must be block-aligned."""
        block_bytes = self.block_bytes
        if block_addr % block_bytes != 0:
            raise CacheError(f"unaligned block address {block_addr:#x}")
        return self._sets[(block_addr // block_bytes) % self.num_sets]

    def lookup(self, block_addr: int) -> LineState:
        """State of the block, counting a hit or miss."""
        state = self._lines.get(block_addr, _INVALID)
        if state is _INVALID:
            # Only aligned addresses are ever resident, so the alignment
            # check is needed (and paid) on this branch alone.
            if block_addr % self.block_bytes != 0:
                raise CacheError(f"unaligned block address {block_addr:#x}")
            self.misses += 1
        else:
            self.hits += 1
        return state

    def peek(self, block_addr: int) -> LineState:
        """State of the block without touching hit/miss counters."""
        if block_addr % self.block_bytes != 0:
            raise CacheError(f"unaligned block address {block_addr:#x}")
        return self._lines.get(block_addr, _INVALID)

    def insert(
        self, block_addr: int, state: LineState
    ) -> Optional[Tuple[int, LineState]]:
        """Install a block, evicting a random victim if the set is full.

        Returns ``(victim_addr, victim_state)`` if a line was displaced,
        else None. The ``on_evict`` callback (if set) also fires.
        """
        line_set = self._set_of(block_addr)
        if state is LineState.INVALID:
            raise CacheError("cannot insert an INVALID line")
        self.version += 1
        if block_addr in line_set:
            line_set[block_addr] = state
            self._lines[block_addr] = state
            return None
        victim: Optional[Tuple[int, LineState]] = None
        if len(line_set) >= self.assoc:
            # A full set holds exactly ``assoc`` lines, so the victim is
            # candidates[integers(assoc)], one draw per eviction, served
            # from a chunk (see _VICTIM_CHUNK).
            draws = self._victim_draws
            if not draws:
                draws = self._rng.integers(self.assoc, size=_VICTIM_CHUNK).tolist()
                draws.reverse()
                self._victim_draws = draws
            victim_addr = list(line_set)[draws.pop()]
            victim = (victim_addr, line_set.pop(victim_addr))
            del self._lines[victim_addr]
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(*victim)
        line_set[block_addr] = state
        self._lines[block_addr] = state
        return victim

    def set_state(self, block_addr: int, state: LineState) -> None:
        """Change the state of a present line (e.g., SHARED -> EXCLUSIVE)."""
        line_set = self._set_of(block_addr)
        if block_addr not in line_set:
            raise CacheError(f"block {block_addr:#x} not present in {self.name}")
        if state is LineState.INVALID:
            raise CacheError("use invalidate() to remove a line")
        self.version += 1
        line_set[block_addr] = state
        self._lines[block_addr] = state

    def invalidate(self, block_addr: int) -> LineState:
        """Remove a line; returns its prior state (INVALID if absent)."""
        line_set = self._set_of(block_addr)
        prior = line_set.pop(block_addr, _INVALID)
        if prior is not _INVALID:
            self.version += 1
            del self._lines[block_addr]
        return prior

    def resident_blocks(self) -> int:
        """Total lines currently valid (for tests and sanity checks)."""
        return len(self._lines)

    def flush(self) -> None:
        """Drop every line without eviction callbacks (test helper)."""
        self.version += 1
        for line_set in self._sets:
            line_set.clear()
        self._lines.clear()
