"""Fully associative FIFO TLB (paper Table 1: 64 entries, 4 KB pages)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class Tlb:
    """Fully associative translation buffer with FIFO replacement.

    FIFO (not LRU): a hit does not refresh an entry's position, matching
    the paper's "FIFO replacement". Hits are the simulator's common case
    and cost one masked address computation plus a dict probe.
    """

    def __init__(self, entries: int, page_bytes: int) -> None:
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self.page_bytes = page_bytes
        # Page alignment by mask when the page size is a power of two
        # (it always is in practice), by modulo otherwise.
        self._page_mask: Optional[int] = (
            ~(page_bytes - 1) if page_bytes & (page_bytes - 1) == 0 else None
        )
        self._fifo: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        # Bumped whenever the resident set changes (miss-install, flush).
        # FIFO hits do not refresh positions, so a residency verdict
        # computed at version V stays valid while the version reads V.
        self.version = 0

    def _page_of(self, addr: int) -> int:
        if self._page_mask is not None:
            return addr & self._page_mask
        return addr - (addr % self.page_bytes)

    def access(self, addr: int) -> bool:
        """Touch the page containing ``addr``; True on hit, False on miss.

        A miss installs the page, evicting the oldest entry if full.
        """
        mask = self._page_mask
        if mask is not None:
            page = addr & mask
        else:
            page = addr - (addr % self.page_bytes)
        fifo = self._fifo
        if page in fifo:
            self.hits += 1
            return True
        self.misses += 1
        self.version += 1
        if len(fifo) >= self.entries:
            fifo.popitem(last=False)
        fifo[page] = None
        return False

    def contains(self, addr: int) -> bool:
        """Whether the page of ``addr`` is resident (no counter update)."""
        return self._page_of(addr) in self._fifo

    def flush(self) -> None:
        """Drop all translations."""
        self.version += 1
        self._fifo.clear()
