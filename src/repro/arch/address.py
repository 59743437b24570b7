"""Address arithmetic: cache-block and page decomposition of byte ranges.

Simulated memory accesses are issued as byte ranges; the machines walk
the cache blocks (and TLB pages) a range covers. These helpers keep that
arithmetic in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AddressRange:
    """A half-open byte range ``[start, start + length)``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 0:
            raise ValueError(f"invalid range: start={self.start} len={self.length}")

    @property
    def end(self) -> int:
        return self.start + self.length

    def blocks(self, block_bytes: int) -> range:
        """Block-aligned addresses of every cache block the range touches."""
        return block_span(self.start, self.length, block_bytes)

    def pages(self, page_bytes: int) -> range:
        """Page-aligned addresses of every page the range touches."""
        return page_span(self.start, self.length, page_bytes)


def block_span(start: int, length: int, block_bytes: int) -> range:
    """Block-aligned addresses covering ``[start, start+length)``, ascending.

    A C-level ``range``: O(1) length, allocation-free iteration.
    """
    if length <= 0:
        return range(0)
    first = start - (start % block_bytes)
    last = (start + length - 1) - ((start + length - 1) % block_bytes)
    return range(first, last + 1, block_bytes)


def page_span(start: int, length: int, page_bytes: int) -> range:
    """Page-aligned addresses covering ``[start, start+length)``, ascending."""
    return block_span(start, length, page_bytes)


def align_up(value: int, alignment: int) -> int:
    """Smallest multiple of ``alignment`` that is >= ``value``."""
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + alignment - remainder
