"""Byte-budget eviction for the content-addressed result cache.

``.repro_cache/`` grows by one entry per distinct configuration ever
simulated: a JSON record, plus its trace if ``repro trace`` stored one.
A long-running server sweeping large grids needs a bound.
:func:`enforce_budget` trims the entries to a byte budget with a
two-tier policy:

1. **stale entries first** — records whose stored key no longer
   matches a key recomputed under the current ``CODE_SALT`` / package
   version / record schema can never satisfy a lookup again (the cache
   treats them as misses), nor can a trace whose record is gone, so
   they are reclaimed before anything live, oldest first;
2. **then LRU by mtime** — cache *hits* bump a record's mtime
   (:meth:`ResultCache.load`), so mtime order is true
   least-recently-used order and hot records survive while cold ones
   go.

Eviction is mechanically simple — remove entries, each record with its
trace (:meth:`ResultCache.remove`), until under budget — and
idempotent; the queue runs it after every record store.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.runner.cache import ResultCache


@dataclass
class EvictionReport:
    """What one :func:`enforce_budget` pass did."""

    budget_bytes: int
    bytes_before: int
    bytes_after: int
    evicted: List[str] = field(default_factory=list)
    stale_evicted: int = 0

    @property
    def evicted_count(self) -> int:
        return len(self.evicted)


def enforce_budget(cache: ResultCache, budget_bytes: int) -> EvictionReport:
    """Remove entries (stale first, then oldest-mtime) until under budget."""
    entries = cache.index()  # already oldest-mtime first
    total = sum(entry.bytes for entry in entries)
    report = EvictionReport(
        budget_bytes=budget_bytes, bytes_before=total, bytes_after=total
    )
    if total <= budget_bytes:
        return report

    stale = [entry for entry in entries if entry.stale]
    fresh = [entry for entry in entries if not entry.stale]
    for entry in stale + fresh:
        if total <= budget_bytes:
            break
        if not cache.remove(entry):
            continue  # another pass removed it first
        total -= entry.bytes
        report.evicted.append(entry.path.name)
        report.stale_evicted += 1 if entry.stale else 0
    report.bytes_after = total
    return report


#: ``--cache-bytes`` suffixes, case-insensitive: 64K, 32M, 2G.
_UNITS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def parse_bytes(text: Optional[str]) -> Optional[int]:
    """Parse a byte budget like ``"67108864"``, ``"64M"``, or ``"1.5G"``.

    Returns ``None`` for ``None``/empty input (no budget). Raises
    :class:`ValueError` on anything unparseable.
    """
    if text is None or text == "":
        return None
    match = re.fullmatch(
        r"\s*(\d+(?:\.\d+)?)\s*([kKmMgG]?)[bB]?\s*", str(text)
    )
    if not match:
        raise ValueError(
            f"cannot parse byte budget {text!r} (try 67108864, 64M, 1G)"
        )
    value = float(match.group(1)) * _UNITS[match.group(2).lower()]
    return int(value)
