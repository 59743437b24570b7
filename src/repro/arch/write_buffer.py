"""Store buffers for the relaxed memory models.

(The paper's infinite write buffer, which drains a dirty private line
in one cycle, is a cost in the machine tables:
``MpParams.replacement_cycles`` and
``SmParams.replacement_private_cycles``.)

The relaxed-consistency extension (``consistency="tso"|"pc"``) puts a
*semantic* per-processor store buffer in front of the Dir_nNB protocol:
:class:`StoreBuffer` holds retired-but-uncommitted shared stores, whose
values become globally visible only when the drain process commits them
to memory through a real coherence transaction. Two ordering policies:

* ``"fifo"`` — total store order (TSO): entries commit strictly in
  program order; only the head is ever eligible.
* ``"relaxed"`` — partition consistency (Cheng/Higham/Kawash): entries
  to the *same* location still commit in program order (per-location
  FIFO, so CoWW holds), but stores to different locations may commit in
  any order. Cross-location choice is driven by a per-entry retirement
  delay drawn from a seeded RNG stream, keeping runs reproducible.

The data structure is policy only — it schedules nothing and touches no
memory. The shared-memory drain process (:mod:`repro.sm.relaxed`) owns
the timing and the protocol transactions.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np


class PendingStore:
    """One retired-but-uncommitted store held in a :class:`StoreBuffer`.

    Either a contiguous range write (``indices is None``; ``values`` may
    be None for a protocol-only write) or a scatter (``indices`` holds
    the element indices). ``lo``/``hi`` bound the touched elements for
    conflict detection; scatters use the conservative [min, max] hull.
    """

    __slots__ = ("region", "start", "indices", "values", "seq", "ready_time",
                 "lo", "hi")

    def __init__(self, region, start, indices, values, seq, ready_time):
        self.region = region
        self.start = start
        self.indices = indices
        self.values = values
        self.seq = seq
        self.ready_time = ready_time
        if indices is None:
            self.lo = start
            self.hi = start + (values.size if values is not None else 1)
        else:
            self.lo = int(indices.min())
            self.hi = int(indices.max()) + 1

    def conflicts(self, other: "PendingStore") -> bool:
        """Do the two entries touch overlapping elements of one region?"""
        return (self.region is other.region
                and self.lo < other.hi and other.lo < self.hi)

    def describe(self) -> str:
        kind = "scatter" if self.indices is not None else "range"
        return (f"{kind} {self.region.name}[{self.lo}:{self.hi}] "
                f"seq={self.seq} ready={self.ready_time}")


class StoreBuffer:
    """Per-processor FIFO of retired, not-yet-committed shared stores."""

    def __init__(
        self,
        ordering: str = "fifo",
        rng: Optional[np.random.Generator] = None,
        delay_bands: Tuple[Tuple[int, int], ...] = ((0, 0),),
    ) -> None:
        if ordering not in ("fifo", "relaxed"):
            raise ValueError(f"unknown store-buffer ordering {ordering!r}")
        for lo, hi in delay_bands:
            if not 0 <= lo <= hi:
                raise ValueError(f"bad delay band ({lo}, {hi})")
        self.ordering = ordering
        self.delay_bands = tuple(delay_bands)
        self._rng = rng
        self._entries: List[PendingStore] = []  # program order
        self._seq = 0
        self._empty_callbacks: List[Callable[[], None]] = []
        # Instrumentation.
        self.pushes = 0
        self.commits = 0
        self.forwards = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[PendingStore, ...]:
        """Pending entries in program order (oldest first)."""
        return tuple(self._entries)

    # -- retiring stores ---------------------------------------------------

    def _ready_time(self, now: int) -> int:
        """Earliest commit-eligibility instant for a store retiring now.

        Each entry draws a residency from ``delay_bands``: one band
        chosen uniformly, then a uniform delay inside it. Residency
        models buffer occupancy before the commit transaction issues —
        it is what makes relaxation observable at all (an eager drain's
        GETX is exactly as fast as a racing load's GETS, so the commit
        would always win the race). A *multi-band* profile gives the
        bimodal mix relaxed hardware shows — most stores commit
        promptly, some linger behind buffer backpressure — and the
        short-vs-long asymmetry between two entries is what produces
        cross-location commit reorder under the relaxed ordering.
        """
        bands = self.delay_bands
        if len(bands) == 1 and bands[0][0] == bands[0][1]:
            return now + bands[0][0]
        rng = self._rng
        if rng is None:
            return now + bands[0][0]
        lo, hi = bands[int(rng.integers(len(bands)))] if len(bands) > 1 else bands[0]
        return now + (lo if lo == hi else int(rng.integers(lo, hi + 1)))

    def push_range(
        self,
        region,
        start: int,
        values: Optional[np.ndarray],
        now: int,
    ) -> PendingStore:
        """Retire a contiguous store into the buffer."""
        entry = PendingStore(
            region, start, None, values, self._seq, self._ready_time(now)
        )
        self._seq += 1
        self._entries.append(entry)
        self.pushes += 1
        self.max_depth = max(self.max_depth, len(self._entries))
        return entry

    def push_scatter(
        self, region, indices: np.ndarray, values: np.ndarray, now: int
    ) -> PendingStore:
        """Retire an indexed store into the buffer."""
        entry = PendingStore(
            region, None, np.asarray(indices, dtype=np.int64),
            values, self._seq, self._ready_time(now),
        )
        self._seq += 1
        self._entries.append(entry)
        self.pushes += 1
        self.max_depth = max(self.max_depth, len(self._entries))
        return entry

    # -- drain policy ------------------------------------------------------

    def next_entry(self) -> Optional[PendingStore]:
        """The entry the drain should commit next, or None when empty.

        FIFO ordering always nominates the head. Relaxed ordering
        nominates the *eligible* entry (no earlier conflicting entry,
        preserving per-location program order) with the earliest
        ``ready_time``, breaking ties by program order.
        """
        if not self._entries:
            return None
        if self.ordering == "fifo":
            return self._entries[0]
        best = None
        for i, entry in enumerate(self._entries):
            if any(self._entries[j].conflicts(entry) for j in range(i)):
                continue
            if best is None or (entry.ready_time, entry.seq) < (
                best.ready_time, best.seq
            ):
                best = entry
        return best

    def is_oldest_conflicting(self, entry: PendingStore) -> bool:
        """Would committing ``entry`` now preserve per-location FIFO?

        True iff no earlier pending entry touches overlapping elements —
        the CoWW/coherence-order invariant the checker enforces on every
        commit, under both orderings.
        """
        for other in self._entries:
            if other.seq >= entry.seq:
                return True
            if other.conflicts(entry):
                return False
        return True

    def remove(self, entry: PendingStore) -> None:
        """Drop a committed entry; fires empty callbacks when drained dry."""
        self._entries.remove(entry)
        self.commits += 1
        if not self._entries:
            callbacks, self._empty_callbacks = self._empty_callbacks, []
            for callback in callbacks:
                callback()

    def on_empty(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the buffer next drains dry (now if empty)."""
        if not self._entries:
            callback()
        else:
            self._empty_callbacks.append(callback)

    # -- read-own-write forwarding ----------------------------------------

    def has_pending_for(self, region) -> bool:
        for entry in self._entries:
            if entry.region is region:
                return True
        return False

    def apply_pending(
        self, region, start: int, stop: int, base: np.ndarray
    ) -> np.ndarray:
        """``base`` (committed values of [start, stop)) with this
        processor's pending stores applied in program order — the value
        a TSO/PC load must return (read-own-write forwarding). Returns
        ``base`` itself when nothing overlaps; a copy otherwise."""
        out = base
        for entry in self._entries:
            if entry.region is not region or entry.values is None:
                continue
            if entry.indices is None:
                lo = max(start, entry.start)
                hi = min(stop, entry.start + entry.values.size)
                if lo >= hi:
                    continue
                if out is base:
                    out = base.copy()
                out[lo - start:hi - start] = entry.values[
                    lo - entry.start:hi - entry.start
                ]
                self.forwards += 1
            else:
                mask = (entry.indices >= start) & (entry.indices < stop)
                if not mask.any():
                    continue
                if out is base:
                    out = base.copy()
                out[entry.indices[mask] - start] = entry.values[mask]
                self.forwards += 1
        return out

    def apply_pending_gather(
        self, region, indices: np.ndarray, base: np.ndarray
    ) -> np.ndarray:
        """Gather-read variant of :meth:`apply_pending`."""
        out = base
        indices = np.asarray(indices, dtype=np.int64)
        for entry in self._entries:
            if entry.region is not region or entry.values is None:
                continue
            if entry.indices is None:
                mask = (indices >= entry.start) & (
                    indices < entry.start + entry.values.size
                )
                if not mask.any():
                    continue
                if out is base:
                    out = base.copy()
                out[mask] = entry.values[indices[mask] - entry.start]
                self.forwards += 1
            else:
                # Apply the scatter's writes in their own order so the
                # last write to a repeated index wins.
                hit = False
                for j, idx in enumerate(entry.indices):
                    where = indices == idx
                    if where.any():
                        if out is base:
                            out = base.copy()
                        out[where] = entry.values[j]
                        hit = True
                if hit:
                    self.forwards += 1
        return out
