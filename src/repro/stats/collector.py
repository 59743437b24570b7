"""Per-processor cycle and event accounting.

Attribution works through two orthogonal mechanisms:

* **Contexts** remap base categories while active. Entering library code
  on the message-passing machine remaps COMPUTE -> LIB_COMPUTE and
  LOCAL_MISS -> LIB_MISS (the paper's "Lib Comp" / "Lib Misses" rows);
  entering synchronization code on the shared-memory machine remaps
  COMPUTE -> SYNC_COMPUTE and miss categories -> SYNC_MISS.
* **Phases** accumulate parallel per-phase totals: the EM3D tables report
  initialization and main loop separately; the Gauss table groups
  collective time under "Broadcast/Reduction".

Counts (misses, messages, bytes, ...) are plain named counters.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional


def _tally() -> Dict[object, int]:
    """One phase's accumulator; a module-level factory (not a lambda), so
    a board pickles and a side's result can leave its worker."""
    return defaultdict(int)


class ProcStats:
    """Cycle categories, event counters, and phase totals for one processor."""

    def __init__(
        self,
        pid: int,
        remaps: Optional[Mapping[str, Mapping[object, object]]] = None,
    ) -> None:
        self.pid = pid
        self.cycles: Dict[object, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.phase_cycles: Dict[str, Dict[object, int]] = defaultdict(_tally)
        self.phase_counts: Dict[str, Dict[str, int]] = defaultdict(_tally)
        self._remaps: Dict[str, Mapping[object, object]] = dict(remaps or {})
        self._context_stack: List[str] = []
        self._phase_stack: List[str] = []
        # Inner accumulator dicts of the active phases, cached so the
        # per-charge loop skips the outer phase_cycles/phase_counts
        # lookups. Maintained by push_phase/pop_phase.
        self._phase_cycle_maps: List[Dict[object, int]] = []
        self._phase_count_maps: List[Dict[str, int]] = []

    # -- contexts ---------------------------------------------------------

    def push_context(self, name: str) -> None:
        """Enter an attribution context (must be a registered remap name)."""
        if name not in self._remaps:
            raise KeyError(f"unknown stats context {name!r}")
        self._context_stack.append(name)

    def pop_context(self, expected: Optional[str] = None) -> None:
        """Leave the innermost context; ``expected`` catches mismatched nesting."""
        if not self._context_stack:
            wanted = f" (expected {expected!r})" if expected is not None else ""
            raise RuntimeError(
                f"p{self.pid}: pop_context{wanted} with no context active"
            )
        top = self._context_stack[-1]
        if expected is not None and top != expected:
            raise RuntimeError(
                f"p{self.pid}: pop_context expected {expected!r} "
                f"but innermost context is {top!r}"
            )
        self._context_stack.pop()

    def context(self, name: str) -> "_ContextScope":
        """``with stats.context("lib"):`` — safe across generator yields."""
        return _ContextScope(self, name)

    @property
    def active_contexts(self) -> Iterable[str]:
        return tuple(self._context_stack)

    # -- phases -----------------------------------------------------------

    def push_phase(self, name: str) -> None:
        self._phase_stack.append(name)
        self._phase_cycle_maps.append(self.phase_cycles[name])
        self._phase_count_maps.append(self.phase_counts[name])

    def pop_phase(self, expected: Optional[str] = None) -> None:
        """Leave the innermost phase; ``expected`` catches mismatched nesting."""
        if not self._phase_stack:
            wanted = f" (expected {expected!r})" if expected is not None else ""
            raise RuntimeError(
                f"p{self.pid}: pop_phase{wanted} with no phase active"
            )
        top = self._phase_stack[-1]
        if expected is not None and top != expected:
            raise RuntimeError(
                f"p{self.pid}: pop_phase expected {expected!r} "
                f"but innermost phase is {top!r}"
            )
        self._phase_stack.pop()
        self._phase_cycle_maps.pop()
        self._phase_count_maps.pop()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self.push_phase(name)
        try:
            yield
        finally:
            self.pop_phase(expected=name)

    @property
    def current_phase(self) -> Optional[str]:
        return self._phase_stack[-1] if self._phase_stack else None

    # -- charging ---------------------------------------------------------

    def _resolve(self, category: object) -> object:
        for name in reversed(self._context_stack):
            remap = self._remaps[name]
            if category in remap:
                return remap[category]
        return category

    def charge(self, category: object, cycles: int) -> None:
        """Add cycles under ``category``, remapped by the active context."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        if cycles == 0:
            return
        resolved = self._resolve(category) if self._context_stack else category
        self.cycles[resolved] += cycles
        for phase_map in self._phase_cycle_maps:
            phase_map[resolved] += cycles

    def charge_raw(self, category: object, cycles: int) -> None:
        """Add cycles under ``category`` exactly, bypassing context remaps."""
        if cycles < 0:
            raise ValueError(f"negative charge: {cycles}")
        if cycles == 0:
            return
        self.cycles[category] += cycles
        for phase_map in self._phase_cycle_maps:
            phase_map[category] += cycles

    def count(self, key: str, amount: int = 1) -> None:
        """Bump a named event counter."""
        self.counts[key] += amount
        for phase_map in self._phase_count_maps:
            phase_map[key] += amount

    # -- summaries --------------------------------------------------------

    def total_cycles(self) -> int:
        """Sum over every category (the tables' Total row)."""
        return sum(self.cycles.values())


class _ContextScope:
    """The context manager of :meth:`ProcStats.context`.

    A slotted class rather than ``@contextmanager``: MP library calls and
    SM lock operations enter one per call. ``push_context`` and
    ``pop_context`` are looked up on the stats object at entry and exit,
    so per-instance rebinding (the tracer's) still sees every push/pop.
    """

    __slots__ = ("_stats", "_name")

    def __init__(self, stats: ProcStats, name: str) -> None:
        self._stats = stats
        self._name = name

    def __enter__(self) -> None:
        self._stats.push_context(self._name)

    def __exit__(self, *exc_info: object) -> None:
        self._stats.pop_context(expected=self._name)


class StatsBoard:
    """Aggregates the per-processor stats of one machine run.

    The paper reports "an average over all processors" for every cycle
    category; :meth:`mean_cycles` is that number.
    """

    def __init__(self, procs: List[ProcStats]) -> None:
        if not procs:
            raise ValueError("a StatsBoard needs at least one processor")
        self.procs = procs

    @property
    def num_procs(self) -> int:
        return len(self.procs)

    def mean_cycles(self, category: object, phase: Optional[str] = None) -> float:
        """Average cycles per processor for one category (optionally a phase)."""
        if phase is None:
            return sum(p.cycles.get(category, 0) for p in self.procs) / self.num_procs
        return (
            sum(p.phase_cycles.get(phase, {}).get(category, 0) for p in self.procs)
            / self.num_procs
        )

    def mean_total(self, phase: Optional[str] = None) -> float:
        """Average per-processor total cycles (the tables' Total row)."""
        if phase is None:
            return sum(p.total_cycles() for p in self.procs) / self.num_procs
        return (
            sum(sum(p.phase_cycles.get(phase, {}).values()) for p in self.procs)
            / self.num_procs
        )

    def mean_count(self, key: str, phase: Optional[str] = None) -> float:
        """Average per-processor value of a named counter."""
        if phase is None:
            return sum(p.counts.get(key, 0) for p in self.procs) / self.num_procs
        return (
            sum(p.phase_counts.get(phase, {}).get(key, 0) for p in self.procs)
            / self.num_procs
        )

    def total_count(self, key: str) -> int:
        """Sum of a counter over all processors."""
        return sum(p.counts.get(key, 0) for p in self.procs)

    def categories(self) -> List[object]:
        """Every category charged on any processor, in first-seen order."""
        seen: Dict[object, None] = {}
        for proc in self.procs:
            for category in proc.cycles:
                seen.setdefault(category, None)
        return list(seen)
