"""Pair studies: run both versions of an application and compare.

A :class:`PairResult` holds the two runs' breakdowns and event counts
and computes the paper's comparative metrics ("Relative to Shared
Memory" / "Relative to Message Passing").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.breakdown import MpBreakdown, MpCounts, SmBreakdown, SmCounts

if TYPE_CHECKING:  # annotations only: records load without the simulator
    from repro.mp.machine import MpRunResult
    from repro.sm.machine import SmRunResult


@dataclass
class PairResult:
    """Both sides of one application comparison."""

    name: str
    mp_result: MpRunResult
    sm_result: SmRunResult
    phases: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def mp_breakdown(self, phase: Optional[str] = None) -> MpBreakdown:
        return MpBreakdown.from_board(self.mp_result.board, phase=phase)

    def sm_breakdown(self, phase: Optional[str] = None) -> SmBreakdown:
        return SmBreakdown.from_board(self.sm_result.board, phase=phase)

    def mp_counts(self, phase: Optional[str] = None) -> MpCounts:
        return MpCounts.from_board(self.mp_result.board, phase=phase)

    def sm_counts(self, phase: Optional[str] = None) -> SmCounts:
        return SmCounts.from_board(self.sm_result.board, phase=phase)

    @property
    def mp_total(self) -> float:
        return self.mp_breakdown().total

    @property
    def sm_total(self) -> float:
        return self.sm_breakdown().total

    @property
    def mp_relative_to_sm(self) -> float:
        """The MP table's footer: MP total / SM total (paper: 0.98 etc.)."""
        if self.sm_total == 0:
            return float("inf")
        return self.mp_total / self.sm_total

    @property
    def sm_relative_to_mp(self) -> float:
        """The SM table's footer: SM total / MP total (paper: 1.02 etc.)."""
        if self.mp_total == 0:
            return float("inf")
        return self.sm_total / self.mp_total
