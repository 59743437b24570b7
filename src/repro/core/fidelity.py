"""Fidelity scorecard: how close is the reproduction to the paper?

For each application pair, compares the scale-stable quantities — the
category *shares* of each program's total and the MP/SM ratio — against
the paper's tables (:mod:`repro.core.paper_data`), reporting absolute
errors in percentage points. ``python -m repro fidelity`` prints the
scorecard.

Built on the runner harness: the shares come from each pair's
serializable :class:`~repro.runner.record.RunRecord` summary, so a
warm on-disk cache serves the whole scorecard without a single
simulation.

This is the reproduction's honest self-assessment: a share error of a
few points means the scaled run tells the paper's story; tens of points
would mean it does not. The EM3D SM/MP ratio is the known soft spot
(see the experiment's note in the registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core import paper_data
from repro.runner.api import record_for
from repro.runner.cache import ResultCache
from repro.runner.record import RunRecord

#: experiment id -> paper_data key for the pair experiments.
PAIR_KEYS = {
    "mse": "mse",
    "gauss": "gauss",
    "em3d": "em3d_total",
    "lcp": "lcp",
    "alcp": "alcp",
}


@dataclass(frozen=True)
class FidelityRow:
    """One compared quantity."""

    experiment: str
    metric: str
    paper: float  # percent (share) or ratio x100
    measured: float

    @property
    def abs_error(self) -> float:
        """Absolute error in percentage points."""
        return abs(self.paper - self.measured)


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def assess_pair(
    exp_id: str,
    record: Optional[RunRecord] = None,
    cache: Optional[ResultCache] = None,
) -> List[FidelityRow]:
    """Fidelity rows for one application pair.

    Works from the experiment's run record (cached or freshly run);
    pass ``record`` to score an already-available result.
    """
    key = PAIR_KEYS[exp_id]
    if record is None:
        record = record_for(exp_id, cache=cache)
    summary = record.summary
    if summary.get("kind") != "pair":
        raise ValueError(f"{exp_id} is not a pair experiment")
    paper_mp = paper_data.MP_BREAKDOWNS[key]
    paper_sm = paper_data.SM_BREAKDOWNS[key]
    mine_mp = summary["mp"]["overall"]
    mine_sm = summary["sm"]["overall"]
    rows = [
        FidelityRow(exp_id, "MP computation share",
                    _share(paper_mp.computation, paper_mp.total),
                    _share(mine_mp["computation"], mine_mp["total"])),
        FidelityRow(exp_id, "MP local-miss share",
                    _share(paper_mp.local_misses, paper_mp.total),
                    _share(mine_mp["local_misses"], mine_mp["total"])),
        FidelityRow(exp_id, "MP communication share",
                    _share(paper_mp.communication, paper_mp.total),
                    _share(mine_mp["communication"], mine_mp["total"])),
        FidelityRow(exp_id, "SM computation share",
                    _share(paper_sm.computation, paper_sm.total),
                    _share(mine_sm["computation"], mine_sm["total"])),
        FidelityRow(exp_id, "SM data-access share",
                    _share(paper_sm.cache_misses, paper_sm.total),
                    _share(mine_sm["data_access"], mine_sm["total"])),
        FidelityRow(exp_id, "SM synchronization share",
                    _share(paper_sm.synchronization, paper_sm.total),
                    _share(mine_sm["synchronization"], mine_sm["total"])),
    ]
    if paper_mp.relative_to_sm is not None:
        rows.append(
            FidelityRow(exp_id, "MP relative to SM",
                        100.0 * paper_mp.relative_to_sm,
                        100.0 * summary["mp_relative_to_sm"])
        )
    return rows


def assess_all(cache: Optional[ResultCache] = None) -> List[FidelityRow]:
    """Fidelity rows for every pair experiment, in registry order."""
    rows: List[FidelityRow] = []
    for exp_id in PAIR_KEYS:
        rows.extend(assess_pair(exp_id, cache=cache))
    return rows


def summarize(rows: List[FidelityRow]) -> Dict[str, float]:
    """Aggregate statistics over a set of fidelity rows."""
    if not rows:
        raise ValueError("no rows to summarize")
    errors = sorted(row.abs_error for row in rows)
    return {
        "rows": float(len(errors)),
        "mean_abs_error_pp": sum(errors) / len(errors),
        "median_abs_error_pp": errors[len(errors) // 2],
        "max_abs_error_pp": errors[-1],
        "within_10pp": sum(1 for e in errors if e <= 10.0) / len(errors),
    }


def render_scorecard(rows: List[FidelityRow]) -> str:
    """ASCII scorecard of paper-vs-measured shares."""
    lines = [
        "Fidelity scorecard: category shares, paper (32p) vs. scaled run",
        "-" * 72,
        f"{'experiment':<12}{'metric':<28}{'paper':>8}{'run':>8}{'|err|':>8}",
        "-" * 72,
    ]
    for row in rows:
        lines.append(
            f"{row.experiment:<12}{row.metric:<28}"
            f"{row.paper:>7.0f}%{row.measured:>7.0f}%"
            f"{row.abs_error:>7.1f}p"
        )
    stats = summarize(rows)
    lines += [
        "-" * 72,
        f"mean |error| {stats['mean_abs_error_pp']:.1f}pp, "
        f"median {stats['median_abs_error_pp']:.1f}pp, "
        f"max {stats['max_abs_error_pp']:.1f}pp, "
        f"{100 * stats['within_10pp']:.0f}% of rows within 10pp",
    ]
    return "\n".join(lines)
