"""Named metric extraction from serializable run summaries.

A :class:`~repro.runner.record.RunRecord` carries a JSON-safe
``summary`` (breakdowns, counts, and ratios for pair experiments). The
sweep engine — and anything else that post-processes records without
re-simulating — pulls scalar metrics out of those summaries by *name*
through this registry, so a sweep spec can say ``metrics=("sm_total",
"sm_over_mp")`` and stay declarative and serializable.

Every metric function takes a summary mapping and returns a float;
metrics that need a quantity the summary does not carry raise
``ValueError`` (e.g. asking a pair metric of a scalars-only summary).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.runner.config import unknown

MetricFn = Callable[[Mapping[str, Any]], float]


def _pair(summary: Mapping[str, Any]) -> Mapping[str, Any]:
    if summary.get("kind") != "pair":
        raise ValueError(
            f"metric needs a pair summary, got kind={summary.get('kind')!r}"
        )
    return summary


def _overall(summary: Mapping[str, Any], side: str) -> Mapping[str, float]:
    return _pair(summary)[side]["overall"]


def _phase(summary: Mapping[str, Any], side: str, phase: str) -> Mapping[str, float]:
    phases = _pair(summary)[side]["phases"]
    if phase not in phases:
        raise ValueError(f"summary has no {side} phase {phase!r}: {sorted(phases)}")
    return phases[phase]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# The registry. Totals are average per-processor cycles (the paper's
# table rows); shares are fractions of the side's total; ratios are the
# paper's "Relative to ..." footers.
# ---------------------------------------------------------------------------

METRICS: Dict[str, MetricFn] = {
    "mp_total": lambda s: _overall(s, "mp")["total"],
    "sm_total": lambda s: _overall(s, "sm")["total"],
    "mp_over_sm": lambda s: float(_pair(s)["mp_relative_to_sm"]),
    "sm_over_mp": lambda s: float(_pair(s)["sm_relative_to_mp"]),
    "mp_compute_share": lambda s: _share(
        _overall(s, "mp")["computation"], _overall(s, "mp")["total"]
    ),
    "mp_comm_share": lambda s: _share(
        _overall(s, "mp")["communication"], _overall(s, "mp")["total"]
    ),
    "mp_barrier_share": lambda s: _share(
        _overall(s, "mp")["barriers"], _overall(s, "mp")["total"]
    ),
    "sm_compute_share": lambda s: _share(
        _overall(s, "sm")["computation"], _overall(s, "sm")["total"]
    ),
    "sm_data_access_share": lambda s: _share(
        _overall(s, "sm")["data_access"], _overall(s, "sm")["total"]
    ),
    "sm_sync_share": lambda s: _share(
        _overall(s, "sm")["synchronization"], _overall(s, "sm")["total"]
    ),
    "sm_main_total": lambda s: _phase(s, "sm", "main")["total"],
    "mp_main_total": lambda s: _phase(s, "mp", "main")["total"],
    "sm_shared_misses": lambda s: _pair(s)["sm_counts"]["shared_misses"],
    "sm_private_misses": lambda s: _pair(s)["sm_counts"]["private_misses"],
    "sm_remote_fraction": lambda s: _pair(s)["sm_counts"]["remote_fraction"],
    "mp_bytes": lambda s: _pair(s)["mp_counts"]["bytes_transmitted"],
    "sm_bytes": lambda s: _pair(s)["sm_counts"]["bytes_transmitted"],
    "mp_intensity": lambda s: _pair(s)["mp_counts"]["comp_cycles_per_data_byte"],
    "sm_intensity": lambda s: _pair(s)["sm_counts"]["comp_cycles_per_data_byte"],
}


def metric_names() -> Sequence[str]:
    """Every registered metric name, sorted."""
    return sorted(METRICS)


def resolve_metric(
    name: str, extra: Optional[Mapping[str, MetricFn]] = None
) -> MetricFn:
    """Look one metric up, with a did-you-mean error on a typo."""
    if extra and name in extra:
        return extra[name]
    if name in METRICS:
        return METRICS[name]
    raise unknown("metric", name, set(METRICS) | set(extra or ()))


def derive_metrics(
    summary: Mapping[str, Any],
    names: Sequence[str],
    extra: Optional[Mapping[str, MetricFn]] = None,
) -> Dict[str, float]:
    """Extract ``names`` from one record summary, in order.

    ``extra`` supplies sweep-local metric functions that shadow or
    extend the registry (e.g. a custom scalar pulled out of a
    non-pair experiment's summary).
    """
    return {
        name: float(resolve_metric(name, extra)(summary)) for name in names
    }
