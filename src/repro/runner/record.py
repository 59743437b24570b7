"""Serializable run records.

A :class:`RunRecord` is the durable outcome of one experiment run: the
paper-style rendered tables, the shape-check verdicts, a structured
metric summary (breakdown and count categories per phase), and the
wall time. Records are plain JSON-safe data — they cross process
boundaries from worker to parent, live in the on-disk cache, and are
enough to re-print, score, and export a run without re-simulating.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.study import PairResult

#: Bump when the record layout changes; stored records with another
#: schema are treated as cache misses.
RECORD_SCHEMA = 1


@dataclass
class RunRecord:
    """One experiment run, reduced to serializable facts."""

    exp_id: str
    title: str
    paper_tables: str
    cache_key: str
    config: Dict[str, Any]
    elapsed_seconds: float
    checks: List[List[Any]]  # [name, ok, detail]
    rendered: str
    summary: Dict[str, Any]
    notes: str = ""
    #: Path of the Chrome-trace JSON attached by ``repro trace`` ("" when
    #: the run has never been traced). Additive: from_jsonable defaults
    #: it for records stored before tracing existed.
    trace_path: str = ""
    #: Machine preset the run resolved its parameter table from. The
    #: canonical config deliberately omits it (two spellings of the same
    #: machine share a cache key), so the record carries it as run
    #: provenance for the lake. Additive like ``trace_path``: records
    #: stored before the lake existed default to "" and the lake infers
    #: the preset by matching the resolved machine parameters.
    preset: str = ""
    schema: int = RECORD_SCHEMA
    cached: bool = field(default=False, compare=False)

    @property
    def all_ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)

    def to_jsonable(self) -> Dict[str, Any]:
        data = asdict(self)
        data.pop("cached")  # a load-time annotation, not a stored fact
        return data

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "RunRecord":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})


# ---------------------------------------------------------------------------
# Building records from live results.
# ---------------------------------------------------------------------------


def _finite(value: float) -> float:
    """JSON has no Infinity; clamp the intensity metric's inf."""
    if value != value or value in (float("inf"), float("-inf")):
        return -1.0
    return float(value)


def _breakdown_dict(breakdown: Any) -> Dict[str, float]:
    out = {k: float(v) for k, v in asdict(breakdown).items()}
    for prop in ("communication", "data_access", "synchronization", "total"):
        if hasattr(breakdown, prop):
            out[prop] = float(getattr(breakdown, prop))
    return out


def _counts_dict(counts: Any) -> Dict[str, float]:
    out = {k: float(v) for k, v in asdict(counts).items()}
    for prop in (
        "shared_misses",
        "bytes_transmitted",
        "comp_cycles_per_data_byte",
        "remote_fraction",
    ):
        if hasattr(counts, prop):
            out[prop] = _finite(getattr(counts, prop))
    return out


def _summarize_pair(pair: PairResult) -> Dict[str, Any]:
    phases = list(pair.phases)
    summary: Dict[str, Any] = {
        "kind": "pair",
        "name": pair.name,
        "phases": phases,
        "mp": {
            "overall": _breakdown_dict(pair.mp_breakdown()),
            "phases": {p: _breakdown_dict(pair.mp_breakdown(phase=p)) for p in phases},
        },
        "sm": {
            "overall": _breakdown_dict(pair.sm_breakdown()),
            "phases": {p: _breakdown_dict(pair.sm_breakdown(phase=p)) for p in phases},
        },
        "mp_counts": _counts_dict(pair.mp_counts()),
        "sm_counts": _counts_dict(pair.sm_counts()),
        "mp_relative_to_sm": _finite(pair.mp_relative_to_sm),
        "sm_relative_to_mp": _finite(pair.sm_relative_to_mp),
        "extra": {
            k: v
            for k, v in pair.extra.items()
            if isinstance(v, (int, float, str, bool))
        },
    }
    return summary


def _scalars(value: Any) -> Any:
    """JSON-safe projection of a scalar-dict result (drop machine runs)."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if hasattr(item, "board"):
                continue  # raw machine results; the checks summarize them
            out[str(key)] = _scalars(item)
        return out
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def summarize_result(result: Any) -> Dict[str, Any]:
    """Reduce a runner's raw result to a JSON-safe summary."""
    if isinstance(result, PairResult):
        return _summarize_pair(result)
    if isinstance(result, dict):
        return {"kind": "scalars", "data": _scalars(result)}
    return {"kind": "opaque", "repr": repr(result)}


def render_result(spec: Any, result: Any) -> str:
    """The human-readable body the CLI prints (tables or scalar lines).

    Rendered once, at run time, and stored in the record so cache hits
    reproduce the exact output without touching a simulator.
    """
    from repro.core.tables import render_pair

    if isinstance(result, PairResult):
        return render_pair(result, phases=bool(result.phases))
    if isinstance(result, dict):
        lines = []
        for key, value in result.items():
            if hasattr(value, "board"):
                continue
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)
    return f"  {result!r}"


def build_record(
    spec: Any,
    config: Any,
    result: Any,
    elapsed_seconds: float,
    baselines: Sequence[Any] = (),
    key: Optional[str] = None,
) -> RunRecord:
    """Assemble the serializable record for one finished run.

    ``baselines`` are the raw results of the runs ``spec.after`` names,
    in that order (:func:`repro.runner.api.baselines`); the shape checks
    compare ``result`` against them.
    """
    from repro.runner.cache import cache_key

    checks = [
        [name, bool(ok), detail] for name, ok, detail in spec.shape(result, *baselines)
    ]
    # Claims pinned to the paper's 1994 machine gate only the paper
    # preset; under the modern presets they are recorded as waived, not
    # failed (the detail keeps the measured numbers for the artifact
    # trail).
    preset = getattr(config, "preset", "paper")
    if preset != "paper":
        waived = set(getattr(spec, "paper_only", ()))
        checks = [
            [name, True, f"waived under preset={preset!r}: {detail}"]
            if name in waived else [name, ok, detail]
            for name, ok, detail in checks
        ]
    return RunRecord(
        exp_id=spec.id,
        title=spec.title,
        paper_tables=spec.paper_tables,
        cache_key=key if key is not None else cache_key(config),
        config=config.to_jsonable(),
        elapsed_seconds=float(elapsed_seconds),
        checks=checks,
        rendered=render_result(spec, result),
        summary=summarize_result(result),
        notes=spec.notes,
        preset=preset,
    )
