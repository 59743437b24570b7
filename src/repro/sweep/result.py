"""Serializable sweep results (JSON + CSV artifacts).

A :class:`SweepResult` is the durable outcome of one sweep: the grid's
axis coordinates, each point's derived metrics and cache key, the
crossover verdicts, and the sweep-level shape checks. Everything is
plain JSON-safe data — re-printable, exportable, and comparable
without touching a simulator. Timing and cache-hit accounting live
under ``meta``: two runs of the same grid (one interrupted and rerun,
or not) produce identical results outside ``meta``.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the result layout changes.
SWEEP_SCHEMA = 1


@dataclass
class SweepResult:
    """One finished sweep, reduced to serializable facts."""

    spec_name: str
    exp_id: str
    description: str
    #: Ordered [axis, [values...]] pairs, as swept.
    axes: List[List[Any]]
    metrics: List[str]
    #: Grid-ordered points: {"coords", "cache_key", "metrics"}.
    points: List[Dict[str, Any]]
    crossovers: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[List[Any]] = field(default_factory=list)  # [name, ok, detail]
    #: Timing/accounting only — excluded from result identity.
    meta: Dict[str, Any] = field(default_factory=dict, compare=False)
    schema: int = SWEEP_SCHEMA

    @property
    def all_ok(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)

    @property
    def axis_names(self) -> List[str]:
        return [axis for axis, _values in self.axes]

    # -- series extraction -------------------------------------------------

    def series(
        self, metric: str, where: Optional[Dict[str, Any]] = None
    ) -> Tuple[List[Any], List[float]]:
        """``(xs, ys)`` of one metric along the first axis.

        For two-axis sweeps pass ``where={second_axis: value}`` to pick
        a row; with no filter the whole grid must be one-dimensional.
        """
        primary = self.axis_names[0]
        xs: List[Any] = []
        ys: List[float] = []
        for point in self.points:
            coords = point["coords"]
            if where and any(coords.get(k) != v for k, v in where.items()):
                continue
            if len(coords) > 1 and not where:
                raise ValueError(
                    f"sweep {self.spec_name!r} has axes {self.axis_names}; "
                    "pass where={axis: value} to select a row"
                )
            xs.append(coords[primary])
            ys.append(point["metrics"][metric])
        return xs, ys

    def rows(self) -> List[Dict[str, Any]]:
        """Flat rows (axis columns + metric columns), grid order."""
        out = []
        for point in self.points:
            row: Dict[str, Any] = dict(point["coords"])
            row.update(point["metrics"])
            out.append(row)
        return out

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "SweepResult":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_csv(self) -> str:
        """RFC-4180-ish CSV: axis columns then metric columns."""
        import csv

        columns = self.axis_names + list(self.metrics)
        extra = [
            key
            for row in self.rows()
            for key in row
            if key not in columns
        ]
        for key in extra:  # derived metrics not in the declared list
            if key not in columns:
                columns.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)
        return buffer.getvalue()

    # -- rendering ---------------------------------------------------------

    def render_table(self) -> str:
        """Fixed-width point table (the CLI's summary block)."""
        columns = self.axis_names + _metric_columns(self)
        widths = {
            c: max(len(c), max((len(_fmt(r.get(c))) for r in self.rows()),
                               default=0))
            for c in columns
        }
        header = "  ".join(f"{c:>{widths[c]}}" for c in columns)
        lines = [header, "-" * len(header)]
        for row in self.rows():
            lines.append(
                "  ".join(f"{_fmt(row.get(c)):>{widths[c]}}" for c in columns)
            )
        return "\n".join(lines)


def _metric_columns(result: SweepResult) -> List[str]:
    columns = list(result.metrics)
    for row in result.rows():
        for key in row:
            if key not in columns and key not in result.axis_names:
                columns.append(key)
    return columns


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)

