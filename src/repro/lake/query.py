"""Queries over the run lake (``repro query`` / ``api.query()``).

A query is: equality filters over the provenance columns
(app/backend/consistency/preset/salt), a metric column list, and the
freshness rule — stale-salt rows are **excluded by default** (the
shared :func:`repro.runner.cache.record_is_fresh` decision, recomputed
at query time) and only appear under ``all_salts=True``, tagged with
their salt so cross-version comparison is explicit, never accidental.

:func:`pivot` reshapes filtered rows into the paper's comparison form:
one metric spread across the distinct values of one column, e.g. EM3D
``sm_over_mp`` under the paper vs multicore vs cluster presets — pure
lake arithmetic, zero re-simulation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.lake.store import RunLake
from repro.runner.config import suggest

#: Provenance columns shown before the metric columns.
RUN_COLUMNS = (
    "exp_id",
    "backend",
    "consistency",
    "preset",
    "procs",
    "salt",
    "fresh",
)

#: The default metric columns: the paper's headline comparison.
DEFAULT_METRICS = ("mp_total", "sm_total", "sm_over_mp")

#: Columns a pivot may spread a metric across.
PIVOT_COLUMNS = ("backend", "consistency", "preset", "salt", "procs", "exp_id")


@dataclass(frozen=True)
class QueryFilters:
    """Equality filters for one lake query (None = no constraint)."""

    app: Optional[str] = None  # exp_id
    backend: Optional[str] = None
    consistency: Optional[str] = None
    preset: Optional[str] = None
    salt: Optional[str] = None
    all_salts: bool = False
    metrics: Tuple[str, ...] = field(default=DEFAULT_METRICS)


def _open(lake: Union[RunLake, str, os.PathLike, None]) -> Tuple[RunLake, bool]:
    if isinstance(lake, RunLake):
        return lake, False
    return RunLake(lake), True


def available_metrics(lake: Union[RunLake, str, os.PathLike, None] = None) -> List[str]:
    """Every metric name any lake row carries, sorted."""
    opened, owned = _open(lake)
    try:
        rows = opened.connection.execute(
            "SELECT DISTINCT name FROM metrics ORDER BY name"
        ).fetchall()
        return [row["name"] for row in rows]
    finally:
        if owned:
            opened.close()


def query_runs(
    lake: Union[RunLake, str, os.PathLike, None] = None,
    filters: Optional[QueryFilters] = None,
) -> List[Dict[str, Any]]:
    """Filtered run rows: provenance columns + the requested metrics.

    Metric names are validated against the union of the registry and
    what the lake actually holds, with a did-you-mean error on typos.
    Rows missing a requested metric carry ``None`` for it (e.g. a pair
    metric asked of a scalars-only experiment).
    """
    filters = filters or QueryFilters()
    opened, owned = _open(lake)
    try:
        known = _known_metrics(opened)
        for name in filters.metrics:
            if known and name not in known:
                raise ValueError(
                    f"unknown metric {name!r}{suggest(name, known)}; "
                    f"known: {known}"
                )
        where, params = _where_clause(filters)
        out: List[Dict[str, Any]] = []
        for row in opened.run_rows(where, params):
            if not filters.all_salts and not row["fresh"]:
                continue
            slim: Dict[str, Any] = {c: row.get(c) for c in RUN_COLUMNS}
            for name in filters.metrics:
                slim[name] = row.get(name)
            out.append(slim)
        return out
    finally:
        if owned:
            opened.close()


def _known_metrics(lake: RunLake) -> List[str]:
    from repro.stats.metrics import METRICS

    names = set(METRICS)
    names.update(available_metrics(lake))
    return sorted(names)


def _where_clause(filters: QueryFilters) -> Tuple[str, List[Any]]:
    clauses: List[str] = []
    params: List[Any] = []
    for column, value in (
        ("exp_id", filters.app),
        ("backend", filters.backend),
        ("consistency", filters.consistency),
        ("preset", filters.preset),
        ("salt", filters.salt),
    ):
        if value is not None:
            clauses.append(f"{column} = ?")
            params.append(value)
    return " AND ".join(clauses), params


def pivot(
    rows: Sequence[Dict[str, Any]],
    column: str,
    metric: str,
    index: Sequence[str] = ("exp_id",),
) -> List[Dict[str, Any]]:
    """Spread ``metric`` across the distinct values of ``column``.

    ``pivot(rows, "preset", "sm_over_mp")`` yields one row per
    ``exp_id`` with a column per preset — the cross-preset comparison
    the ISSUE's acceptance criterion names. When several input rows
    land in one cell (e.g. multiple procs), the cell keeps the last
    row's value; filter tighter for a unique cell.
    """
    if column not in PIVOT_COLUMNS:
        raise ValueError(
            f"cannot pivot on {column!r}{suggest(column, PIVOT_COLUMNS)}; "
            f"pivotable: {sorted(PIVOT_COLUMNS)}"
        )
    spread = sorted(
        {row.get(column) for row in rows if row.get(column) is not None},
        key=str,
    )
    cells: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    for row in rows:
        key = tuple(row.get(c) for c in index)
        cell = cells.setdefault(key, {c: row.get(c) for c in index})
        value = row.get(metric)
        if row.get(column) is not None and value is not None:
            cell[str(row[column])] = value
    out = []
    for key in sorted(cells, key=str):
        cell = cells[key]
        for name in spread:
            cell.setdefault(str(name), None)
        out.append(cell)
    return out


def render_rows(rows: Sequence[Dict[str, Any]]) -> str:
    """Fixed-width table of query rows (the CLI's human output)."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    for row in rows[1:]:
        for name in row:
            if name not in columns:
                columns.append(name)
    widths = {
        c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows))
        for c in columns
    }
    header = "  ".join(f"{c:>{widths[c]}}" for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(f"{_fmt(row.get(c)):>{widths[c]}}" for c in columns)
        )
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Dict[str, Any]]) -> str:
    """RFC-4180-ish CSV of query rows."""
    import csv
    import io

    if not rows:
        return ""
    columns = list(rows[0])
    for row in rows[1:]:
        for name in row:
            if name not in columns:
                columns.append(name)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)
