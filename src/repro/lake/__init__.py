"""The queryable run lake (sqlite, stdlib-only, append-only).

Every :class:`~repro.runner.record.RunRecord` can land here — opt-in
via ``repro run --lake`` (or ``repro sweep --lake``, which lands each
point's record), or backfilled from a warm result cache with ``repro
lake ingest``. Rows are keyed by the content-addressed
cache key (re-ingest adds zero rows) and carry full
salt/backend/consistency/preset provenance, so ``repro query`` can
compare cycle breakdowns across presets and code versions without
ever re-simulating — and without ever silently mixing stale-salt
rows into a fresh comparison.

See :mod:`repro.lake.store` for the schema and
:mod:`repro.lake.query` for the query layer.
"""

from repro.lake.query import (
    DEFAULT_METRICS,
    PIVOT_COLUMNS,
    RUN_COLUMNS,
    QueryFilters,
    available_metrics,
    pivot,
    query_runs,
    render_rows,
    rows_to_csv,
)
from repro.lake.store import (
    DEFAULT_LAKE_NAME,
    ENV_LAKE_PATH,
    LAKE_SCHEMA,
    RunLake,
    default_lake_path,
    infer_preset,
    record_metrics,
)

__all__ = [
    "DEFAULT_LAKE_NAME",
    "DEFAULT_METRICS",
    "ENV_LAKE_PATH",
    "LAKE_SCHEMA",
    "PIVOT_COLUMNS",
    "RUN_COLUMNS",
    "QueryFilters",
    "RunLake",
    "available_metrics",
    "default_lake_path",
    "infer_preset",
    "pivot",
    "query_runs",
    "record_metrics",
    "render_rows",
    "rows_to_csv",
]
