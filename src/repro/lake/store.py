"""The run lake: an append-only sqlite store over RunRecords.

The result cache answers "have I run this exact config under the
current code salt?"; the lake answers the *longitudinal* questions the
paper's tables invite — how a cycle breakdown or an MP/SM ratio moved
across code versions, backends, consistency models, and machine
presets. It is stdlib :mod:`sqlite3` (zero new deps), append-only
(``INSERT OR IGNORE`` keyed on the content-addressed ``cache_key``, so
re-ingesting is idempotent), and salt-aware: every row stores its full
canonical config, and freshness is recomputed at query time through
:func:`repro.runner.cache.record_is_fresh` — the same decision
``repro cache ls`` renders — so stale rows are distinguishable, never
silently mixed into a comparison.

Layout (schema v1):

* ``runs`` — one row per RunRecord, keyed by ``cache_key``; carries
  backend/consistency/preset/procs/salt provenance columns plus the
  canonical config and summary JSON.
* ``metrics`` — the scalar projection of each run: every applicable
  registry metric (:mod:`repro.stats.metrics`) plus the raw per-side
  cycle-breakdown components (``mp_computation``, ``sm_data_access``,
  ...), one row per ``(cache_key, name)``.

A sweep lands as its point records (``repro sweep --lake``); older
lakes keep two sweep tables that nothing reads.

The default location is ``lake.sqlite`` next to the result cache
(honouring ``REPRO_CACHE_DIR``), overridable with ``REPRO_LAKE_PATH``
or an explicit ``--lake-path``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.runner.cache import (
    CODE_SALT,
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ResultCache,
    record_is_fresh,
)
from repro.runner.record import RunRecord

#: Environment override for the lake file location.
ENV_LAKE_PATH = "REPRO_LAKE_PATH"

#: Default lake filename, created next to the result cache.
DEFAULT_LAKE_NAME = "lake.sqlite"

#: Bump when the lake table layout changes.
LAKE_SCHEMA = 1

_DDL = """
CREATE TABLE IF NOT EXISTS lake_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    cache_key       TEXT PRIMARY KEY,
    exp_id          TEXT NOT NULL,
    backend         TEXT NOT NULL,
    consistency     TEXT NOT NULL,
    preset          TEXT NOT NULL,
    procs           INTEGER,
    seed            INTEGER,
    cache_bytes     INTEGER,
    salt            TEXT NOT NULL,
    version         TEXT NOT NULL,
    record_schema   INTEGER NOT NULL,
    all_ok          INTEGER NOT NULL,
    elapsed_seconds REAL NOT NULL,
    ingested_at     REAL NOT NULL,
    config_json     TEXT NOT NULL,
    summary_json    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_exp ON runs (exp_id, preset);
CREATE TABLE IF NOT EXISTS metrics (
    cache_key TEXT NOT NULL,
    name      TEXT NOT NULL,
    value     REAL NOT NULL,
    PRIMARY KEY (cache_key, name)
);
"""


def default_lake_path() -> Path:
    """``$REPRO_LAKE_PATH``, else ``lake.sqlite`` beside the cache."""
    env = os.environ.get(ENV_LAKE_PATH)
    if env:
        return Path(env)
    cache_dir = os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)
    return Path(cache_dir) / DEFAULT_LAKE_NAME


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def infer_preset(config: Mapping[str, Any]) -> str:
    """Recover the machine preset from a canonical config dict.

    The canonical config deliberately omits the preset name (its effect
    is folded into the resolved machine parameters), so records written
    before :attr:`RunRecord.preset` existed need it reconstructed: each
    preset table is resolved at the record's processor count and cache
    size and matched against the stored machine dict. Records whose
    machine was further perturbed (sweep axes over ``net_latency`` etc.)
    match no table and report ``"custom"``; unreadable configs report
    ``"unknown"``.
    """
    from repro.arch.params import MACHINE_PRESETS, machine_preset

    try:
        stored = _canonical(config["machine"])
        procs = int(config["procs"])
        cache_bytes = config.get("cache_bytes")
    except (KeyError, TypeError, ValueError):
        return "unknown"
    for preset in sorted(MACHINE_PRESETS):
        try:
            params = machine_preset(preset, num_processors=procs)
            if cache_bytes is not None:
                params = params.with_cache_bytes(int(cache_bytes))
        except (TypeError, ValueError):
            continue
        # json round-trip both sides: asdict() tuples become lists in
        # stored JSON, so compare in JSON space.
        resolved = _canonical(json.loads(json.dumps(asdict(params))))
        if resolved == stored:
            return preset
    return "custom"


def record_metrics(summary: Mapping[str, Any]) -> Dict[str, float]:
    """The scalar projection of one record summary for the lake.

    Every registry metric that applies to this summary kind, plus the
    raw per-side overall cycle-breakdown components under ``mp_``/
    ``sm_`` prefixes (the paper's table rows as columns). Metrics the
    summary cannot answer (pair metrics of a scalars summary, absent
    phases) are simply skipped.
    """
    from repro.stats.metrics import METRICS

    out: Dict[str, float] = {}
    for name, fn in METRICS.items():
        try:
            value = float(fn(summary))
        except (KeyError, TypeError, ValueError):
            continue
        if value == value and abs(value) != float("inf"):
            out[name] = value
    for side in ("mp", "sm"):
        overall = summary.get(side, {})
        overall = overall.get("overall", {}) if isinstance(overall, Mapping) else {}
        for key, value in overall.items():
            if isinstance(value, (int, float)):
                out.setdefault(f"{side}_{key}", float(value))
    return out


class RunLake:
    """Append-only sqlite store of run facts.

    Usable as a context manager; all ingest methods are idempotent
    (content-addressed primary keys + ``INSERT OR IGNORE``), so
    re-ingesting a warm cache adds zero rows.
    """

    def __init__(self, path: Union[str, os.PathLike, None] = None) -> None:
        self.path = Path(path) if path is not None else default_lake_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_DDL)
        self._conn.execute(
            "INSERT OR IGNORE INTO lake_meta (key, value) VALUES (?, ?)",
            ("lake_schema", str(LAKE_SCHEMA)),
        )
        self._conn.commit()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLake":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        return self._conn

    # -- ingest ------------------------------------------------------------

    def ingest_record(
        self, record: Union[RunRecord, Mapping[str, Any]]
    ) -> bool:
        """Add one run record; returns True when a new row was added."""
        from repro import __version__

        data = (
            record.to_jsonable()
            if isinstance(record, RunRecord)
            else dict(record)
        )
        config = data.get("config") or {}
        fresh = record_is_fresh(data)
        preset = data.get("preset") or infer_preset(config)
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO runs (cache_key, exp_id, backend,"
            " consistency, preset, procs, seed, cache_bytes, salt, version,"
            " record_schema, all_ok, elapsed_seconds, ingested_at,"
            " config_json, summary_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                str(data["cache_key"]),
                str(data["exp_id"]),
                str(config.get("backend", "")),
                str(config.get("consistency", "")),
                str(preset),
                config.get("procs"),
                config.get("seed"),
                config.get("cache_bytes"),
                # The salt provenance column: the salt this row is known
                # to match. Rows already stale at ingest time belonged to
                # some earlier salt we can no longer name.
                CODE_SALT if fresh else "pre-" + CODE_SALT,
                str(__version__),
                int(data.get("schema", 0)),
                int(
                    all(ok for _n, ok, _d in data.get("checks", []))
                ),
                float(data.get("elapsed_seconds", 0.0)),
                time.time(),
                _canonical(config),
                _canonical(data.get("summary", {})),
            ),
        )
        added = cursor.rowcount > 0
        if added:
            self._conn.executemany(
                "INSERT OR IGNORE INTO metrics (cache_key, name, value)"
                " VALUES (?, ?, ?)",
                [
                    (str(data["cache_key"]), name, value)
                    for name, value in sorted(
                        record_metrics(data.get("summary", {})).items()
                    )
                ],
            )
        self._conn.commit()
        return added

    def ingest_cache(
        self, cache: Optional[ResultCache] = None
    ) -> Tuple[int, int]:
        """Backfill every readable cached record; ``(added, seen)``."""
        cache = cache if cache is not None else ResultCache()
        added = seen = 0
        for _path, record in cache.entries():
            seen += 1
            added += bool(self.ingest_record(record))
        return added, seen

    # -- accounting --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {}
        for table in ("runs", "metrics"):
            row = self._conn.execute(
                f"SELECT COUNT(*) AS n FROM {table}"
            ).fetchone()
            out[table] = int(row["n"])
        return out

    def stats(self) -> Dict[str, Any]:
        """Size/shape facts for ``repro lake stats``."""
        counts = self.counts()
        fresh = sum(1 for row in self.run_rows() if row["fresh"])
        return {
            "path": str(self.path),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
            "lake_schema": LAKE_SCHEMA,
            "salt": CODE_SALT,
            "fresh_runs": fresh,
            "stale_runs": counts["runs"] - fresh,
            **counts,
        }

    # -- raw row access (repro.lake.query builds on this) ------------------

    def run_rows(
        self, where: str = "", params: Iterable[Any] = ()
    ) -> Iterable[Dict[str, Any]]:
        """``runs`` rows as dicts, each annotated with query-time
        ``fresh`` (the shared :func:`record_is_fresh` decision, so the
        lake and ``repro cache ls`` can never disagree about a salt
        bump) and with the row's metric columns merged in."""
        sql = "SELECT * FROM runs"
        if where:
            sql += f" WHERE {where}"
        sql += " ORDER BY exp_id, preset, consistency, backend, procs"
        for raw in self._conn.execute(sql, tuple(params)).fetchall():
            row = dict(raw)
            config = json.loads(row.pop("config_json"))
            row.pop("summary_json")
            row["fresh"] = record_is_fresh(
                {
                    "schema": row["record_schema"],
                    "cache_key": row["cache_key"],
                    "config": config,
                }
            )
            row["config"] = config
            row["all_ok"] = bool(row["all_ok"])
            for metric in self._conn.execute(
                "SELECT name, value FROM metrics WHERE cache_key = ?",
                (row["cache_key"],),
            ).fetchall():
                row.setdefault(metric["name"], metric["value"])
            yield row
