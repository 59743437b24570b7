"""Content-addressed on-disk result cache.

Records live as JSON files under ``.repro_cache/`` (overridable with
the ``REPRO_CACHE_DIR`` environment variable or an explicit path).
The key is a SHA-256 digest of

* the experiment id,
* the **full** canonical configuration — workload config, seed,
  processor count, and the resolved machine parameters, so a change to
  any Table 1-3 default invalidates dependent results, and
* a code-version salt (:data:`CODE_SALT` plus the package version),
  bumped whenever simulator changes make old cycle counts stale.

A cache hit returns the stored :class:`~repro.runner.record.RunRecord`
with ``cached=True``; nothing is ever re-simulated to serve a hit.
Hits also bump the record file's mtime, so mtime order is true LRU
order and the byte-budget eviction policy (:mod:`repro.serve.eviction`)
keeps hot records alive while old and stale-salt ones go first.

Blob I/O is delegated to a pluggable *store*
(:mod:`repro.serve.store`): the default
:class:`~repro.serve.store.LocalDirStore` is the original one-server
layout, while :class:`~repro.serve.store.SharedDirStore` makes the
same directory safe for N server replicas (atomic publishes, eviction
races tolerated, and cross-replica *claims* so identical cold requests
cost one simulation fleet-wide). Keys and record bytes are identical
regardless of the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.runner.config import ExperimentConfig
from repro.runner.record import RECORD_SCHEMA, RunRecord

#: Bump manually when simulator semantics change (cycle counts move).
CODE_SALT = "repro-runner-v4"  # v4: consistency joined the key; machine
# params grew the two-level-topology fields (cluster_size et al.)

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: The keys of ``RunRecord.to_jsonable()``: a stored record's layout.
_RECORD_KEYS = frozenset(RunRecord.__dataclass_fields__) - {"cached"}


def cache_key(config: ExperimentConfig) -> str:
    """The content address of one experiment configuration."""
    return key_for_jsonable(config.to_jsonable())


def key_for_jsonable(config_jsonable: Dict[str, Any]) -> str:
    """The content address of an already-canonicalized configuration.

    Stored records carry their canonical config dict; recomputing the
    key from it under the *current* salt/version detects staleness
    without reconstructing the live config object.
    """
    from repro import __version__

    payload = {
        "salt": CODE_SALT,
        "version": __version__,
        "schema": RECORD_SCHEMA,
        "config": config_jsonable,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def record_is_fresh(data: Dict[str, Any]) -> bool:
    """The single salt-freshness decision for a stored record dict.

    True when the stored ``cache_key`` still matches a key recomputed
    from the stored ``config`` under the *current* :data:`CODE_SALT`,
    package version, and record schema. Every staleness surface —
    ``repro cache ls``, eviction, the run lake, ``repro query`` —
    routes through here, so a mid-session salt bump moves them all at
    once and they can never disagree about which records are stale.
    """
    try:
        return (
            data.get("schema") == RECORD_SCHEMA
            and bool(data.get("cache_key"))
            and data["cache_key"] == key_for_jsonable(data["config"])
        )
    except (KeyError, TypeError):
        return False


@dataclass
class CacheEntry:
    """Size/age/staleness facts about one on-disk record file.

    ``stale`` means the stored key no longer matches a key recomputed
    from the stored config under the current :data:`CODE_SALT`, package
    version, and record schema — the record can never again satisfy a
    lookup, so eviction removes it first. Unreadable files count as
    stale too.
    """

    path: Path
    exp_id: str
    cache_key: str
    bytes: int
    mtime: float
    stale: bool


class ResultCache:
    """JSON records keyed by :func:`cache_key`, one file per run."""

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        store: Union[str, Any, None] = None,
    ) -> None:
        resolved = Path(
            directory
            if directory is not None
            else os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)
        )
        from repro.serve.store import LocalDirStore, make_store

        if store is None:
            self._store = LocalDirStore(resolved)
        elif isinstance(store, str):
            self._store = make_store(store, resolved)
        else:
            self._store = store

    @property
    def blob_store(self):
        """The blob store behind this cache (see :mod:`repro.serve.store`).

        (Named ``blob_store`` because :meth:`store` — persist a record —
        predates the seam.)
        """
        return self._store

    @property
    def directory(self) -> Path:
        return self._store.directory

    @staticmethod
    def _name(exp_id: str, key: str) -> str:
        return f"{exp_id}-{key[:16]}.json"

    def _path(self, exp_id: str, key: str) -> Path:
        return self.directory / self._name(exp_id, key)

    def load(self, config: ExperimentConfig) -> Optional[RunRecord]:
        """The stored record for this exact configuration, or ``None``."""
        data = self.load_jsonable(config.exp_id, cache_key(config))
        if data is None:
            return None
        record = RunRecord.from_jsonable(data)
        record.cached = True
        return record

    def load_jsonable(self, exp_id: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored record under ``key`` as ``RunRecord.to_jsonable()``
        would give it, or ``None``.

        The dict is the one parsed from the stored bytes, handed over
        without a ``RunRecord`` round trip (whose ``asdict`` would
        deep-copy every nested table): the serve warm path puts it
        straight into the job envelope. The caller owns it.
        """
        name = self._name(exp_id, key)
        raw = self._store.read(name)
        if raw is None:
            return None
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if data.get("cache_key") != key or data.get("schema") != RECORD_SCHEMA:
            return None
        # A hit is a "use" in LRU terms: bump the mtime so the
        # eviction policy sees hot records as young.
        self._store.touch(name)
        if data.keys() != _RECORD_KEYS:
            # An older record layout: fill in the fields added since
            # (and drop unknown ones) exactly as a RunRecord would.
            data = RunRecord.from_jsonable(data).to_jsonable()
        return data

    def store(self, record: RunRecord) -> Path:
        """Persist one record; atomic under concurrent writers."""
        data = json.dumps(record.to_jsonable(), indent=1, sort_keys=True)
        return self._store.write(
            self._name(record.exp_id, record.cache_key),
            data.encode("utf-8"),
        )

    # -- cross-replica claims ----------------------------------------------

    @property
    def coordinates_writers(self) -> bool:
        """True when the store arbitrates writers across replicas."""
        return bool(self._store.coordinates_writers)

    @property
    def claim_ttl(self) -> Optional[float]:
        """Seconds after which an unreleased claim counts as orphaned."""
        return getattr(self._store, "claim_ttl", None)

    def try_claim(self, config: ExperimentConfig) -> bool:
        """Claim the right to simulate ``config`` (see the store docs)."""
        return self._store.try_claim(self._name(config.exp_id, cache_key(config)))

    def release_claim(self, config: ExperimentConfig) -> None:
        self._store.release_claim(self._name(config.exp_id, cache_key(config)))

    def claim_age(self, config: ExperimentConfig) -> Optional[float]:
        return self._store.claim_age(self._name(config.exp_id, cache_key(config)))

    # -- listings ----------------------------------------------------------

    def entries(self) -> Iterator[Tuple[Path, RunRecord]]:
        """All readable records, oldest first."""
        for blob in self._store.list_blobs():
            raw = self._store.read(blob.name)
            if raw is None:
                continue  # evicted between listing and read
            try:
                data = json.loads(raw.decode("utf-8"))
                yield self.directory / blob.name, RunRecord.from_jsonable(data)
            except (UnicodeDecodeError, json.JSONDecodeError, TypeError):
                continue

    def index(self) -> List[CacheEntry]:
        """Size/age/staleness facts for every record file, oldest first.

        Unlike :meth:`entries` this never skips a readable file:
        corrupt records appear with ``stale=True`` so the eviction
        policy can reclaim their bytes. Files deleted concurrently (a
        peer replica's eviction pass) are skipped.
        """
        out: List[CacheEntry] = []
        for blob in self._store.list_blobs():
            exp_id, key, stale = "?", "", True
            raw = self._store.read(blob.name)
            if raw is None:
                continue  # evicted between listing and read
            try:
                data = json.loads(raw.decode("utf-8"))
                exp_id = str(data.get("exp_id", "?"))
                key = str(data.get("cache_key", ""))
                stale = not record_is_fresh(data)
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                    TypeError):
                stale = True
            out.append(
                CacheEntry(
                    path=self.directory / blob.name,
                    exp_id=exp_id,
                    cache_key=key,
                    bytes=blob.bytes,
                    mtime=blob.mtime,
                    stale=stale,
                )
            )
        return out

    def total_bytes(self) -> int:
        """Bytes currently held by record files (sweeps/traces excluded)."""
        return sum(entry.bytes for entry in self.index())

    def stats(self) -> Dict[str, Any]:
        """Size accounting for ``/healthz`` and ``repro cache ls``."""
        entries = self.index()
        ages = [time.time() - entry.mtime for entry in entries]
        return {
            "directory": str(self.directory),
            "store": getattr(self._store, "kind", "custom"),
            "records": len(entries),
            "bytes": sum(entry.bytes for entry in entries),
            "stale_records": sum(1 for entry in entries if entry.stale),
            "oldest_age_seconds": round(max(ages), 1) if ages else 0.0,
        }

    def ls(self) -> List[str]:
        """Human-readable listing lines for ``repro cache ls``."""
        index = self.index()
        stale_keys = {entry.cache_key for entry in index if entry.stale}
        sizes = {entry.path.name: entry.bytes for entry in index}
        lines = []
        for path, record in self.entries():
            size = sizes.get(path.name, 0)
            status = "ok" if record.all_ok else "FAIL"
            salt = "stale" if record.cache_key in stale_keys else "fresh"
            lines.append(
                f"{record.exp_id:<18} {record.cache_key[:12]}  "
                f"{record.elapsed_seconds:7.1f}s  {size:8d}B  "
                f"checks:{status}  salt:{salt}  {path.name}"
            )
        return lines

    def clear(self) -> int:
        """Delete every cached record; returns the number removed."""
        removed = 0
        for blob in self._store.list_blobs():
            if self._store.delete(blob.name):
                removed += 1
        return removed
