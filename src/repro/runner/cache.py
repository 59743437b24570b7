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

A :class:`ResultCache` remembers the last :data:`RECORD_MEMO_SIZE`
records it parsed, each with the identity (inode, size, mtime) of the
file it parsed. A later hit on an unchanged file costs opening it, one
``fstat`` and the mtime bump; a file stored, rewritten, replaced or
deleted since is read and checked again, or is a miss. The bump goes
through the open file, and its mtime becomes the remembered one, so
only another process's bump forces a re-read.

A record stored with its Chrome trace (``repro trace``) keeps the
trace at ``traces/<record file name>``; the two are one cache entry,
listed, sized, evicted and cleared together.

:class:`ResultCache` is the only code that names, reads, writes or
deletes files in the cache directory. File I/O goes through
:class:`~repro.serve.store.LocalDirStore`, which publishes each file
through a per-thread temp file and an atomic ``os.replace``: a
``repro serve`` worker, an in-process sweep and a ``repro run`` in
another process may store the same record at once, and a reader sees
either no file or a complete one. A command that will store checks the
directory first (:meth:`ResultCache.check_directory`), so an unusable
one is a usage error before anything simulates.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.runner.config import ExperimentConfig
from repro.runner.record import RECORD_SCHEMA, RunRecord

if TYPE_CHECKING:  # pragma: no cover - importing repro.api loads no repro.serve
    from repro.serve.store import FileIdentity

#: Bump manually when simulator semantics change (cycle counts move).
CODE_SALT = "repro-runner-v5"  # v5: em3d_bigcache/em3d_localalloc/alcp
# compare against a baseline on their own backend, memory model and
# preset (v4: consistency joined the key; machine params grew the
# two-level-topology fields, cluster_size et al.)

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Where a traced record's trace lives, under the record's file name.
TRACE_DIR = "traces"

#: Parsed records a cache keeps in memory. A record file is at most
#: ~10 KB and its parse ~21 KB, so the memo holds ~5 MB at most.
RECORD_MEMO_SIZE = 256

#: The keys of ``RunRecord.to_jsonable()``: a stored record's layout.
_RECORD_KEYS = frozenset(RunRecord.__dataclass_fields__) - {"cached"}


class CacheDirectoryError(ValueError):
    """The cache directory cannot hold records: a usage error, raised
    before anything simulates."""


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
    """Size/age/staleness facts about one cache entry: a record file
    and the trace stored with it.

    ``path`` is the record file, or the trace file of a trace whose
    record is gone; ``bytes`` counts both files. ``stale`` means the
    stored key no longer matches a key recomputed from the stored
    config under the current :data:`CODE_SALT`, package version, and
    record schema — the record can never again satisfy a lookup, so
    eviction removes it first. Unreadable records (``record`` is
    ``None``) and traces without a record count as stale too.
    """

    path: Path
    exp_id: str
    cache_key: str
    bytes: int
    mtime: float
    stale: bool
    record: Optional[RunRecord] = None
    trace_bytes: int = 0


class ResultCache:
    """JSON records keyed by :func:`cache_key`, one file per run (and
    one per stored trace)."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        # Imported here, so `from repro import api` loads no repro.serve.
        from repro.serve.store import LocalDirStore

        self._store = LocalDirStore(
            directory
            if directory is not None
            else os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)
        )
        self._directory_checked = False
        # Record file name -> (identity of the parsed file, parsed dict),
        # least recently used first.
        self._memo: OrderedDict[str, Tuple[FileIdentity, Dict[str, Any]]] = OrderedDict()
        self._memo_lock = threading.Lock()

    @property
    def directory(self) -> Path:
        return self._store.directory

    def check_directory(self) -> None:
        """Create the cache directory if it is missing, or raise
        :class:`CacheDirectoryError` naming it if it cannot hold
        records. Called before the first store a command would make;
        once it has passed, later calls cost nothing."""
        if self._directory_checked:
            return
        try:
            self._store.make_directory()
        except OSError as exc:
            raise CacheDirectoryError(
                f"cache directory {self.directory} is unusable: "
                f"{exc.strerror or exc} (set {ENV_CACHE_DIR} to a "
                f"writable directory)"
            ) from exc
        self._directory_checked = True

    @staticmethod
    def _name(exp_id: str, key: str) -> str:
        return f"{exp_id}-{key[:16]}.json"

    @staticmethod
    def _trace_name(name: str) -> str:
        """The store name of the trace kept with record file ``name``."""
        return f"{TRACE_DIR}/{name}"

    def trace_path(self, exp_id: str, key: str) -> Path:
        """Where the trace stored with the record under ``key`` lives."""
        return self.directory / self._trace_name(self._name(exp_id, key))

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
        straight into the job envelope. It is also the dict this cache
        remembers and hands to every later caller while the file is
        unchanged, so it is read-only: copy it before changing it.
        """
        name = self._name(exp_id, key)
        blob = self._store.open(name)
        if blob is None:
            self._forget(name)
            return None
        with blob:
            with self._memo_lock:
                remembered = self._memo.get(name)
            if remembered is not None and remembered[0] == blob.identity:
                data = remembered[1]
            else:
                data = self._parse(blob.read(), key)
                if data is None:
                    self._forget(name)
                    return None
            # A hit is a "use" in LRU terms: bump the mtime so the
            # eviction policy sees hot records as young. The bump goes to
            # the file just checked, never to one published since, and
            # the remembered identity takes its mtime, so it forces no
            # re-read.
            blob.touch()
            self._memoize(name, blob.identity, data)
        return data

    @staticmethod
    def _parse(raw: bytes, key: str) -> Optional[Dict[str, Any]]:
        """A stored record's bytes as its dict, or ``None`` if they are
        not a record under ``key`` of this record schema."""
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(data, dict)
            or data.get("cache_key") != key
            or data.get("schema") != RECORD_SCHEMA
        ):
            return None
        if data.keys() != _RECORD_KEYS:
            # An older record layout: fill in the fields added since
            # (and drop unknown ones) exactly as a RunRecord would.
            data = RunRecord.from_jsonable(data).to_jsonable()
        return data

    def _memoize(
        self, name: str, identity: FileIdentity, data: Dict[str, Any]
    ) -> None:
        with self._memo_lock:
            self._memo[name] = (identity, data)
            self._memo.move_to_end(name)
            if len(self._memo) > RECORD_MEMO_SIZE:
                self._memo.popitem(last=False)

    def _forget(self, name: str) -> None:
        with self._memo_lock:
            self._memo.pop(name, None)

    def load_trace(self, exp_id: str, key: str) -> Optional[Dict[str, Any]]:
        """The trace stored with the record under ``key``, or ``None``.

        Only a hit's trace is served, and a hit counts as a use: a
        trace whose record is gone or stale is never returned, and a
        record stored before traces lived in the cache (its
        ``trace_path`` names a file elsewhere) has none.
        """
        if self.load_jsonable(exp_id, key) is None:
            return None
        raw = self._store.read(self._trace_name(self._name(exp_id, key)))
        try:
            return json.loads(raw.decode("utf-8")) if raw is not None else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    def store(
        self, record: RunRecord, trace: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Persist one record, and its trace if given; atomic under
        concurrent writers.

        The trace is published first and the record's ``trace_path``
        names it, so a reader that finds the record finds its trace.
        """
        name = self._name(record.exp_id, record.cache_key)
        self._forget(name)
        if trace is not None:
            path = self._store.write(
                self._trace_name(name), json.dumps(trace).encode("utf-8")
            )
            record.trace_path = str(path)
        data = json.dumps(record.to_jsonable(), indent=1, sort_keys=True)
        return self._store.write(name, data.encode("utf-8"))

    # -- listings ----------------------------------------------------------

    def entries(self) -> Iterator[Tuple[Path, RunRecord]]:
        """All readable records, oldest first."""
        for entry in self.index():
            if entry.record is not None:
                yield entry.path, entry.record

    def index(self) -> List[CacheEntry]:
        """Every cache entry, oldest first, from one scan.

        Each record file is read once and each trace only sized. Unlike
        :meth:`entries` this never skips a file: corrupt records and
        traces without a record appear with ``stale=True`` so the
        eviction policy can reclaim their bytes. Files deleted
        concurrently (an eviction pass in another thread or process)
        are skipped.
        """
        # Traces first: a store publishes its trace before its record,
        # so a record stored mid-scan is never taken for an orphan.
        traces = {
            blob.name.rpartition("/")[2]: blob
            for blob in self._store.list_blobs(self._trace_name("*.json"))
        }
        records = {blob.name: blob for blob in self._store.list_blobs()}
        out: List[CacheEntry] = []
        for name in records.keys() | traces.keys():
            blob, trace = records.get(name), traces.get(name)
            data: Any = {}
            if blob is not None:
                raw = self._store.read(name)
                if raw is None:
                    continue  # evicted between listing and read
                try:
                    data = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    pass
            data = data if isinstance(data, dict) else {}
            try:
                record: Optional[RunRecord] = RunRecord.from_jsonable(data)
            except TypeError:
                record = None  # not a record, or no record file
            exp_id, _, key = name[: -len(".json")].rpartition("-")
            first = blob or trace
            out.append(CacheEntry(
                path=self.directory / first.name,
                exp_id=str(data.get("exp_id", exp_id or "?")),
                cache_key=str(data.get("cache_key", key)),
                bytes=sum(b.bytes for b in (blob, trace) if b is not None),
                mtime=first.mtime,
                stale=not record_is_fresh(data),
                record=record,
                trace_bytes=trace.bytes if trace is not None else 0,
            ))
        out.sort(key=lambda entry: (entry.mtime, entry.path.name))
        return out

    def total_bytes(self) -> int:
        """Bytes currently held by the cache's entries, traces included."""
        return sum(entry.bytes for entry in self.index())

    def stats(self, index: Optional[List[CacheEntry]] = None) -> Dict[str, Any]:
        """Size accounting for ``/healthz`` and ``repro cache ls``, from
        ``index`` (a scan already made) or a new scan."""
        entries = self.index() if index is None else index
        ages = [time.time() - entry.mtime for entry in entries]
        return {
            "directory": str(self.directory),
            "records": len(entries),
            "bytes": sum(entry.bytes for entry in entries),
            "stale_records": sum(1 for entry in entries if entry.stale),
            "oldest_age_seconds": round(max(ages), 1) if ages else 0.0,
        }

    def ls(self, index: Optional[List[CacheEntry]] = None) -> List[str]:
        """Listing lines for ``repro cache ls``, one per entry, from
        ``index`` (a scan already made) or a new scan."""
        lines = []
        for entry in self.index() if index is None else index:
            record = entry.record
            name = entry.path.relative_to(self.directory).as_posix()
            if record is not None:
                ran = f"{record.elapsed_seconds:7.1f}s"
                status = f"checks:{'ok' if record.all_ok else 'FAIL'}"
                name += " + trace" if entry.trace_bytes else ""
            else:
                ran = f"{'-':>8}"
                orphan = entry.path.parent != self.directory
                status = "no record" if orphan else "unreadable"
            salt = "stale" if entry.stale else "fresh"
            lines.append(
                f"{entry.exp_id:<18} {entry.cache_key[:12]}  {ran}  "
                f"{entry.bytes:8d}B  {status}  salt:{salt}  {name}"
            )
        return lines

    def remove(self, entry: CacheEntry) -> bool:
        """Delete one entry, record and trace; False if both were gone."""
        self._forget(entry.path.name)
        record_gone = self._store.delete(entry.path.name)
        trace_gone = self._store.delete(self._trace_name(entry.path.name))
        return record_gone or trace_gone

    def clear(self) -> int:
        """Delete every entry, traces included; returns the number removed."""
        return sum(self.remove(entry) for entry in self.index())
