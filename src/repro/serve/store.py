"""The result store: the blob layer under ``ResultCache``.

The content-addressed cache names every record by a pure function of
its configuration; this module owns the files those names point at.
:class:`LocalDirStore` keeps one JSON file per name under one directory
and is safe under concurrent writers on one host — ``repro serve``'s
worker threads, an in-process sweep, and a ``repro run`` in another
process may all store the same record at once:

* every write goes to a temp file named for its process, thread and a
  sequence number, then is published with an atomic ``os.replace``, so
  two writers of one name never share a temp file and a reader sees
  either no record or one complete record;
* scans skip files that vanish mid-scan (a concurrent eviction pass).
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union


@dataclass(frozen=True)
class BlobStat:
    """Size/age facts about one stored blob."""

    name: str
    bytes: int
    mtime: float


class LocalDirStore:
    """One directory of JSON blobs, written atomically."""

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self.directory = Path(directory)
        self._tmp_seq = itertools.count()

    def _path(self, name: str) -> Path:
        return self.directory / name

    def _tmp_path(self, name: str) -> Path:
        return self.directory / (
            f"{name}.tmp.{os.getpid()}.{threading.get_ident()}"
            f".{next(self._tmp_seq)}"
        )

    def read(self, name: str) -> Optional[bytes]:
        """The blob's bytes, or ``None`` if absent (or just evicted)."""
        try:
            return self._path(name).read_bytes()
        except OSError:
            return None

    def write(self, name: str, data: bytes) -> Path:
        """Atomically publish ``data`` under ``name`` (temp + replace)."""
        path = self._path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_path(name)
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    def delete(self, name: str) -> bool:
        try:
            self._path(name).unlink()
            return True
        except OSError:
            return False

    def touch(self, name: str) -> bool:
        """Bump the blob's mtime (LRU bookkeeping); False if absent."""
        try:
            os.utime(self._path(name), None)
            return True
        except OSError:
            return False

    def list_blobs(self, pattern: str = "*.json") -> List[BlobStat]:
        """The blobs whose names match ``pattern``, oldest mtime first.

        A name is relative to the directory (``traces/x.json`` for the
        pattern ``traces/*.json``). Tolerant of concurrent eviction: a
        file deleted between the directory scan and its ``stat`` is
        simply skipped.
        """
        if not self.directory.is_dir():
            return []
        out: List[BlobStat] = []
        for path in self.directory.glob(pattern):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with a concurrent delete
            name = path.relative_to(self.directory).as_posix()
            out.append(BlobStat(name, stat.st_size, stat.st_mtime))
        out.sort(key=lambda blob: (blob.mtime, blob.name))
        return out
