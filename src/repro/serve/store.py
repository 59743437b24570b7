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

A reader that remembers what it parsed checks a file through
:meth:`LocalDirStore.open`: the :class:`OpenBlob` it returns holds the
file open, so its identity (inode, size and mtime in nanoseconds), its
bytes and its mtime bump all belong to one file, even when a writer
publishes a new one under the name meanwhile and the new one reuses a
freed inode number.
"""

from __future__ import annotations

import errno
import itertools
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

#: ``(st_ino, st_size, st_mtime_ns)`` of one stored file.
FileIdentity = Tuple[int, int, int]


class OpenBlob:
    """One stored file, held open until :meth:`close` (or the end of a
    ``with`` block): while it is open no other file can take its inode
    number, so its identity names it alone."""

    def __init__(self, fd: int) -> None:
        self._fd = fd
        stat = os.fstat(fd)
        self.identity: FileIdentity = stat.st_ino, stat.st_size, stat.st_mtime_ns

    def read(self) -> bytes:
        with open(self._fd, "rb", closefd=False) as handle:
            return handle.read()

    def touch(self) -> None:
        """Set the file's mtime to now (LRU bookkeeping); the identity
        takes the new mtime. A file this process may not touch keeps
        its mtime."""
        mtime_ns = time.time_ns()
        try:
            os.utime(self._fd, ns=(mtime_ns, mtime_ns))
        except OSError:
            return
        self.identity = self.identity[0], self.identity[1], mtime_ns

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self) -> "OpenBlob":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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

    def make_directory(self) -> None:
        """Create the directory if it is missing; ``OSError`` if it
        cannot hold blobs (a path through a regular file, say)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(self.directory)
            ) from None
        if not os.access(self.directory, os.W_OK | os.X_OK):
            raise PermissionError(
                errno.EACCES, os.strerror(errno.EACCES), str(self.directory)
            )

    def open(self, name: str) -> Optional[OpenBlob]:
        """The blob's file, held open, or ``None`` if absent."""
        try:
            return OpenBlob(os.open(self._path(name), os.O_RDONLY))
        except OSError:
            return None

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
