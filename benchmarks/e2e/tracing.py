"""The traced run's instruments: spans and a profile window.

Spans are recorded by the benchmark around its own calls into the
program (round, pair, side, step), kept in memory and written into the
result document when the run ends. :class:`ProfileWindow` runs stdlib
``cProfile`` over everything the workload does inside it: the calling
thread, every thread started inside the window (one profiler each), and
every Python process started inside it (through ``hook/sitecustomize.py``).
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from benchmarks.e2e.layers import Classifier, fold

HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")
PROFILE_ENV = "E2E_PROFILE_DIR"


class Spans:
    """Named intervals with parents, on one clock."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.items: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        item: Dict[str, object] = {
            "id": len(self.items),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.origin,
            "end": None,
        }
        self.items.append(item)
        self._stack.append(item["id"])  # type: ignore[arg-type]
        try:
            yield item
        finally:
            self._stack.pop()
            item["end"] = time.perf_counter() - self.origin

    def duration(self, item: Dict[str, object]) -> float:
        return item["end"] - item["start"]  # type: ignore[operator]


def child_env(env: Dict[str, str], profile_dir: str) -> Dict[str, str]:
    """``env`` plus what makes a child process profile itself into ``profile_dir``."""
    path = env.get("PYTHONPATH")
    return dict(
        env,
        PYTHONPATH=HOOK_DIR + (os.pathsep + path if path else ""),
        **{PROFILE_ENV: profile_dir},
    )


class ProfileWindow:
    """Profile this thread, new threads and new child processes.

    The window can be entered several times; profiles and ``seconds``
    accumulate. Child processes inherit the hook through ``os.environ``
    while the window is open; pass :func:`child_env` explicitly to
    ``subprocess`` calls that build their own environment. With
    ``this_process=False`` only child processes are profiled.
    """

    def __init__(self, profile_dir: str, this_process: bool = True) -> None:
        self.profile_dir = profile_dir
        self.this_process = this_process
        self.seconds = 0.0
        self._main = cProfile.Profile()
        self._threads: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._saved_env: Dict[str, Optional[str]] = {}

    def _start_thread(self, _frame, _event, _arg) -> None:
        profiler = cProfile.Profile()
        with self._lock:
            self._threads.append(profiler)
        profiler.enable()

    def __enter__(self) -> "ProfileWindow":
        os.makedirs(self.profile_dir, exist_ok=True)
        self._saved_env = {}
        for name, value in child_env(dict(os.environ), self.profile_dir).items():
            if os.environ.get(name) != value:
                self._saved_env[name] = os.environ.get(name)
                os.environ[name] = value
        if self.this_process:
            threading.setprofile(self._start_thread)
        self._start = time.perf_counter()
        if self.this_process:
            self._main.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.this_process:
            self._main.disable()
        self.seconds += time.perf_counter() - self._start
        if self.this_process:
            threading.setprofile(None)  # type: ignore[arg-type]
        for name, value in self._saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    def stats(self) -> pstats.Stats:
        """Merged statistics of every profiled thread and process."""
        merged = pstats.Stats()
        with self._lock:
            sources: List[object] = [self._main, *self._threads]
        sources += [
            os.path.join(self.profile_dir, name)
            for name in sorted(os.listdir(self.profile_dir))
            if name.endswith(".prof")
        ]
        for source in sources:
            try:
                merged.add(source)
            except TypeError:
                pass  # pstats refuses a profile that recorded nothing
        return merged

    def layers(self, package_dir: str) -> Dict[str, Dict[str, float]]:
        """Per-layer self time and call counts (see :mod:`layers`)."""
        return fold(self.stats().stats, Classifier(package_dir))  # type: ignore[attr-defined]

    @property
    def processes(self) -> int:
        """How many processes the merged profile covers."""
        children = sum(name.endswith(".prof") for name in os.listdir(self.profile_dir))
        return children + int(self.this_process)
