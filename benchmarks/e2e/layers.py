"""Module -> layer map, and the fold of cProfile statistics into layers.

Every module under ``src/repro`` is listed under exactly one layer (the
tests check the listing against the source tree, so a new or moved
module fails them until someone decides where it belongs). Code outside
``repro`` is split into ``numpy``, ``builtins`` (C functions that compute),
``wait`` (C functions that block: lock, select, socket and pipe reads,
sleeps; and multiprocessing's resource tracker, which only reads its
pipe) and ``other`` (the rest of the Python stdlib and this benchmark).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Mapping, Tuple

#: layer -> the ``repro`` modules it owns (dotted, without the ``repro.`` prefix).
MODULES: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim.engine",),
    "sim.process": ("sim.process",),
    "sim.batch": ("sim.batch",),
    "sim.other": ("sim", "sim.events", "sim.resource", "sim.rng"),
    "sm.api": ("sm.api",),
    "sm.batched": ("sm.batched",),
    "sm.directory": ("sm.directory",),
    "sm.cache_ctrl": ("sm.cache_ctrl",),
    "sm.other": ("sm", "sm.machine", "sm.mcs", "sm.parmacs", "sm.protocol", "sm.relaxed"),
    "mp.api": ("mp.api",),
    "mp.batched": ("mp.batched",),
    "mp.netiface": ("mp.netiface",),
    "mp.active_messages": ("mp.active_messages",),
    "mp.cmmd": ("mp.cmmd",),
    "mp.collectives": ("mp.collectives",),
    "mp.other": ("mp", "mp.machine"),
    "arch": (
        "arch", "arch.address", "arch.barrier", "arch.cache", "arch.costs",
        "arch.params", "arch.tlb", "arch.write_buffer",
    ),
    "memory": ("memory", "memory.dataspace"),
    "stats": (
        "stats", "stats.categories", "stats.collector", "stats.metrics",
        "stats.report",
    ),
    "apps": (
        "apps",
        "apps.em3d", "apps.em3d.common", "apps.em3d.mp", "apps.em3d.sm",
        "apps.gauss", "apps.gauss.common", "apps.gauss.mp", "apps.gauss.sm",
        "apps.lcp", "apps.lcp.common", "apps.lcp.mp", "apps.lcp.sm",
        "apps.mse", "apps.mse.common", "apps.mse.mp", "apps.mse.sm",
    ),
    "core": (
        "core", "core.breakdown", "core.experiments", "core.fidelity",
        "core.paper_data", "core.study", "core.tables",
    ),
    # Result records, the cache, the executor, and the facades over them.
    "runner": (
        "", "__main__", "api", "bench",
        "runner", "runner.api", "runner.bench", "runner.cache", "runner.config",
        "runner.executor", "runner.record",
        "sweep", "sweep.analysis", "sweep.axes", "sweep.engine", "sweep.plot",
        "sweep.result", "sweep.spec", "sweep.specs",
        "lake", "lake.query", "lake.store",
    ),
    "cli": ("cli",),
    "serve": (
        "serve", "serve.admission", "serve.coalesce", "serve.eviction",
        "serve.jobqueue", "serve.schemas", "serve.server", "serve.store",
    ),
    "specs": ("specs", "specs.library", "specs.loader"),
    # The opt-in tracer and invariant checker (null objects when off).
    "instrument": (
        "check", "check.errors", "check.litmus", "check.monitor", "check.stress",
        "trace", "trace.chrome", "trace.timeline", "trace.tracer",
    ),
}

FOREIGN_LAYERS = ("numpy", "builtins", "wait", "other")

LAYERS: Tuple[str, ...] = tuple(MODULES) + FOREIGN_LAYERS

_LAYER_OF: Dict[str, str] = {
    module: layer for layer, modules in MODULES.items() for module in modules
}

#: Substrings of cProfile's names for C functions that block the thread.
_BLOCKING = (
    "of '_thread.lock' objects", "of '_thread.RLock' objects",
    "time.sleep", "select.", "'poll' of", "'select' of", "'recv",
    "'accept", "'readinto'", "'read' of '_io", "posix.read>",
    "posix.waitpid", "posix.waitstatus", "'communicate'",
)

#: Python files whose self time is a blocking read: multiprocessing's
#: resource-tracker process loops over its pipe for its whole life.
_WAITING_FILES = (os.path.join("multiprocessing", "resource_tracker.py"),)


def repro_modules(package_dir: str) -> Iterable[str]:
    """Dotted names (without ``repro.``) of every module in the package."""
    for dirpath, _dirs, files in os.walk(package_dir):
        rel = os.path.relpath(dirpath, package_dir)
        prefix = "" if rel == "." else rel.replace(os.sep, ".")
        for name in files:
            if not name.endswith(".py"):
                continue
            stem = name[:-3]
            if stem == "__init__":
                yield prefix
            else:
                yield f"{prefix}.{stem}" if prefix else stem


class Classifier:
    """Maps a cProfile function key ``(file, line, name)`` to a layer."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._memo: Dict[str, str] = {}

    def __call__(self, key: Tuple[str, int, str]) -> str:
        filename, _line, name = key
        if filename == "~":
            if "numpy" in name:
                return "numpy"
            if any(marker in name for marker in _BLOCKING):
                return "wait"
            return "builtins"
        layer = self._memo.get(filename)
        if layer is None:
            layer = self._memo[filename] = self._file_layer(filename)
        return layer

    def _file_layer(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if path.startswith(self.package_dir):
            rel = path[len(self.package_dir):-len(".py")].replace(os.sep, ".")
            if rel == "__init__":
                rel = ""
            elif rel.endswith(".__init__"):
                rel = rel[: -len(".__init__")]
            return _LAYER_OF.get(rel, "other")
        if f"{os.sep}numpy{os.sep}" in path:
            return "numpy"
        if path.endswith(_WAITING_FILES):
            return "wait"
        return "other"


def fold(
    stats: Mapping[Tuple[str, int, str], tuple], classify: Classifier
) -> Dict[str, Dict[str, float]]:
    """Sum ``pstats.Stats.stats`` self time and call counts per layer.

    Every layer appears in the result, with zeros where no function of it ran.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for key, (_prim, calls, self_time, _cum, _callers) in stats.items():
        row = out[classify(key)]
        row["self_s"] += self_time
        row["calls"] += calls
    return out
