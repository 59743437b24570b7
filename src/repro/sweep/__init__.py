"""Declarative sensitivity sweeps over the experiment harness.

The paper's strongest conclusions are *sensitivity* statements — how
the MP/SM balance moves with network latency, cache size, and
processor count. :mod:`repro.sweep` turns each such statement into a
declarative :class:`SweepSpec` (experiment + axes + derived metrics +
machine-checked curve shape), an engine that shards the grid over the
parallel executor and serves warm points from the result cache, and
serializable :class:`SweepResult` artifacts (JSON, CSV, ASCII plots).

>>> from repro.sweep import get_sweep, run_sweep
>>> result = run_sweep(get_sweep("em3d-latency"))
>>> result.all_ok
True
"""

from repro.sweep.analysis import find_crossover, monotone, speedup_vs_first
from repro.sweep.axes import (
    axis_overrides,
    known_axes,
    merge_overrides,
    parse_axis_flag,
    parse_axis_value,
)
from repro.sweep.engine import run_sweep
from repro.sweep.plot import render_plot, render_plots
from repro.sweep.result import SWEEP_SCHEMA, SweepResult
from repro.sweep.spec import CrossoverSpec, SweepPoint, SweepSpec


def __getattr__(name: str):
    # Lazy, to avoid a circular import with repro.specs (which builds
    # SweepSpec objects from YAML and therefore imports this package's
    # submodules): the canonical YAML-first resolver, plus the
    # deprecated registry dict round-tripped through the YAML loader.
    if name == "get_sweep":
        from repro.specs import get_sweep

        return get_sweep
    if name == "SWEEP_SPECS":
        from repro.sweep import specs as _legacy

        return _legacy.SWEEP_SPECS  # emits the shim's DeprecationWarning
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SWEEP_SCHEMA",
    "SWEEP_SPECS",
    "CrossoverSpec",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "axis_overrides",
    "find_crossover",
    "get_sweep",
    "known_axes",
    "merge_overrides",
    "monotone",
    "parse_axis_flag",
    "parse_axis_value",
    "render_plot",
    "render_plots",
    "run_sweep",
    "speedup_vs_first",
]
