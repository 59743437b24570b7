"""Sweep axes: names users sweep over, resolved to config overrides.

An *axis* is anything :meth:`ExperimentConfig.with_overrides` accepts,
addressed by a flat name:

* top-level config fields — ``procs``, ``seed``, ``cache_bytes`` (and
  the convenience alias ``cache_kb``), plus the categorical channels
  ``consistency`` (sc/tso/pc) and ``preset`` (paper/multicore/cluster);
* machine knobs — any overridable
  :class:`~repro.arch.params.CommonParams` field (``network_latency``,
  ``block_bytes``, ``tlb_entries``, ``page_bytes``, ...), with
  ``net_latency`` as the paper-speak alias;
* application workload fields — bare (``n``, ``nodes_per_proc``,
  ``iterations``) or qualified (``app.n``);
* experiment options — qualified only (``options.asynchronous``).

:func:`axis_overrides` turns one ``(axis, value)`` pair into an
overrides fragment; :func:`merge_overrides` composes fragments (and a
spec's base overrides) into the single mapping a grid point hands to
``with_overrides``. Unknown axis names fail loudly with a
did-you-mean suggestion — a typo must not silently sweep nothing.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List, Mapping, Tuple

from repro.runner.config import MACHINE_FIELDS, ExperimentConfig, suggest

#: Alias -> canonical axis spelling.
ALIASES = {
    "net_latency": "network_latency",
    "nprocs": "procs",
}

#: Top-level ExperimentConfig fields addressable as axes.
#: ``consistency`` (sc/tso/pc) and ``preset`` (paper/multicore/cluster)
#: are categorical: sweeping them re-asks a spec's question across
#: memory models or machine tables.
_TOP_LEVEL = ("procs", "seed", "cache_bytes", "consistency", "preset")

#: Mapping-valued override channels, deep-merged by merge_overrides.
_MERGED_CHANNELS = ("app", "options", "machine")


def known_axes(config: ExperimentConfig) -> List[str]:
    """Every valid axis name for this experiment's configuration."""
    names = list(_TOP_LEVEL) + ["cache_kb"]
    names += [n for n in MACHINE_FIELDS]
    names += [a for a, c in ALIASES.items() if c in names]
    if config.app is not None:
        app_fields = [f.name for f in fields(config.app)]
        names += [f"app.{name}" for name in app_fields]
        taken = set(names)
        names += [name for name in app_fields if name not in taken]
    names += [f"options.{key}" for key, _v in config.options]
    return names


def axis_overrides(
    config: ExperimentConfig, axis: str, value: Any
) -> Dict[str, Any]:
    """One axis point as a ``with_overrides`` fragment.

    ``axis_overrides(cfg, "net_latency", 50)`` ->
    ``{"machine": {"network_latency": 50}}``.
    """
    name = ALIASES.get(axis, axis)
    if name == "cache_kb":
        return {"cache_bytes": int(value * 1024)}
    if name in _TOP_LEVEL:
        return {name: value}
    if name in MACHINE_FIELDS:
        return {"machine": {name: value}}
    if name.startswith("app."):
        field = name[len("app."):]
        if config.app is not None and field in {
            f.name for f in fields(config.app)
        }:
            return {"app": {field: value}}
    elif name.startswith("options."):
        return {"options": {name[len("options."):]: value}}
    elif config.app is not None and name in {f.name for f in fields(config.app)}:
        return {"app": {name: value}}
    known = known_axes(config)
    raise ValueError(
        f"unknown sweep axis {axis!r} for {config.exp_id}"
        f"{suggest(axis, known)}; "
        f"known axes: {known}"
    )


def merge_overrides(*fragments: Mapping[str, Any]) -> Dict[str, Any]:
    """Compose override fragments; later fragments win per key.

    The mapping-valued channels (``app``, ``options``, ``machine``)
    are merged key-by-key so two axes can both target app fields.
    """
    merged: Dict[str, Any] = {}
    for fragment in fragments:
        for key, value in fragment.items():
            if key in _MERGED_CHANNELS and isinstance(value, Mapping):
                channel = dict(merged.get(key) or {})
                channel.update(value)
                merged[key] = channel
            else:
                merged[key] = value
    return merged


def parse_axis_value(text: str) -> Any:
    """One CLI axis value: int when possible, then float, bool, string."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text.strip()


def parse_axis_flag(text: str) -> Tuple[str, Tuple[Any, ...]]:
    """Parse one ``--axis name=v1,v2,...`` argument."""
    if "=" not in text:
        raise ValueError(
            f"bad --axis {text!r}: expected name=v1,v2,... "
            "(e.g. net_latency=0,50,100)"
        )
    name, _eq, values_text = text.partition("=")
    name = name.strip()
    values = tuple(
        parse_axis_value(part)
        for part in values_text.split(",")
        if part.strip() != ""
    )
    if not name or not values:
        raise ValueError(f"bad --axis {text!r}: empty axis name or value list")
    return name, values
