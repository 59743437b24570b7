"""Frozen, picklable experiment configurations.

Every experiment runner is a top-level ``Callable[[ExperimentConfig],
Any]``: a pure function of an explicit configuration rather than a
zero-argument closure over module globals. That makes runs

* **parameterizable** — sweeps replace fields with
  :meth:`ExperimentConfig.with_overrides` instead of editing module
  constants;
* **picklable** — worker processes receive the config, not a closure;
* **content-addressable** — :meth:`ExperimentConfig.to_jsonable`
  canonicalizes the full configuration (including the resolved
  :class:`~repro.arch.params.MachineParams`) for the cache key.

A config that exists can run: unknown override keys, backends, memory
models and presets raise :class:`ValueError` with a closest-known-name
suggestion (:func:`unknown`), and so does an impossible machine, so a
typo or a zero-processor sweep point fails where the request becomes a
config, before anything is queued or simulated.
"""

from __future__ import annotations

import difflib
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.arch.params import (
    MACHINE_PRESETS,
    MEMORY_MODELS,
    CommonParams,
    MachineParams,
    machine_preset,
)

#: CommonParams fields a config may override via the ``machine`` channel.
#: ``num_processors`` and ``cache_bytes`` are excluded: they have
#: first-class config fields (``procs``, ``cache_bytes``).
MACHINE_FIELDS = tuple(
    f.name
    for f in fields(CommonParams)
    if f.name not in ("num_processors", "cache_bytes")
)


def suggest(name: Any, known: Iterable[str]) -> str:
    """A did-you-mean suffix for an unknown-key error, or ''.

    ``name`` goes through ``str`` first: YAML keys can be ints.
    """
    matches = difflib.get_close_matches(str(name), list(known), n=1, cutoff=0.5)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def unknown(kind: str, name: Any, known: Iterable[str]) -> ValueError:
    """The error for a ``kind`` name that is not one of ``known``.

    Every surface words an unknown name this way:
    ``unknown {kind} {name!r} (did you mean ...?); known: [...]``.
    """
    known = sorted(known)
    return ValueError(
        f"unknown {kind} {name!r}{suggest(name, known)}; known: {known}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameterization of one experiment run.

    ``app`` is the application workload config (``MseConfig``,
    ``GaussConfig``, ...) or ``None`` for experiments without one.
    ``options`` holds experiment-specific knobs as a sorted tuple of
    ``(name, value)`` pairs so the config stays hashable and frozen;
    values must be JSON-representable (str/int/float/bool or tuples
    thereof). ``machine`` holds :class:`~repro.arch.params.CommonParams`
    overrides the same way (``network_latency``, ``block_bytes``,
    ``tlb_entries``, ...) — the sensitivity-sweep axes that are machine
    knobs rather than workload knobs.

    ``backend`` selects the execution backend: ``"batched"`` (default)
    runs zero-stall memory ops as batched steps, ``"reference"`` runs
    the pure per-event scalar semantics. The two are bit-identical in
    every simulated quantity (enforced by the differential backend test
    suite), so the choice only affects wall-clock speed — but it is
    still part of the cache key, keeping records honest about how they
    were produced.

    ``consistency`` selects the shared-memory machine's memory model:
    ``"sc"`` (default) is the paper's sequentially consistent machine,
    bit-identical to the pre-relaxation code path; ``"tso"`` retires
    shared stores through a per-processor FIFO store buffer;
    ``"pc"`` additionally relaxes cross-variable commit order
    (partition consistency). Unlike ``backend``, the model *changes
    simulated results*, so it is both validated and cache-keyed.

    ``preset`` picks the machine table the config starts from:
    ``"paper"`` (Tables 1-3), ``"multicore"``, or ``"cluster"`` (see
    :mod:`repro.arch.params`); ``machine`` overrides then apply on top.
    """

    exp_id: str
    procs: int = 8
    seed: int = 1994
    cache_bytes: Optional[int] = None
    app: Any = None
    options: Tuple[Tuple[str, Any], ...] = ()
    machine: Tuple[Tuple[str, Any], ...] = ()
    backend: str = "batched"
    consistency: str = "sc"
    preset: str = "paper"

    def __post_init__(self) -> None:
        for kind, value, known in (
            ("backend", self.backend, ("batched", "reference")),
            ("consistency", self.consistency, MEMORY_MODELS),
            ("preset", self.preset, MACHINE_PRESETS),
        ):
            if value not in known:
                raise unknown(kind, value, known)
        object.__setattr__(
            self, "options", tuple(sorted((str(k), v) for k, v in self.options))
        )
        object.__setattr__(
            self, "machine", tuple(sorted((str(k), v) for k, v in self.machine))
        )
        for key, _value in self.machine:
            if key not in MACHINE_FIELDS:
                raise unknown("machine override", key, MACHINE_FIELDS)
        self.machine_params()  # an impossible machine raises here

    # -- accessors ---------------------------------------------------------

    def opt(self, name: str, default: Any = None) -> Any:
        """One experiment-specific option, or ``default``."""
        for key, value in self.options:
            if key == name:
                return value
        return default

    def machine_params(self, procs: Optional[int] = None) -> MachineParams:
        """The resolved machine for this run (``preset`` table + overrides)."""
        params = machine_preset(self.preset, num_processors=procs or self.procs)
        if self.machine:
            params = replace(
                params, common=replace(params.common, **dict(self.machine))
            )
        if self.cache_bytes is not None:
            params = params.with_cache_bytes(self.cache_bytes)
        return params

    # -- overrides ---------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentConfig":
        """A copy with some fields replaced (the sweep entry point).

        Top-level field names (``procs``, ``seed``, ``cache_bytes``)
        replace directly. ``app`` accepts either a full replacement
        config or a mapping of app-config fields to replace.
        ``options`` and ``machine`` accept mappings merged over the
        existing tuples. Unknown keys — at the top level, inside an
        ``app`` mapping, naming an option the config does not have, or
        inside a ``machine`` mapping — and an impossible result raise
        :class:`ValueError`.
        """
        field_names = {f.name for f in fields(self)}
        changes: Dict[str, Any] = {}
        for name, value in overrides.items():
            if name == "app" and isinstance(value, Mapping):
                if self.app is None:
                    raise ValueError(f"{self.exp_id} has no app config to override")
                app_fields = {f.name for f in fields(self.app)}
                for key in value:
                    if key not in app_fields:
                        raise unknown("app override", key, app_fields)
                changes["app"] = replace(self.app, **value)
            elif name == "options":
                merged = dict(self.options)
                for key in value:
                    if key not in merged:
                        raise unknown(f"{self.exp_id} option", key, merged)
                merged.update(value)
                changes["options"] = tuple(sorted(merged.items()))
            elif name == "machine":
                merged = dict(self.machine)
                merged.update(value)
                changes["machine"] = tuple(sorted(merged.items()))
            elif name in field_names:
                changes[name] = value
            else:
                raise unknown(f"{self.exp_id} config override", name, field_names)
        return replace(self, **changes)

    # -- canonicalization --------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        """A canonical, JSON-safe dict of the *full* configuration.

        Includes the resolved machine parameters so that a change to
        any Table 1-3 default invalidates cached results even without
        a code-salt bump. The ``machine`` override tuple and ``preset``
        need no entries of their own: their effect is entirely contained
        in the resolved parameters, so two spellings of the same machine
        share a key. ``consistency`` changes execution semantics beyond
        the parameter tables, so it is keyed explicitly.
        """
        return {
            "exp_id": self.exp_id,
            "procs": self.procs,
            "seed": self.seed,
            "cache_bytes": self.cache_bytes,
            "app": _jsonable(self.app),
            "options": _jsonable(dict(self.options)),
            "machine": asdict(self.machine_params()),
            "backend": self.backend,
            "consistency": self.consistency,
        }


def _jsonable(value: Any) -> Any:
    """Recursively convert configs to JSON-safe structures."""
    if is_dataclass(value) and not isinstance(value, type):
        out = {"__type__": type(value).__name__}
        out.update({k: _jsonable(v) for k, v in asdict(value).items()})
        return out
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(
        f"config value {value!r} ({type(value).__name__}) is not JSON-safe"
    )
