"""YAML experiment/sweep spec loading, validation, and discovery.

Scenarios are *data, not code*: a sweep or experiment variant is a
small YAML document under ``specs/sweeps/`` or ``specs/experiments/``
(the CursorProject experiments-registry idiom), resolved here into the
exact frozen dataclasses the Python registrations used to build —
bit-identical, down to the cache keys of every grid point.

Sweep spec format (``specs/sweeps/<id>.yaml``)::

    kind: sweep
    id: em3d-latency          # the name `repro sweep <id>` resolves
    category: paper           # free-form grouping for listings
    experiment: em3d          # registered experiment id
    description: >-
      One-paragraph claim the sweep pins.
    base_overrides:           # applied to every grid point (optional)
      procs: 4
      app: {nodes_per_proc: 40, degree: 4, iterations: 3}
    axes:                     # one or two
      - axis: net_latency
        values: [0, 25, 50, 100, 200]
    metrics: [mp_total, sm_total, sm_over_mp]
    crossovers:               # optional probes
      - name: sm-catches-mp
        metric: sm_over_mp
        level: 1.0
        description: latency below which SM would match MP
    checks: em3d-latency      # named callable (repro.specs.library)
    derive: speedup-vs-first  # optional named callable
    extra_metrics: my-set     # optional named extra-metric set

Experiment spec format (``specs/experiments/<id>.yaml``)::

    kind: experiment
    id: em3d-small
    category: scaled
    experiment: em3d
    description: ...
    overrides:                # ExperimentConfig.with_overrides mapping
      procs: 4
      app: {nodes_per_proc: 40, degree: 4, iterations: 3}

Validation happens at load time with the CLI's did-you-mean errors:
unknown document keys, unknown experiments, unknown metrics, unknown
named callables, unknown axis/override names, and impossible values
at any grid point (a sweep resolves every point's config) all fail
loudly before any simulation. Search path for named specs:
``$REPRO_SPECS_DIR`` (if set), ``./specs/``, then the repository's
shipped ``specs/`` directory; within one directory a duplicate id is
an error, across directories the first hit wins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.runner.config import suggest, unknown
from repro.sweep.spec import CrossoverSpec, SweepSpec

#: Environment override for the spec search path (one directory).
ENV_SPECS_DIR = "REPRO_SPECS_DIR"

#: The repository's shipped spec directory (absent in wheel installs).
SHIPPED_SPECS_DIR = Path(__file__).resolve().parents[3] / "specs"

#: Subdirectory per spec kind.
KIND_DIRS = {"sweep": "sweeps", "experiment": "experiments"}

_SWEEP_KEYS = (
    "kind", "id", "category", "experiment", "description", "base_overrides",
    "axes", "metrics", "crossovers", "checks", "derive", "extra_metrics",
)
_EXPERIMENT_KEYS = (
    "kind", "id", "category", "experiment", "description", "overrides",
)
_AXIS_KEYS = ("axis", "values")
_CROSSOVER_KEYS = ("name", "metric", "level", "description")


class SpecError(ValueError):
    """A malformed or unresolvable YAML spec (message names the file)."""


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise SpecError(
            "YAML spec support needs the 'pyyaml' package "
            "(pip install pyyaml)"
        ) from exc
    return yaml


def _reject_unknown_keys(
    doc: Mapping[str, Any], known: Sequence[str], where: str
) -> None:
    for key in doc:
        if key not in known:
            raise SpecError(f"{where}: {unknown('key', key, known)}")


def _require(doc: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in doc:
        raise SpecError(f"{where}: missing required key {key!r}")
    return doc[key]


@dataclass(frozen=True)
class ExperimentSpecDoc:
    """A YAML experiment variant: a registered experiment + overrides.

    :meth:`resolve` produces the frozen
    :class:`~repro.runner.config.ExperimentConfig` — exactly what
    ``api.resolve_config(experiment, overrides)`` returns, so a YAML
    variant and a Python registration share cache keys bit-for-bit.
    """

    id: str
    experiment: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    category: str = ""
    description: str = ""
    path: str = ""

    def resolve(self):
        from repro.runner.api import resolve_config

        return resolve_config(self.experiment, self.overrides or None)


@dataclass(frozen=True)
class SpecInfo:
    """Listing metadata for one discovered spec (``api.specs()``)."""

    id: str
    kind: str
    experiment: str
    category: str
    description: str
    path: str


# ---------------------------------------------------------------------------
# Parsing one document.
# ---------------------------------------------------------------------------


def _parse_doc(path: Path) -> Dict[str, Any]:
    where = str(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"{where}: cannot read spec: {exc}") from exc
    yaml = _yaml()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SpecError(f"{where}: invalid YAML: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise SpecError(
            f"{where}: spec must be a YAML mapping, got "
            f"{type(doc).__name__}"
        )
    return dict(doc)


def _doc_kind(doc: Mapping[str, Any], where: str) -> str:
    kind = _require(doc, "kind", where)
    if kind not in KIND_DIRS:
        raise SpecError(f"{where}: {unknown('kind', kind, KIND_DIRS)}")
    return kind


def _known_experiment(exp_id: Any, where: str) -> str:
    from repro.core.experiments import EXPERIMENTS

    if not isinstance(exp_id, str) or exp_id not in EXPERIMENTS:
        raise SpecError(f"{where}: {unknown('experiment', exp_id, EXPERIMENTS)}")
    return exp_id


def _build_sweep(doc: Mapping[str, Any], where: str) -> SweepSpec:
    from repro.specs import library
    from repro.stats.metrics import METRICS

    _reject_unknown_keys(doc, _SWEEP_KEYS, where)
    spec_id = _require(doc, "id", where)
    if not isinstance(spec_id, str) or not spec_id:
        raise SpecError(f"{where}: 'id' must be a non-empty string")
    exp_id = _known_experiment(_require(doc, "experiment", where), where)

    raw_axes = _require(doc, "axes", where)
    if not isinstance(raw_axes, list) or not raw_axes:
        raise SpecError(f"{where}: 'axes' must be a non-empty list")
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    for i, entry in enumerate(raw_axes):
        axis_where = f"{where}: axes[{i}]"
        if not isinstance(entry, Mapping):
            raise SpecError(f"{axis_where} must be a mapping with axis/values")
        _reject_unknown_keys(entry, _AXIS_KEYS, axis_where)
        axis = _require(entry, "axis", axis_where)
        values = _require(entry, "values", axis_where)
        if not isinstance(values, list) or not values:
            raise SpecError(
                f"{axis_where}: 'values' must be a non-empty list"
            )
        axes.append((str(axis), tuple(values)))

    raw_metrics = _require(doc, "metrics", where)
    if not isinstance(raw_metrics, list) or not raw_metrics:
        raise SpecError(f"{where}: 'metrics' must be a non-empty list")

    extra_metrics = None
    if "extra_metrics" in doc:
        extra_metrics = library.resolve_extra_metrics(
            str(doc["extra_metrics"]), where
        )
    extra_names = set(extra_metrics or ())
    derived_names = set()
    if "derive" in doc:
        # Derived metrics appear after the post-pass; metric validation
        # cannot see them, so only registry/extra names are checked.
        derived_names = {f"{side}_speedup" for side in ("mp", "sm")}
    for name in raw_metrics:
        if name in METRICS or name in extra_names or name in derived_names:
            continue
        raise SpecError(f"{where}: {unknown('metric', name, set(METRICS) | extra_names)}")

    crossovers: List[CrossoverSpec] = []
    for i, entry in enumerate(doc.get("crossovers") or []):
        probe_where = f"{where}: crossovers[{i}]"
        if not isinstance(entry, Mapping):
            raise SpecError(f"{probe_where} must be a mapping")
        _reject_unknown_keys(entry, _CROSSOVER_KEYS, probe_where)
        crossovers.append(
            CrossoverSpec(
                name=str(_require(entry, "name", probe_where)),
                metric=str(_require(entry, "metric", probe_where)),
                level=float(_require(entry, "level", probe_where)),
                description=str(entry.get("description", "")),
            )
        )

    base_overrides = doc.get("base_overrides") or {}
    if not isinstance(base_overrides, Mapping):
        raise SpecError(f"{where}: 'base_overrides' must be a mapping")

    try:
        spec = SweepSpec(
            name=spec_id,
            exp_id=exp_id,
            description=str(doc.get("description", "")),
            axes=tuple(axes),
            metrics=tuple(str(m) for m in raw_metrics),
            base_overrides=dict(base_overrides),
            crossovers=tuple(crossovers),
            checks=(
                library.resolve_checks(str(doc["checks"]), where)
                if "checks" in doc
                else None
            ),
            derive=(
                library.resolve_derive(str(doc["derive"]), where)
                if "derive" in doc
                else None
            ),
            extra_metrics=extra_metrics,
        )
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc

    # Resolve every grid point against the real experiment config, so a
    # typo or an impossible value fails at load, not mid-sweep.
    try:
        spec.grid()
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    return spec


def _build_experiment(doc: Mapping[str, Any], where: str) -> ExperimentSpecDoc:
    _reject_unknown_keys(doc, _EXPERIMENT_KEYS, where)
    spec_id = _require(doc, "id", where)
    if not isinstance(spec_id, str) or not spec_id:
        raise SpecError(f"{where}: 'id' must be a non-empty string")
    exp_id = _known_experiment(_require(doc, "experiment", where), where)
    overrides = doc.get("overrides") or {}
    if not isinstance(overrides, Mapping):
        raise SpecError(f"{where}: 'overrides' must be a mapping")
    spec = ExperimentSpecDoc(
        id=spec_id,
        experiment=exp_id,
        overrides=dict(overrides),
        category=str(doc.get("category", "")),
        description=str(doc.get("description", "")),
        path=where,
    )
    try:
        spec.resolve()  # validates override keys with did-you-mean
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc
    return spec


def _load(path: Path) -> Tuple[Union[SweepSpec, ExperimentSpecDoc], Dict[str, Any]]:
    """One spec file, parsed once: the validated spec and its document."""
    doc = _parse_doc(path)
    if _doc_kind(doc, str(path)) == "sweep":
        return _build_sweep(doc, str(path)), doc
    return _build_experiment(doc, str(path)), doc


def load_spec_file(path: Union[str, os.PathLike]) -> Union[SweepSpec, ExperimentSpecDoc]:
    """Load and validate one YAML spec file (either kind)."""
    return _load(Path(path))[0]


def spec_info(path: Union[str, os.PathLike]) -> SpecInfo:
    """Listing metadata for one spec file (validates it fully)."""
    path = Path(path)
    spec, doc = _load(path)
    if isinstance(spec, SweepSpec):
        spec_id, kind, experiment = spec.name, "sweep", spec.exp_id
    else:
        spec_id, kind, experiment = spec.id, "experiment", spec.experiment
    return SpecInfo(
        id=spec_id,
        kind=kind,
        experiment=experiment,
        category=str(doc.get("category", "")),
        description=spec.description,
        path=str(path),
    )


# ---------------------------------------------------------------------------
# Discovery.
# ---------------------------------------------------------------------------


def spec_dirs() -> List[Path]:
    """The spec search path, most-specific first, deduplicated."""
    candidates: List[Path] = []
    env = os.environ.get(ENV_SPECS_DIR)
    if env:
        candidates.append(Path(env))
    candidates.append(Path.cwd() / "specs")
    candidates.append(SHIPPED_SPECS_DIR)
    seen = set()
    out: List[Path] = []
    for path in candidates:
        try:
            resolved = path.resolve()
        except OSError:  # pragma: no cover - unresolvable path
            continue
        if resolved in seen or not path.is_dir():
            continue
        seen.add(resolved)
        out.append(path)
    return out


def iter_spec_files(kind: Optional[str] = None) -> List[Path]:
    """Every discoverable spec file, search-path order then name order."""
    kinds = [kind] if kind else list(KIND_DIRS)
    out: List[Path] = []
    for directory in spec_dirs():
        for k in kinds:
            sub = directory / KIND_DIRS[k]
            if not sub.is_dir():
                continue
            out.extend(sorted(
                p for ext in ("*.yaml", "*.yml") for p in sub.glob(ext)
            ))
    return out


def _discover(kind: str) -> Dict[str, Union[SweepSpec, ExperimentSpecDoc]]:
    """id -> spec for one kind; duplicate ids in one directory error."""
    out: Dict[str, Union[SweepSpec, ExperimentSpecDoc]] = {}
    for directory in spec_dirs():
        sub = directory / KIND_DIRS[kind]
        if not sub.is_dir():
            continue
        local: Dict[str, Path] = {}
        for path in sorted(
            p for ext in ("*.yaml", "*.yml") for p in sub.glob(ext)
        ):
            spec = load_spec_file(path)
            spec_id = spec.name if isinstance(spec, SweepSpec) else spec.id
            if spec_id in local:
                raise SpecError(
                    f"duplicate spec id {spec_id!r} in {sub}: "
                    f"{local[spec_id].name} and {path.name}"
                )
            local[spec_id] = path
            # Across directories the first (most specific) hit wins.
            out.setdefault(spec_id, spec)
    return out


def discovered_sweeps() -> Dict[str, SweepSpec]:
    """Every discoverable YAML sweep spec, by id."""
    return {k: v for k, v in _discover("sweep").items()}  # type: ignore[misc]


def discovered_experiments() -> Dict[str, ExperimentSpecDoc]:
    """Every discoverable YAML experiment spec, by id."""
    return {k: v for k, v in _discover("experiment").items()}  # type: ignore[misc]


def list_specs(kind: Optional[str] = None) -> List[SpecInfo]:
    """Listing metadata for every discoverable spec (``api.specs()``)."""
    out: List[SpecInfo] = []
    seen = set()
    for path in iter_spec_files(kind):
        info = spec_info(path)
        if (info.kind, info.id) in seen:
            continue  # shadowed by an earlier search-path directory
        seen.add((info.kind, info.id))
        out.append(info)
    return out


# ---------------------------------------------------------------------------
# Resolution: ids, paths, globs.
# ---------------------------------------------------------------------------


def _looks_like_path(ref: str) -> bool:
    return (
        ref.endswith((".yaml", ".yml"))
        or os.sep in ref
        or ("/" in ref)
    )


def load_spec(ref: str) -> Union[SweepSpec, ExperimentSpecDoc]:
    """Load a spec by filesystem path or discoverable id.

    A ``ref`` containing a path separator or a ``.yaml``/``.yml``
    suffix is read as a file; anything else is looked up by id across
    the spec search path (sweeps first, then experiments), with a
    did-you-mean error when nothing matches.
    """
    if _looks_like_path(ref):
        path = Path(ref)
        if not path.is_file():
            raise SpecError(f"no spec file at {ref!r}")
        return load_spec_file(path)
    sweeps = discovered_sweeps()
    if ref in sweeps:
        return sweeps[ref]
    experiments = discovered_experiments()
    if ref in experiments:
        return experiments[ref]
    known = sorted(set(sweeps) | set(experiments))
    raise SpecError(
        f"unknown spec {ref!r}{suggest(ref, known)}; available: {known}"
    )


def load_sweep(ref: str) -> SweepSpec:
    """Load one sweep spec by path or id; experiment specs are an error."""
    spec = load_spec(ref)
    if not isinstance(spec, SweepSpec):
        raise SpecError(
            f"spec {ref!r} is an experiment spec, not a sweep "
            "(run it via api.record_for with its overrides)"
        )
    return spec


def get_sweep(name: str) -> SweepSpec:
    """The canonical sweep-name resolver: YAML first, registry shim second.

    ``repro sweep <name>``, ``api.sweep(name)``, and the serve endpoint
    all come through here. YAML specs (shipped or user-dir) win; names
    registered in the deprecated ``repro.sweep.specs.SWEEP_SPECS`` dict
    still resolve afterwards, so legacy Python registrations keep
    working through the migration.
    """
    if _looks_like_path(name):
        return load_sweep(name)
    sweeps = discovered_sweeps()
    if name in sweeps:
        return sweeps[name]
    from repro.sweep import specs as _legacy

    legacy = _legacy._registry()
    if name in legacy:
        return legacy[name]
    known = sorted(set(sweeps) | set(legacy))
    raise ValueError(
        f"unknown sweep {name!r}{suggest(name, known)}; available: "
        + ", ".join(known)
    )


def expand_glob(pattern: str) -> List[Path]:
    """Expand a ``--glob`` pattern into spec file paths, sorted.

    Relative patterns resolve against the working directory (the
    documented invocation is ``repro sweep --glob
    "specs/sweeps/em3d-*.yaml"`` from the repository root); when a
    relative pattern matches nothing there, the shipped spec directory
    is tried as a fallback anchor.
    """
    import glob as _glob

    matches = sorted(_glob.glob(pattern, recursive=True))
    if not matches and not os.path.isabs(pattern):
        rooted = str(SHIPPED_SPECS_DIR.parent / pattern)
        matches = sorted(_glob.glob(rooted, recursive=True))
    return [Path(m) for m in matches]
