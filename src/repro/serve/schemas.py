"""Request/response shapes for the ``repro serve`` HTTP surface.

The service speaks plain JSON over two submission endpoints. This
module owns the *structural* validation — required keys, types,
unknown-key rejection with a did-you-mean — and returns small frozen
request objects. Semantic validation (does the experiment exist, are
the override keys real config fields, can the machine exist, for a
sweep at every grid point) happens when the queue resolves the request
into configs (:class:`~repro.runner.config.ExperimentConfig`) at submit;
both layers raise :class:`SchemaError`, which the server maps to a
``400`` with the message in the body, so a curl user sees exactly the
same error text a CLI user would.

Submission bodies::

    POST /v1/runs    {"experiment": "em3d", "overrides": {...}, "force": false}
    POST /v1/sweeps  {"spec": "em3d-latency", "axes": {"net_latency": [0, 100]},
                      "jobs": 2, "force": false}

Every response is a JSON *job envelope* (see
:meth:`repro.serve.jobqueue.Job.to_jsonable`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.runner.config import unknown


class SchemaError(ValueError):
    """A malformed or semantically invalid request body (HTTP 400)."""


def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SchemaError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    return data


def _reject_unknown_keys(
    data: Mapping[str, Any], known: Tuple[str, ...], what: str
) -> None:
    for key in data:
        if key not in known:
            raise SchemaError(str(unknown(f"{what} field", key, known)))


def _opt_bool(data: Mapping[str, Any], key: str, what: str) -> bool:
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{what} field {key!r} must be a boolean")
    return value


@dataclass(frozen=True)
class RunRequest:
    """A validated ``POST /v1/runs`` body."""

    exp_id: str
    overrides: Dict[str, Any] = field(default_factory=dict)
    force: bool = False


@dataclass(frozen=True)
class SweepRequest:
    """A validated ``POST /v1/sweeps`` body."""

    spec: str
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    jobs: Optional[int] = None
    force: bool = False


def parse_run_request(data: Any) -> RunRequest:
    """Structurally validate a run submission body."""
    data = _require_mapping(data, "run request")
    _reject_unknown_keys(
        data, ("experiment", "overrides", "force"), "run request"
    )
    exp_id = data.get("experiment")
    if not isinstance(exp_id, str) or not exp_id:
        raise SchemaError(
            "run request needs an 'experiment' string "
            "(see GET /v1/experiments or `repro list`)"
        )
    overrides = data.get("overrides") or {}
    overrides = dict(_require_mapping(overrides, "run request 'overrides'"))
    return RunRequest(
        exp_id=exp_id,
        overrides=overrides,
        force=_opt_bool(data, "force", "run request"),
    )


def parse_sweep_request(data: Any) -> SweepRequest:
    """Structurally validate a sweep submission body."""
    data = _require_mapping(data, "sweep request")
    _reject_unknown_keys(
        data, ("spec", "axes", "jobs", "force"), "sweep request"
    )
    spec = data.get("spec")
    if not isinstance(spec, str) or not spec:
        raise SchemaError(
            "sweep request needs a 'spec' string naming a shipped sweep "
            "(em3d-latency, em3d-cache, gauss-speedup)"
        )
    raw_axes = data.get("axes") or {}
    raw_axes = _require_mapping(raw_axes, "sweep request 'axes'")
    axes: Dict[str, List[Any]] = {}
    for name, values in raw_axes.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise SchemaError(
                f"sweep axis {name!r} must be a non-empty list of values"
            )
        axes[str(name)] = list(values)
    jobs = data.get("jobs")
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise SchemaError("sweep request 'jobs' must be a positive integer")
    return SweepRequest(
        spec=spec,
        axes=axes,
        jobs=jobs,
        force=_opt_bool(data, "force", "sweep request"),
    )
