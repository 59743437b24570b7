"""Declarative sweep specifications and grid expansion.

A :class:`SweepSpec` names an experiment, one or two axes (anything
:mod:`repro.sweep.axes` resolves), the derived metrics to extract from
each point's run record (:mod:`repro.stats.metrics`), optional
crossover probes, and a shape-check callable pinning the qualitative
claim the sweep reproduces. :meth:`SweepSpec.grid` expands the axes
into ordered :class:`SweepPoint`\\ s, each carrying the exact
``with_overrides`` mapping the harness will run and the config it
resolves to.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.sweep.axes import axis_overrides, merge_overrides

#: A sweep-level shape check: (description, passed, detail).
SweepCheck = Tuple[str, bool, str]


@dataclass(frozen=True)
class CrossoverSpec:
    """One crossover probe: where ``metric`` crosses ``level``.

    e.g. the network latency below which EM3D-SM catches EM3D-MP is
    ``CrossoverSpec("sm-catches-mp", metric="sm_over_mp", level=1.0)``.
    """

    name: str
    metric: str
    level: float
    description: str = ""


@dataclass
class SweepPoint:
    """One grid point: axis coordinates, the overrides, and the config."""

    coords: Dict[str, Any]
    overrides: Dict[str, Any]
    cache_key: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The :class:`~repro.runner.config.ExperimentConfig` the overrides
    #: resolve to.
    config: Any = None

    def label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.coords.items())


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sensitivity sweep over one experiment."""

    name: str
    exp_id: str
    #: Ordered ``(axis, values)`` pairs; one or two axes.
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    #: Metric names resolved through :mod:`repro.stats.metrics`.
    metrics: Tuple[str, ...]
    description: str = ""
    #: Overrides applied to *every* point (e.g. a scaled-down workload).
    base_overrides: Mapping[str, Any] = field(default_factory=dict)
    crossovers: Tuple[CrossoverSpec, ...] = ()
    #: Shape checks over the finished sweep (the machine-checked claim).
    checks: Optional[Callable[[Any], List[SweepCheck]]] = None
    #: Post-pass adding derived per-point metrics (e.g. speedup vs the
    #: 1-proc point); mutates the points' ``metrics`` dicts in place.
    derive: Optional[Callable[[List[SweepPoint]], None]] = None
    #: Sweep-local metric functions, shadowing/extending the registry.
    extra_metrics: Optional[Mapping[str, Callable[[Mapping], float]]] = None

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ValueError(
                f"sweep {self.name!r}: expected one or two axes, "
                f"got {len(self.axes)}"
            )
        for axis, values in self.axes:
            if not values:
                raise ValueError(f"sweep {self.name!r}: axis {axis!r} is empty")
        if not self.metrics:
            raise ValueError(f"sweep {self.name!r}: no metrics declared")

    # -- axis replacement (the CLI's --axis flag) --------------------------

    def with_axes(
        self, replacements: Optional[Mapping[str, Sequence[Any]]]
    ) -> "SweepSpec":
        """A copy with some axes' value lists replaced or appended.

        Replacing an existing axis keeps its position; a new axis is
        appended (still capped at two axes total).
        """
        if not replacements:
            return self
        axes = [list(pair) for pair in self.axes]
        names = [axis for axis, _v in axes]
        for axis, values in replacements.items():
            if axis in names:
                axes[names.index(axis)][1] = tuple(values)
            else:
                axes.append([axis, tuple(values)])
        from dataclasses import replace

        return replace(
            self, axes=tuple((a, tuple(v)) for a, v in axes)
        )

    # -- grid expansion ----------------------------------------------------

    def grid(self) -> List[SweepPoint]:
        """Expand the axes into ordered points (first axis outermost).

        Every point is resolved against the experiment's registered
        :class:`~repro.runner.config.ExperimentConfig`, so an unknown
        axis or an impossible value raises :class:`ValueError` here,
        before any simulation. So does a second axis on a spec with
        shape checks, which read one series along one axis.
        """
        from repro.core.experiments import get_experiment

        base_config = get_experiment(self.exp_id).config
        fragments = [
            [(axis, value, axis_overrides(base_config, axis, value)) for value in values]
            for axis, values in self.axes
        ]
        points: List[SweepPoint] = []
        for combo in itertools.product(*fragments):
            overrides = merge_overrides(
                self.base_overrides, *(frag for _axis, _value, frag in combo)
            )
            points.append(
                SweepPoint(
                    coords={axis: value for axis, value, _frag in combo},
                    overrides=overrides,
                    config=base_config.with_overrides(overrides),
                )
            )
        if self.checks is not None and len(self.axes) > 1:
            raise ValueError(
                f"sweep {self.name!r} has checks, which need a one-axis "
                f"sweep; got axes {[axis for axis, _values in self.axes]}"
            )
        return points

    # -- identity ----------------------------------------------------------

    def grid_key(self) -> str:
        """A stable digest of the expanded grid's identity.

        ``repro serve``'s sweep job ID: the same spec with the same axes
        and base overrides is the same job.
        """
        payload = {
            "name": self.name,
            "exp_id": self.exp_id,
            "axes": [[axis, list(values)] for axis, values in self.axes],
            "base_overrides": _canonical(self.base_overrides),
            "metrics": list(self.metrics),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value
