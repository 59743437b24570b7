"""The sweep engine: expand, run through the cache, analyze.

:func:`run_sweep` drives one :class:`~repro.sweep.spec.SweepSpec`
through the runner harness:

1. **Expand** the grid against the experiment's default config, each
   point resolved to its config (axis typos and impossible values fail
   here, before any simulation).
2. **Run** the points through :func:`~repro.runner.api.run_cached`:
   warm points come from the on-disk
   :class:`~repro.runner.cache.ResultCache`, cold ones are sharded in
   batches over the executor's spawned workers (``--jobs``), and each
   finished record is stored as it arrives. The point records are the
   sweep's only stored form: rerunning an interrupted or enlarged
   sweep simulates only the missing points, and an immediate rerun
   simulates nothing.
3. **Analyze**: extract the spec's metrics from each record summary,
   run the derive post-pass (e.g. speedup vs the 1-proc point), probe
   crossovers, and evaluate the sweep-level shape checks.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.runner.api import run_cached
from repro.runner.cache import ResultCache, cache_key
from repro.runner.executor import default_jobs, plan_batches
from repro.runner.record import RunRecord
from repro.stats.metrics import derive_metrics
from repro.sweep.analysis import crossover_report
from repro.sweep.result import SWEEP_SCHEMA, SweepResult
from repro.sweep.spec import SweepPoint, SweepSpec

#: progress(done, total, point, record, simulated)
ProgressFn = Callable[[int, int, SweepPoint, RunRecord, bool], None]


def run_sweep(
    spec: SweepSpec,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run one sweep end to end; see the module docstring for phases."""
    jobs = default_jobs() if jobs is None else max(1, jobs)
    spec = spec.with_axes(axes)
    points = spec.grid()
    by_key: Dict[str, List[SweepPoint]] = {}
    for point in points:
        point.cache_key = cache_key(point.config)
        by_key.setdefault(point.cache_key, []).append(point)

    started = time.perf_counter()
    done = simulated = 0

    def note(record: RunRecord, cold: bool) -> None:
        # One call per distinct record; every point it answers
        # (duplicate coordinates included) gets its own progress line.
        nonlocal done, simulated
        simulated += cold
        for point in by_key[record.cache_key]:
            done += 1
            if progress is not None:
                progress(done, len(points), point, record, cold)

    records = run_cached(
        [(spec.exp_id, point.overrides) for point in points],
        lambda items: plan_batches(items, jobs=jobs),
        jobs=jobs,
        cache=cache,
        use_cache=use_cache,
        force=force,
        progress=note,
    )

    # -- metric extraction and analysis ------------------------------------
    for point in points:
        point.metrics = derive_metrics(
            records[point.cache_key].summary, spec.metrics, spec.extra_metrics
        )
    if spec.derive is not None:
        spec.derive(points)

    result = SweepResult(
        spec_name=spec.name,
        exp_id=spec.exp_id,
        description=spec.description,
        axes=[[axis, list(values)] for axis, values in spec.axes],
        metrics=list(spec.metrics),
        points=[
            {
                "coords": dict(point.coords),
                "cache_key": point.cache_key,
                "metrics": dict(point.metrics),
            }
            for point in points
        ],
        schema=SWEEP_SCHEMA,
    )
    result.crossovers = _probe_crossovers(spec, result)
    if spec.checks is not None:
        result.checks = [
            [name, bool(ok), detail] for name, ok, detail in spec.checks(result)
        ]
    result.meta = {
        "points": len(points),
        "simulated": simulated,
        "cached": len(points) - simulated,
        "jobs": jobs,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }
    return result


def _probe_crossovers(
    spec: SweepSpec, result: SweepResult
) -> List[Dict[str, Any]]:
    """Evaluate the spec's crossover probes (one-dimensional sweeps)."""
    reports: List[Dict[str, Any]] = []
    for probe in spec.crossovers:
        if len(spec.axes) != 1:
            reports.append(
                {
                    "name": probe.name,
                    "metric": probe.metric,
                    "level": probe.level,
                    "axis": None,
                    "crossed": False,
                    "at": None,
                    "detail": "crossover probes need a one-axis sweep",
                }
            )
            continue
        axis = spec.axes[0][0]
        xs, ys = result.series(probe.metric)
        if not all(isinstance(x, (int, float)) for x in xs):
            reports.append(
                {
                    "name": probe.name,
                    "metric": probe.metric,
                    "level": probe.level,
                    "axis": axis,
                    "crossed": False,
                    "at": None,
                    "detail": f"axis {axis!r} is not numeric",
                }
            )
            continue
        reports.append(
            crossover_report(
                probe.name, axis, xs, ys, probe.metric, probe.level,
                probe.description,
            )
        )
    return reports
