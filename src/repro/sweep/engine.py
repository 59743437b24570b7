"""The sweep engine: expand, shard, cache, resume, analyze.

:func:`run_sweep` drives one :class:`~repro.sweep.spec.SweepSpec`
through the runner harness:

1. **Expand** the grid against the experiment's default config (axis
   typos fail here, before any simulation).
2. **Serve warm points** from the on-disk
   :class:`~repro.runner.cache.ResultCache` — re-running an enlarged
   sweep only simulates the new points, and an immediate rerun
   simulates nothing.
3. **Shard cold points** into batches over the executor's spawned
   workers (``--jobs``); every finished record is written back to the
   cache *as it arrives*, so an interrupted sweep keeps its finished
   points.
4. **Manifest** the grid under ``<cache>/sweeps/`` as points complete;
   ``resume=True`` picks the most recent manifest for the spec back up
   (including its axis replacements) where it stopped.
5. **Analyze**: extract the spec's metrics from each record summary,
   run the derive post-pass (e.g. speedup vs the 1-proc point), probe
   crossovers, and evaluate the sweep-level shape checks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache, cache_key
from repro.runner.executor import default_jobs, plan_batches, run_parallel
from repro.runner.record import RunRecord
from repro.stats.metrics import derive_metrics
from repro.sweep.analysis import crossover_report
from repro.sweep.result import SWEEP_SCHEMA, SweepResult
from repro.sweep.spec import SweepPoint, SweepSpec

#: progress(done, total, point, record, simulated)
ProgressFn = Callable[[int, int, SweepPoint, RunRecord, bool], None]

#: Manifest layout version.
MANIFEST_SCHEMA = 1


def _manifest_path(cache: ResultCache, spec: SweepSpec) -> Path:
    return cache.directory / "sweeps" / (
        f"{spec.name}-{spec.grid_key()[:16]}.manifest.json"
    )


def result_path(cache: ResultCache, spec: SweepSpec) -> Path:
    """Where the finished sweep's result JSON lands."""
    return cache.directory / "sweeps" / (
        f"{spec.name}-{spec.grid_key()[:16]}.result.json"
    )


def _write_manifest(
    path: Path, spec: SweepSpec, points: Sequence[SweepPoint],
    done: Mapping[str, Any],
) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": MANIFEST_SCHEMA,
        "spec": spec.name,
        "exp_id": spec.exp_id,
        "grid_key": spec.grid_key(),
        "axes": [[axis, list(values)] for axis, values in spec.axes],
        "points": [
            {
                "coords": point.coords,
                "cache_key": point.cache_key,
                "status": "done" if point.cache_key in done else "pending",
            }
            for point in points
        ],
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    tmp.replace(path)


def latest_manifest(
    cache: ResultCache, spec_name: str
) -> Optional[Dict[str, Any]]:
    """The most recently written manifest for one spec name, if any."""
    directory = cache.directory / "sweeps"
    if not directory.is_dir():
        return None
    candidates = sorted(
        directory.glob(f"{spec_name}-*.manifest.json"),
        key=lambda p: p.stat().st_mtime,
    )
    for path in reversed(candidates):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if data.get("spec") == spec_name and data.get("schema") == MANIFEST_SCHEMA:
            return data
    return None


def run_sweep(
    spec: SweepSpec,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run one sweep end to end; see the module docstring for phases."""
    from repro.core.experiments import get_experiment

    jobs = default_jobs() if jobs is None else max(1, jobs)
    cache = cache if cache is not None else ResultCache()

    if resume:
        manifest = latest_manifest(cache, spec.name)
        if manifest is None:
            raise FileNotFoundError(
                f"nothing to resume: no manifest for sweep {spec.name!r} "
                f"under {cache.directory / 'sweeps'}"
            )
        axes = {axis: tuple(values) for axis, values in manifest["axes"]}
    spec = spec.with_axes(axes)

    base_config = get_experiment(spec.exp_id).config
    points = spec.grid(base_config)
    configs = {}
    for point in points:
        config = base_config.with_overrides(point.overrides)
        point.cache_key = cache_key(config)
        configs[point.cache_key] = config

    started = time.perf_counter()
    records: Dict[str, RunRecord] = {}
    done_count = 0
    total = len(points)

    def note(point: SweepPoint, record: RunRecord, simulated: bool) -> None:
        nonlocal done_count
        done_count += 1
        if progress is not None:
            progress(done_count, total, point, record, simulated)

    # Warm points straight from the on-disk cache.
    to_run: List[Tuple[str, Dict[str, Any]]] = []
    queued = set()
    for point in points:
        if point.cache_key in records or point.cache_key in queued:
            note(point, records.get(point.cache_key), False)  # duplicate coords
            continue
        hit = (
            cache.load(configs[point.cache_key])
            if use_cache and not force
            else None
        )
        if hit is not None:
            records[point.cache_key] = hit
            note(point, hit, False)
        else:
            queued.add(point.cache_key)
            to_run.append((spec.exp_id, point.overrides))

    manifest_file = _manifest_path(cache, spec)
    _write_manifest(manifest_file, spec, points, records)

    if to_run:
        by_key = {point.cache_key: point for point in points}

        def collect(record: RunRecord) -> None:
            # Write back as each record arrives: an interrupted sweep
            # keeps its finished points, and a rerun picks up here.
            records[record.cache_key] = record
            if use_cache:
                cache.store(record)
            _write_manifest(manifest_file, spec, points, records)
            point = by_key.get(record.cache_key)
            if point is not None:
                note(point, record, True)

        run_parallel(plan_batches(to_run, jobs=jobs), jobs=jobs, progress=collect)

    simulated = len(to_run)

    # -- metric extraction and analysis ------------------------------------
    for point in points:
        record = records[point.cache_key]
        point.metrics = derive_metrics(
            record.summary, spec.metrics, spec.extra_metrics
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
        "points": total,
        "simulated": simulated,
        "cached": total - simulated,
        "jobs": jobs,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "manifest": str(manifest_file),
    }

    out_path = result_path(cache, spec)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result.to_jsonable(), indent=1, sort_keys=True))
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
