"""The stable programmatic facade over the repro harness.

Everything a script, notebook, benchmark, or downstream tool should
need lives here, re-exported from the subsystems that implement it:

* :func:`resolve_config` — an experiment's frozen
  :class:`~repro.runner.config.ExperimentConfig`, with overrides
  applied (unknown override keys raise with a did-you-mean).
* :func:`run_raw` — one in-process simulation, memoized per
  configuration; returns the experiment's live result object.
* :func:`record_for` — one serializable
  :class:`~repro.runner.record.RunRecord`, disk-cache first.
* :func:`execute` — many experiments fanned out over worker
  processes, cache-aware.
* :func:`sweep` — a declarative sensitivity sweep
  (:class:`SweepSpec` or a shipped spec name) through the same
  executor and cache; returns a :class:`SweepResult`.
* :func:`bench` — the kernel + end-to-end benchmark suite; returns
  the JSON-ready result document.
* :func:`trace_for` — one traced simulation; returns a
  :class:`TraceResult` holding the validated Chrome Trace document.
* :func:`serve` — the harness as a long-running HTTP service
  (:class:`~repro.serve.server.ReproServer`): submit runs/sweeps over
  ``POST``, poll content-hash job IDs, warm requests answered from the
  result cache in milliseconds.
* :func:`load_spec` / :func:`specs` — the declarative YAML scenario
  layer (:mod:`repro.specs`): load one experiment/sweep spec by id or
  path, or list every discoverable spec with its metadata.
* :func:`query` — filtered rows out of the run lake
  (:mod:`repro.lake`): cycle-breakdown metric columns across
  apps/backends/consistency models/presets, stale-salt rows excluded
  unless asked for; zero re-simulation.

Import from ``repro.api`` rather than the implementing modules:
the facade is the surface the project promises to keep stable across
internal refactors.

>>> from repro import api
>>> pair = api.run_raw("gauss", overrides={"app": {"n": 64}})
>>> record = api.record_for("mse")
>>> result = api.sweep("em3d-latency")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.runner.api import (
    clear_memory_cache,
    execute,
    record_for,
    resolve_config,
    run_raw,
)
from repro.runner.cache import ResultCache
from repro.runner.config import ExperimentConfig
from repro.runner.record import RunRecord
from repro.sweep import SweepResult, SweepSpec, get_sweep, run_sweep

__all__ = [
    "ExperimentConfig",
    "ResultCache",
    "RunRecord",
    "SweepResult",
    "SweepSpec",
    "TraceResult",
    "bench",
    "clear_memory_cache",
    "execute",
    "get_sweep",
    "load_spec",
    "query",
    "record_for",
    "resolve_config",
    "run_raw",
    "serve",
    "specs",
    "sweep",
    "trace_for",
]


def load_spec(ref: str):
    """Load one YAML spec by discoverable id or file path.

    Returns a :class:`SweepSpec` for sweep specs or a
    :class:`~repro.specs.ExperimentSpecDoc` (``.resolve()`` yields the
    frozen :class:`ExperimentConfig`) for experiment specs. Unknown
    ids and malformed documents raise
    :class:`~repro.specs.SpecError` with a did-you-mean.
    """
    from repro.specs import load_spec as load

    return load(ref)


def specs(kind: Optional[str] = None) -> List[Any]:
    """Listing metadata for every discoverable YAML spec.

    ``kind`` narrows to ``"sweep"`` or ``"experiment"``; each entry is
    a :class:`~repro.specs.SpecInfo` (id, kind, experiment, category,
    description, path). The search path is ``$REPRO_SPECS_DIR``, then
    ``./specs``, then the repository's shipped specs.
    """
    from repro.specs import list_specs

    return list_specs(kind)


def query(
    app: Optional[str] = None,
    backend: Optional[str] = None,
    consistency: Optional[str] = None,
    preset: Optional[str] = None,
    salt: Optional[str] = None,
    all_salts: bool = False,
    metrics: Optional[Sequence[str]] = None,
    lake: Any = None,
) -> List[Dict[str, Any]]:
    """Filtered run rows from the lake (see ``repro query``).

    Each row carries the provenance columns (exp_id, backend,
    consistency, preset, procs, salt, fresh) plus the requested metric
    columns (default ``mp_total, sm_total, sm_over_mp``). Stale-salt
    rows — detected at query time with the same
    :func:`repro.runner.cache.record_is_fresh` decision ``repro cache
    ls`` renders — are excluded unless ``all_salts=True``. ``lake``
    accepts a path or an open :class:`~repro.lake.RunLake` (default:
    the standard lake location).
    """
    from repro.lake import QueryFilters, query_runs

    filters = QueryFilters(
        app=app,
        backend=backend,
        consistency=consistency,
        preset=preset,
        salt=salt,
        all_salts=all_salts,
        **({"metrics": tuple(metrics)} if metrics else {}),
    )
    return query_runs(lake, filters)


def sweep(
    spec: Union[str, SweepSpec],
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    **kwargs: Any,
) -> SweepResult:
    """Run one sensitivity sweep; accepts a shipped spec name.

    ``axes`` replaces (or appends) axis value lists; remaining keyword
    arguments pass through to :func:`repro.sweep.run_sweep`
    (``jobs``, ``cache``, ``use_cache``, ``force``, ``progress``).
    """
    if isinstance(spec, str):
        spec = get_sweep(spec)
    return run_sweep(spec, axes=axes, **kwargs)


def bench(
    quick: bool = False,
    apps: bool = True,
    backend: str = "batched",
    **kwargs: Any,
) -> Dict[str, Any]:
    """Run the benchmark suite; returns the JSON-ready document.

    ``backend`` selects the execution backend for the end-to-end app
    rows (``"batched"`` or ``"reference"``); remaining keyword
    arguments pass through to
    :func:`repro.runner.bench.run_benchmarks` (``log``, ...).
    """
    from repro.runner import bench as bench_impl

    return bench_impl.run_benchmarks(
        quick=quick, apps=apps, backend=backend, **kwargs
    )


def serve(
    host: str = "127.0.0.1",
    port: int = 8737,
    jobs: int = 2,
    cache_bytes: Optional[int] = None,
    max_pending: Optional[int] = 64,
    block: bool = True,
    **kwargs: Any,
):
    """Stand up the harness HTTP service; see ``docs/serve.md``.

    ``jobs`` sizes the simulation worker pool; ``cache_bytes`` bounds
    the on-disk result cache (stale-salt-first LRU eviction, ``None``
    = unbounded). ``max_pending`` bounds the cold-job backlog (``429``
    + ``Retry-After`` beyond it; ``None`` = unbounded). With
    ``block=True`` (the CLI path) this serves on the calling thread
    until interrupted; with ``block=False`` it returns the started
    :class:`~repro.serve.server.ReproServer` (``port=0`` picks an
    ephemeral port — read ``server.url``). Remaining keyword arguments
    pass through to the server constructor (``cache``, ``executor``,
    ``retention_seconds``, ``quiet``, ...). An
    unusable cache directory raises
    :class:`~repro.runner.cache.CacheDirectoryError` before the port
    is bound.
    """
    from repro.serve.server import ReproServer

    server = ReproServer(
        host=host,
        port=port,
        jobs=jobs,
        cache_budget_bytes=cache_bytes,
        max_pending=max_pending,
        **kwargs,
    )
    if block:
        server.serve_forever()
    else:
        server.start()
    return server


@dataclass
class TraceResult:
    """One traced run: the Chrome Trace document plus provenance."""

    exp_id: str
    config: ExperimentConfig
    document: Dict[str, Any]
    result: Any
    elapsed_seconds: float
    dropped: int
    errors: List[str] = field(default_factory=list)


def trace_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    procs: Optional[Sequence[int]] = None,
    max_events: Optional[int] = None,
) -> TraceResult:
    """Run one experiment under the timeline tracer.

    Always simulates (tracing instruments the run, so there is nothing
    to reuse from the result cache — callers that want cached-trace
    reuse layer it on top, as the CLI does). ``procs`` restricts the
    traced processors; ``max_events`` bounds the event buffer. The
    returned document passed Chrome Trace schema validation unless
    ``errors`` is non-empty.
    """
    import time

    from repro import trace
    from repro.core.experiments import get_experiment
    from repro.trace.chrome import to_chrome, validate_chrome_trace

    spec = get_experiment(exp_id)
    config = resolve_config(exp_id, overrides)
    with trace.tracing(trace.Tracer(procs=procs, max_events=max_events)) as tracer:
        start = time.perf_counter()
        result = spec.runner(config)
        elapsed = time.perf_counter() - start
    document = to_chrome(tracer, meta={"experiment": exp_id})
    return TraceResult(
        exp_id=exp_id,
        config=config,
        document=document,
        result=result,
        elapsed_seconds=elapsed,
        dropped=tracer.dropped,
        errors=validate_chrome_trace(document),
    )
