"""High-level harness entry points.

* :func:`run_raw` — run one experiment in this process and return the
  *raw* result object (a :class:`~repro.core.study.PairResult` or
  result dict), assembled from its sides' runs
  (:class:`~repro.core.experiments.Side`), each memoized until
  :func:`clear_memory_cache`. This is what the benchmarks use.
* :func:`record_for` — one experiment as a serializable
  :class:`~repro.runner.record.RunRecord`, served from the on-disk
  cache when possible (zero simulation on a warm cache).
* :func:`execute` — the fan-out driver behind ``python -m repro run``:
  cache lookups, each distinct side simulated once over the workers,
  progress reporting, and cache write-back.

Both, and the sweep engine, go through :func:`run_cached`: the one
loop that serves cache hits, simulates each distinct side of the
misses once and stores each record as soon as its sides are in. A
dependent's shape checks (``ExperimentSpec.after``) take their
baselines' raw results as arguments; :func:`baselines` resolves them.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import WorkItem, default_jobs, run_sides
from repro.runner.record import RunRecord, build_record

#: :func:`run_raw`'s memo of side runs
#: (:class:`~repro.core.experiments.SideRun`), keyed by
#: :meth:`~repro.core.experiments.Side.key`. A side run holds a board,
#: not a machine; the disk cache stores the serializable records
#: instead.
_MEMO: Dict[str, Any] = {}


def resolve_config(
    exp_id: str, overrides: Optional[Mapping[str, Any]] = None
) -> ExperimentConfig:
    """An experiment's default config, with sweep overrides applied.

    A config the experiment or one of its apps would refuse to run
    raises :class:`ValueError` here, on the condition the run checks.
    """
    from repro.core.experiments import check_runnable, get_experiment

    spec = get_experiment(exp_id)
    config = spec.config
    if overrides:
        config = config.with_overrides(overrides)
    check_runnable(spec, config)
    return config


def run_raw(exp_id: str, overrides: Optional[Mapping[str, Any]] = None) -> Any:
    """Run one experiment in-process; each of its sides memoized."""
    return _assemble(exp_id, resolve_config(exp_id, overrides), _MEMO)[0]


def _assemble(exp_id: str, config: ExperimentConfig,
              runs: Dict[str, Any]) -> Tuple[Any, float]:
    """``exp_id``'s raw result for ``config``, and the seconds its
    sides' simulations took, from ``runs`` (side runs by key); a side
    ``runs`` lacks is simulated here and added to it."""
    from repro.core.experiments import assemble, get_experiment, run_side, sides_of

    spec = get_experiment(exp_id)
    mine = {}
    for name, side in sides_of(spec, config).items():
        key = side.key()
        run = runs.get(key)
        if run is None:
            run = runs[key] = run_side(side)
        mine[name] = run
    return assemble(spec, config, mine), sum(run.seconds for run in mine.values())


def clear_memory_cache() -> None:
    """Drop :func:`run_raw`'s side memo (tests use this)."""
    _MEMO.clear()


def _baseline_configs(
    exp_id: str, config: ExperimentConfig
) -> List[Tuple[str, ExperimentConfig]]:
    """Each baseline ``exp_id``'s run of ``config`` compares against, with
    its config: its registered one on ``config``'s backend, memory model
    and machine preset, so a comparison never mixes two machines."""
    from repro.core.experiments import get_experiment

    overrides = {
        "backend": config.backend,
        "consistency": config.consistency,
        "preset": config.preset,
    }
    return [(base, resolve_config(base, overrides)) for base in get_experiment(exp_id).after]


def baselines(exp_id: str, config: ExperimentConfig,
              runs: Optional[Dict[str, Any]] = None) -> List[Any]:
    """The raw results ``exp_id``'s shape checks compare its run of
    ``config`` against, one per ``after`` entry, assembled from ``runs``
    (side runs by key; by default :func:`run_raw`'s memo), which gains
    any side it lacks."""
    runs = _MEMO if runs is None else runs
    return [_assemble(base, base_config, runs)[0]
            for base, base_config in _baseline_configs(exp_id, config)]


def run_cached(
    items: Sequence[WorkItem],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    progress: Optional[Callable[[RunRecord, bool], None]] = None,
) -> Dict[str, RunRecord]:
    """The one cache-first loop behind :func:`execute`, :func:`record_for`
    and :func:`~repro.sweep.engine.run_sweep`.

    Serves each item from the disk cache when it can and queues each
    distinct miss once. It simulates each distinct side the misses read
    (their own, and their checks' baselines) once, over up to ``jobs``
    workers, and builds, checks and stores each record as soon as its
    sides are in, so an interrupted run keeps its finished records and
    a rerun of the same call simulates only what is missing.
    ``progress(record, simulated)`` is called once per distinct record.
    Returns records keyed by cache key. Before the first miss runs, an
    unusable cache directory raises
    :class:`~repro.runner.cache.CacheDirectoryError`.

    The side runs live in one dict of the call's own, seeded from
    :func:`run_raw`'s memo and never written back. When the call
    returns, the dict goes and one ``gc.collect()`` reclaims the
    machines its sides built (reference cycles, as machines are).
    """
    cache = cache if cache is not None else ResultCache()
    records: Dict[str, RunRecord] = {}
    cold: Dict[str, Tuple[str, ExperimentConfig]] = {}
    for exp_id, overrides in items:
        config = resolve_config(exp_id, overrides)
        key = cache_key(config)
        if key in records or key in cold:
            continue
        hit = cache.load(config) if use_cache and not force else None
        if hit is not None:
            records[key] = hit
            if progress is not None:
                progress(hit, False)
        else:
            cold[key] = (exp_id, config)

    def collect(key: str) -> None:
        from repro.core.experiments import get_experiment

        exp_id, config = cold[key]
        raw, seconds = _assemble(exp_id, config, runs)
        record = build_record(get_experiment(exp_id), config, raw, seconds,
                              baselines(exp_id, config, runs), key=key)
        del raw  # leave the side runs' references the only ones
        records[key] = record
        if use_cache:
            cache.store(record)
        if progress is not None:
            progress(record, True)

    if cold:
        if use_cache:
            cache.check_directory()
        runs = dict(_MEMO)
        try:
            _simulate(cold, jobs, runs, collect)
        finally:
            runs.clear()
            gc.collect()
    return records


def _simulate(
    cold: Dict[str, Tuple[str, ExperimentConfig]],
    jobs: int,
    runs: Dict[str, Any],
    collect: Callable[[str], None],
) -> None:
    """Simulate each side the ``cold`` records read that ``runs`` lacks,
    once, in the order the records name them, and ``collect`` each
    record as soon as its sides are in ``runs``: in this process when
    at most one worker would be used, otherwise over
    ``min(jobs, sides)`` spawned workers."""
    from repro.core.experiments import get_experiment, run_side, sides_of

    waiting: Dict[str, Dict[str, Any]] = {}
    for key, (exp_id, config) in cold.items():
        reads = [(exp_id, config)] + _baseline_configs(exp_id, config)
        waiting[key] = {
            side.key(): side
            for read_id, read_config in reads
            for side in sides_of(get_experiment(read_id), read_config).values()
        }
    missing = {side_key: side for reads in waiting.values()
               for side_key, side in reads.items() if side_key not in runs}

    def collect_ready() -> None:
        for key, reads in list(waiting.items()):
            if reads.keys() <= runs.keys():
                del waiting[key]
                collect(key)

    def arrived(side_key: str, run: Any) -> None:
        runs[side_key] = run
        collect_ready()

    collect_ready()  # records whose sides the memo already held
    if min(jobs, len(missing)) > 1:
        run_sides(missing, jobs, arrived)
    else:
        for side_key, side in missing.items():
            arrived(side_key, run_side(side))


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run,
    whose side runs are released before this returns."""
    (record,) = run_cached(
        [(exp_id, overrides)], cache=cache, use_cache=use_cache, force=force,
    ).values()
    return record


def execute(
    exp_ids: Sequence[str],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    progress=None,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> "OrderedDict[str, RunRecord]":
    """Run many experiments: cached records served, the rest fanned out.

    ``overrides`` maps exp_id to that experiment's sweep overrides.
    ``progress`` (if given) is called with each finished
    :class:`RunRecord` — cached ones immediately, live ones as their
    worker delivers them. Returns records keyed by exp_id, in the
    requested order.
    """
    overrides = overrides or {}
    records = run_cached(
        [(exp_id, overrides.get(exp_id)) for exp_id in exp_ids],
        jobs=default_jobs() if jobs is None else max(1, jobs),
        cache=cache,
        use_cache=use_cache,
        force=force,
        progress=None if progress is None else lambda record, _sim: progress(record),
    )
    by_exp = {record.exp_id: record for record in records.values()}
    return OrderedDict((exp_id, by_exp[exp_id]) for exp_id in exp_ids)
