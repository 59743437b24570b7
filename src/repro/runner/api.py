"""High-level harness entry points.

* :func:`run_raw` — run one experiment in this process and return the
  *raw* result object (a :class:`~repro.core.study.PairResult` or
  result dict), assembled from its sides' runs
  (:class:`~repro.core.experiments.Side`), each memoized until the
  :func:`memo_scope` that ran it (if any) exits, or
  :func:`clear_memory_cache` drops it. This is what the benchmarks
  use; shape checks that compare against a baseline run reach it
  through :func:`baseline`.
* :func:`record_for` — one experiment as a serializable
  :class:`~repro.runner.record.RunRecord`, served from the on-disk
  cache when possible (zero simulation on a warm cache). Sides it
  simulates are released when its :func:`memo_scope` exits.
* :func:`execute` — the fan-out driver behind ``python -m repro run``:
  cache lookups, each distinct side simulated once over the workers,
  progress reporting, and cache write-back.

Both, and the sweep engine, go through :func:`run_cached`: the one
loop that serves cache hits, simulates each distinct side of the
misses once and stores each record as soon as its sides are in.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import WorkItem, default_jobs, run_sides
from repro.runner.record import SHAPE_CONFIG, RunRecord, build_record

#: In-process memo of side runs (:class:`~repro.core.experiments.SideRun`),
#: keyed by :meth:`~repro.core.experiments.Side.key`. A side run holds a
#: board, not a machine; the disk cache stores the serializable records
#: instead.
_MEMO: Dict[str, Any] = {}

#: The memo keys owned by the outermost :func:`memo_scope` open in this
#: thread, if any.
_SCOPE: ContextVar[Optional[Set[str]]] = ContextVar("repro_memo_scope", default=None)

_MISSING = object()


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
    return _assemble(exp_id, resolve_config(exp_id, overrides))[0]


def _assemble(exp_id: str, config: ExperimentConfig) -> Tuple[Any, float]:
    """``exp_id``'s raw result for ``config``, and the seconds its
    sides' simulations took; a side not in the memo is simulated here."""
    from repro.core.experiments import assemble, get_experiment, run_side, sides_of

    spec = get_experiment(exp_id)
    runs = {}
    for name, side in sides_of(spec, config).items():
        key = side.key()
        run = _MEMO.get(key, _MISSING)
        if run is _MISSING:
            run = _remember(key, run_side(side))
        runs[name] = run
    return assemble(spec, config, runs), sum(run.seconds for run in runs.values())


def _remember(key: str, run: Any) -> Any:
    """Memoize a side's run, owned by this thread's :func:`memo_scope`."""
    _MEMO[key] = run
    owned = _SCOPE.get()
    if owned is not None:
        owned.add(key)
    return run


def clear_memory_cache() -> None:
    """Drop the in-process side memo (tests use this)."""
    _MEMO.clear()


def baseline_overrides(config: ExperimentConfig) -> Dict[str, Any]:
    """The overrides a dependent's baselines run under: the dependent's
    backend, memory model and machine preset, so a comparison never
    mixes two machines."""
    return {
        "backend": config.backend,
        "consistency": config.consistency,
        "preset": config.preset,
    }


def baseline(exp_id: str) -> Any:
    """A baseline's raw result, for a shape check that compares against it.

    While a record is being built, the baseline runs under
    :func:`baseline_overrides` of that record's config; a shape check
    called directly gets the baseline's registered config.
    """
    config = SHAPE_CONFIG.get()
    return run_raw(exp_id, None if config is None else baseline_overrides(config))


def memo_keys() -> Set[str]:
    """The keys of the side runs the memo holds now."""
    return set(_MEMO)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Own the side runs memoized in this thread until the block exits.

    The outermost scope in a thread owns every entry memoized inside it;
    a nested scope joins it. When the outermost scope exits, it drops
    those entries and runs one ``gc.collect()``, which reclaims the
    machines its runs built (machines are reference cycles, so nothing
    frees them until the cycle collector runs). It never drops an entry
    a caller memoized before it, nor one another thread memoized (the
    ``repro serve`` queue with the in-process executor runs jobs on two
    threads).
    """
    if _SCOPE.get() is not None:
        yield
        return
    owned: Set[str] = set()
    token = _SCOPE.set(owned)
    try:
        yield
    finally:
        _SCOPE.reset(token)
        for key in owned:
            _MEMO.pop(key, None)
        if owned:
            gc.collect()


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

    def collect(key: str, exp_id: str, config: ExperimentConfig) -> None:
        from repro.core.experiments import get_experiment

        raw, seconds = _assemble(exp_id, config)
        record = build_record(get_experiment(exp_id), config, raw, seconds, key=key)
        del raw  # leave the memo's references the only ones
        records[key] = record
        if use_cache:
            cache.store(record)
        if progress is not None:
            progress(record, True)

    if cold:
        if use_cache:
            cache.check_directory()
        with memo_scope():
            _simulate(cold, jobs, collect)
    return records


def _simulate(
    cold: Dict[str, Tuple[str, ExperimentConfig]],
    jobs: int,
    collect: Callable[[str, str, ExperimentConfig], None],
) -> None:
    """Simulate the sides the ``cold`` records read that the memo lacks,
    and ``collect`` each record once its sides are in.

    In this process when at most one worker would be used: each record
    in turn, its sides simulated as it is built. Otherwise each side
    once, over ``min(jobs, sides)`` spawned workers, in the order the
    records name them; a record still waiting when the pool is done (a
    side another thread's scope released meanwhile) is built here.
    """
    from repro.core.experiments import get_experiment, sides_of

    missing: Dict[str, Any] = {}
    waiting: Dict[str, Set[str]] = {}
    for key, (exp_id, config) in cold.items():
        spec = get_experiment(exp_id)
        sides = list(sides_of(spec, config).values())
        for base in spec.after:
            base_config = resolve_config(base, baseline_overrides(config))
            sides.extend(sides_of(get_experiment(base), base_config).values())
        waiting[key] = set()
        for side in sides:
            side_key = side.key()
            waiting[key].add(side_key)
            if side_key not in _MEMO:
                missing.setdefault(side_key, side)

    def arrived(side_key: str, run: Any) -> None:
        _remember(side_key, run)
        for key, reads in list(waiting.items()):
            if all(read in _MEMO for read in reads):
                del waiting[key]
                collect(key, *cold[key])

    if min(jobs, len(missing)) > 1:
        run_sides(missing, jobs, arrived)
    for key in list(waiting):
        collect(key, *cold[key])


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run.

    Unless a :func:`memo_scope` is already open, the side runs it
    memoizes are released before this returns.
    """
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
