"""High-level harness entry points.

* :func:`run_raw` — run one experiment in this process and return the
  *raw* result object (a :class:`~repro.core.study.PairResult` or
  result dict), memoized per configuration until the
  :func:`memo_scope` that ran it (if any) exits, or
  :func:`clear_memory_cache` drops it. This is what the benchmarks
  use; shape checks that compare against a baseline run reach it
  through :func:`baseline`.
* :func:`record_for` — one experiment as a serializable
  :class:`~repro.runner.record.RunRecord`, served from the on-disk
  cache when possible (zero simulation on a warm cache). Raw results
  it simulates are released when its :func:`memo_scope` exits.
* :func:`execute` — the fan-out driver behind ``python -m repro run``:
  cache lookups, dependency-aware grouping, multiprocessing, progress
  reporting, and cache write-back.

Both, and the sweep engine, go through :func:`run_cached`: the one
loop that serves cache hits, runs each distinct miss once and stores
each record as it arrives.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set,
)

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import WorkItem, default_jobs, plan_groups, run_parallel
from repro.runner.record import SHAPE_CONFIG, RunRecord

#: In-process memo of raw results, keyed by the content address. Raw
#: results are simulator objects (a registered runner's hold boards, not
#: machines); the disk cache stores the serializable records instead.
_MEMO: Dict[str, Any] = {}

#: The memo keys owned by the outermost :func:`memo_scope` open in this
#: thread, if any.
_SCOPE: ContextVar[Optional[Set[str]]] = ContextVar("repro_memo_scope", default=None)

_MISSING = object()


def resolve_config(
    exp_id: str, overrides: Optional[Mapping[str, Any]] = None
) -> ExperimentConfig:
    """An experiment's default config, with sweep overrides applied."""
    from repro.core.experiments import get_experiment

    config = get_experiment(exp_id).config
    if overrides:
        config = config.with_overrides(overrides)
    return config


def run_raw(exp_id: str, overrides: Optional[Mapping[str, Any]] = None) -> Any:
    """Run one experiment in-process; memoized per configuration."""
    from repro.core.experiments import get_experiment

    spec = get_experiment(exp_id)
    config = resolve_config(exp_id, overrides)
    key = cache_key(config)
    result = _MEMO.get(key, _MISSING)
    if result is _MISSING:
        result = _MEMO[key] = spec.runner(config)
        owned = _SCOPE.get()
        if owned is not None:
            owned.add(key)
    return result


def clear_memory_cache() -> None:
    """Drop the in-process raw-result memo (tests use this)."""
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
    """The raw results the memo holds now."""
    return set(_MEMO)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Own what :func:`run_raw` memoizes in this thread until the block exits.

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
    plan: Callable[[List[WorkItem]], List[List[WorkItem]]],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
    progress: Optional[Callable[[RunRecord, bool], None]] = None,
) -> Dict[str, RunRecord]:
    """The one cache-first loop behind :func:`execute`, :func:`record_for`
    and :func:`~repro.sweep.engine.run_sweep`.

    Serves each item from the disk cache when it can, queues each
    distinct miss once, runs the ``plan`` of the misses over up to
    ``jobs`` workers, and stores every record as it arrives, so an
    interrupted run keeps its finished work and a rerun of the same
    call simulates only what is missing. ``progress(record, simulated)``
    is called once per distinct record. Returns records keyed by cache
    key. Before the first miss runs, an unusable cache directory raises
    :class:`~repro.runner.cache.CacheDirectoryError`.
    """
    cache = cache if cache is not None else ResultCache()
    records: Dict[str, RunRecord] = {}
    queued: Set[str] = set()
    to_run: List[WorkItem] = []
    for exp_id, overrides in items:
        config = resolve_config(exp_id, overrides)
        key = cache_key(config)
        if key in records or key in queued:
            continue
        hit = cache.load(config) if use_cache and not force else None
        if hit is not None:
            records[key] = hit
            if progress is not None:
                progress(hit, False)
        else:
            queued.add(key)
            to_run.append((exp_id, overrides))

    def collect(record: RunRecord) -> None:
        records[record.cache_key] = record
        if use_cache:
            cache.store(record)
        if progress is not None:
            progress(record, True)

    if to_run:
        if use_cache:
            cache.check_directory()
        run_parallel(plan(to_run), jobs=jobs, progress=collect)
    return records


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run.

    The run is a group of one, so unless a :func:`memo_scope` is
    already open, the raw results it memoizes are released before this
    returns.
    """
    (record,) = run_cached(
        [(exp_id, overrides)], lambda items: [items], cache=cache,
        use_cache=use_cache, force=force,
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
        plan_groups,
        jobs=default_jobs() if jobs is None else max(1, jobs),
        cache=cache,
        use_cache=use_cache,
        force=force,
        progress=None if progress is None else lambda record, _sim: progress(record),
    )
    by_exp = {record.exp_id: record for record in records.values()}
    return OrderedDict((exp_id, by_exp[exp_id]) for exp_id in exp_ids)
