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
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Set

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import default_jobs, plan_groups, run_group, run_parallel
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
    ``repro serve`` queue runs groups on two threads).
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


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run.

    The run is a group of one (:func:`~repro.runner.executor.run_group`),
    so unless a :func:`memo_scope` is already open, the raw results it
    memoizes are released before this returns.
    """
    config = resolve_config(exp_id, overrides)
    cache = cache if cache is not None else ResultCache()
    if use_cache and not force:
        hit = cache.load(config)
        if hit is not None:
            return hit
    (record,) = run_group([(exp_id, overrides)])
    if use_cache:
        cache.store(record)
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
    jobs = default_jobs() if jobs is None else max(1, jobs)
    cache = cache if cache is not None else ResultCache()
    overrides = overrides or {}

    records: Dict[str, RunRecord] = {}
    to_run = []
    for exp_id in exp_ids:
        config = resolve_config(exp_id, overrides.get(exp_id))
        hit = cache.load(config) if use_cache and not force else None
        if hit is not None:
            records[exp_id] = hit
            if progress is not None:
                progress(hit)
        else:
            to_run.append((exp_id, overrides.get(exp_id)))

    if to_run:

        def collect(record: RunRecord) -> None:
            # Write back as each record arrives: an interrupted --all
            # keeps its finished experiments.
            records[record.exp_id] = record
            if use_cache:
                cache.store(record)
            if progress is not None:
                progress(record)

        run_parallel(plan_groups(to_run), jobs=jobs, progress=collect)

    return OrderedDict((exp_id, records[exp_id]) for exp_id in exp_ids)
