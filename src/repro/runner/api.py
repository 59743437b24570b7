"""High-level harness entry points.

* :func:`run_raw` — run one experiment in this process and return the
  *raw* result object (a :class:`~repro.core.study.PairResult` or
  result dict), memoized per configuration until the
  :class:`MemoScope` that ran it (if any) releases it, or
  :func:`clear_memory_cache` drops it. This is what the benchmarks and
  the legacy :func:`repro.core.experiments.run_experiment` wrapper
  use; shape checks that compare against a baseline run reach it
  through :func:`baseline`.
* :func:`record_for` — one experiment as a serializable
  :class:`~repro.runner.record.RunRecord`, served from the on-disk
  cache when possible (zero simulation on a warm cache). Raw results
  it simulates are released once the record is built.
* :func:`execute` — the fan-out driver behind ``python -m repro run``:
  cache lookups, dependency-aware grouping, multiprocessing, progress
  reporting, and cache write-back.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from contextvars import ContextVar
from typing import AbstractSet, Any, Dict, Mapping, Optional, Sequence, Set

from repro.runner.cache import ResultCache, cache_key
from repro.runner.config import ExperimentConfig
from repro.runner.executor import WorkItem, default_jobs, plan_groups, run_group, run_parallel
from repro.runner.record import SHAPE_CONFIG, RunRecord

#: In-process memo of raw results, keyed by the content address. Raw
#: results are simulator objects (a registered runner's hold boards, not
#: machines); the disk cache stores the serializable records instead.
_MEMO: Dict[str, Any] = {}

#: The :class:`MemoScope` this thread is running in, if any.
_SCOPE: ContextVar[Optional["MemoScope"]] = ContextVar("repro_memo_scope", default=None)

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
        scope = _SCOPE.get()
        if scope is not None:
            scope.owned.add(key)
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


def baseline_keys(items: Sequence[WorkItem]) -> Set[str]:
    """Memo keys of the baselines ``items``' shape checks will ask for."""
    from repro.core.experiments import get_experiment

    keys = set()
    for exp_id, overrides in items:
        config = resolve_config(exp_id, overrides)
        for base in get_experiment(exp_id).after:
            keys.add(cache_key(resolve_config(base, baseline_overrides(config))))
    return keys


def memo_keys() -> Set[str]:
    """The raw results the memo holds now."""
    return set(_MEMO)


class MemoScope:
    """The raw results :func:`run_raw` memoizes while this scope is
    entered, in this thread, and their release.

    A scope releases only what it memoized itself: never an entry a
    caller made before it, nor one another thread's scope made (the
    ``repro serve`` queue runs groups on two threads). Leaving the
    scope releases everything it still holds, except results named in
    ``keep``, which pass to the enclosing scope, if there is one.
    """

    def __init__(self, keep: AbstractSet[str] = frozenset()) -> None:
        self.owned: Set[str] = set()
        self.keep = keep
        self._garbage = False
        self._token = None

    def __enter__(self) -> "MemoScope":
        self._token = _SCOPE.set(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        _SCOPE.reset(self._token)
        outer = _SCOPE.get()
        if outer is not None:
            handed = self.owned & self.keep
            outer.owned |= handed
            self.owned -= handed
        self.release()

    def release(self, keep: AbstractSet[str] = frozenset(), collect: bool = True) -> None:
        """Drop what this scope memoized, except ``keep``; with
        ``collect``, reclaim every machine dropped so far now.

        Machines are reference cycles (engine, processes, generator
        frames, contexts), so dropping the last reference frees nothing
        until the cycle collector runs. A full collection costs 10-20 ms
        after a small run, so a caller may drop several results before
        it collects once.
        """
        dropped = self.owned - keep
        for key in dropped:
            _MEMO.pop(key, None)
        self.owned -= dropped
        self._garbage = self._garbage or bool(dropped)
        if collect and self._garbage:
            gc.collect()
            self._garbage = False


def record_for(
    exp_id: str,
    overrides: Optional[Mapping[str, Any]] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    force: bool = False,
) -> RunRecord:
    """One experiment's record: disk cache first, then an in-process run.

    The run is a group of one (:func:`~repro.runner.executor.run_group`),
    so the raw results it memoizes are released before this returns.
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
