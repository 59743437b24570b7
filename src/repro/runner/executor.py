"""Multiprocessing fan-out over independent experiments.

The paper's evaluation is embarrassingly parallel: each experiment is
an independent pair of machine simulations. The executor partitions
the requested experiments into *groups* that must share a process —
an experiment whose shape checks compare against a baseline run (its
spec's ``after`` tuple, e.g. ``em3d_bigcache`` against ``em3d``) runs
in the same worker as that baseline so the in-process memo serves the
comparison — and fans the groups out over worker processes.

Work that would use at most one worker runs in this process: a pool of
one only adds an interpreter start-up. Otherwise workers are started
with the ``spawn`` method: each one imports the package fresh, so no
parent in-process state can leak into a worker run. Determinism is
preserved — every simulation is a pure function of its seeded
:class:`~repro.runner.config.ExperimentConfig`, so a worker run
produces bit-identical cycle counts to an in-process run (the test
suite asserts this).
"""

from __future__ import annotations

import os
import time
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.record import RunRecord

#: One unit of worker work: (exp_id, overrides-or-None).
WorkItem = Tuple[str, Optional[Mapping[str, Any]]]


def default_jobs() -> int:
    """The default ``--jobs``: every core the scheduler gives us."""
    return os.cpu_count() or 1


def group_root(exp_id: str) -> str:
    """The transitive baseline an experiment's checks depend on."""
    from repro.core.experiments import get_experiment

    seen = set()
    current = exp_id
    while True:
        spec = get_experiment(current)
        if not spec.after or current in seen:
            return current
        seen.add(current)
        current = spec.after[0]


def plan_groups(items: Sequence[WorkItem]) -> List[List[WorkItem]]:
    """Partition work into process-affine groups, registry order kept.

    Experiments with a common dependency root share a group (and thus
    a worker's in-process memo); everything else is its own group.
    """
    from repro.core.experiments import EXPERIMENTS

    order = {exp_id: i for i, exp_id in enumerate(EXPERIMENTS)}
    groups: Dict[str, List[WorkItem]] = {}
    for item in items:
        groups.setdefault(group_root(item[0]), []).append(item)
    planned = [
        sorted(group, key=lambda item: order.get(item[0], len(order)))
        for group in groups.values()
    ]
    planned.sort(key=lambda group: order.get(group[0][0], len(order)))
    return planned


def plan_batches(
    items: Sequence[WorkItem], jobs: int, max_batch: int = 4
) -> List[List[WorkItem]]:
    """Chunk *independent* work items into worker-sized batches.

    Sweep points have no ``after`` dependencies, so unlike
    :func:`plan_groups` there is nothing to co-locate; the only goal is
    to amortize worker spawn cost without giving one worker so much
    work that an interrupted run loses a long batch (each batch's
    records reach the parent — and the on-disk cache — only when the
    whole batch finishes). Batches are contiguous, at most ``max_batch``
    items, and sized so all ``jobs`` workers stay busy.
    """
    if not items:
        return []
    jobs = max(1, jobs)
    size = max(1, min(max_batch, (len(items) + jobs - 1) // jobs))
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def run_group(
    items: Sequence[WorkItem], keep: AbstractSet[str] = frozenset()
) -> List[RunRecord]:
    """Run one group serially in this process; the worker entry point.

    Each raw result is released as soon as its record is built, except
    a baseline a later item's checks still need, which goes after its
    last dependent: when this returns, the in-process memo holds
    nothing the group put there but the baselines named in ``keep``,
    which a caller's :class:`~repro.runner.api.MemoScope` takes over.
    A registered runner keeps no machine and reclaims every earlier one
    before it builds its own, so the group holds one machine at a time.
    For a runner whose result does hold machines, a dependency group (a
    baseline and its full-size variants, such as em3d's) reclaims each
    result's machines before the next item runs; a group of
    independent items (one experiment, or a sweep batch of at most four
    points) reclaims them once, at the end, saving a full collection
    per point.

    Must stay a top-level function: it is pickled by name when shipped
    to a spawned worker.
    """
    from repro.core.experiments import get_experiment
    from repro.runner.api import MemoScope, baseline_keys, resolve_config, run_raw
    from repro.runner.record import build_record

    reclaim_each = any(get_experiment(exp_id).after for exp_id, _ in items)
    records: List[RunRecord] = []
    with MemoScope(keep) as scope:
        for i, (exp_id, overrides) in enumerate(items):
            spec = get_experiment(exp_id)
            config = resolve_config(exp_id, overrides)
            start = time.perf_counter()
            result = run_raw(exp_id, overrides)
            records.append(build_record(spec, config, result, time.perf_counter() - start))
            del result  # leave the memo's reference the only one
            scope.release(keep=keep | baseline_keys(items[i + 1:]), collect=reclaim_each)
    return records


def runs_in_process(groups: Sequence[Sequence[WorkItem]], jobs: int) -> bool:
    """Whether :func:`run_parallel` would run ``groups`` in this process:
    true whenever at most one worker would be used."""
    return min(jobs, len(groups)) <= 1


def spawn_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` spawned processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def run_parallel(
    groups: Sequence[Sequence[WorkItem]],
    jobs: int,
    progress=None,
) -> List[RunRecord]:
    """Fan groups out over up to ``jobs`` spawned worker processes.

    Runs in this process when at most one worker would be used
    (:func:`runs_in_process`). Results are reported to ``progress`` as
    each group completes; the returned list is unordered (callers
    re-index by exp_id).
    """
    records: List[RunRecord] = []
    if runs_in_process(groups, jobs):
        from repro.runner.api import MemoScope, baseline_keys

        # A baseline that several groups compare against (the points of
        # a sweep over a dependent) is simulated once and kept until the
        # last group is done.
        needs = [baseline_keys(group) for group in groups]
        with MemoScope():
            for i, group in enumerate(groups):
                batch = run_group(group, keep=set().union(*needs[i + 1:]))
                records.extend(batch)
                if progress is not None:
                    for record in batch:
                        progress(record)
        return records

    from concurrent.futures import FIRST_COMPLETED, wait

    with spawn_pool(min(jobs, len(groups))) as pool:
        pending = {pool.submit(run_group, list(group)) for group in groups}
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                batch = future.result()  # propagate worker failures
                records.extend(batch)
                if progress is not None:
                    for record in batch:
                        progress(record)
    return records
