"""Multiprocessing fan-out over sides.

The paper runs each program pair as two independent simulations, one
per machine. The executor's unit of work is that simulation, a *side*
(:class:`~repro.core.experiments.Side`): :func:`run_sides` ships each
distinct side of an invocation to a pool of worker processes once, and
the records that read it are built in the calling process
(:func:`~repro.runner.api.run_cached`).

Work that would use at most one worker runs in the calling process: a
pool of one only adds an interpreter start-up. Otherwise workers are
started with the ``spawn`` method: each one imports the package fresh,
so no parent in-process state can leak into a worker run. Determinism
is preserved — every simulation is a pure function of its seeded
:class:`~repro.runner.config.ExperimentConfig`, so a side run in a
worker has bit-identical cycle counts to one run in process (the test
suite asserts this).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Optional, Tuple

#: One experiment to run: (exp_id, overrides-or-None).
WorkItem = Tuple[str, Optional[Mapping[str, Any]]]


def default_jobs() -> int:
    """The default ``--jobs``: every core the scheduler gives us."""
    return os.cpu_count() or 1


def spawn_pool(workers: int):
    """A ``ProcessPoolExecutor`` of ``workers`` spawned processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def run_sides(
    sides: Mapping[str, Any],
    jobs: int,
    arrived: Callable[[str, Any], None],
) -> None:
    """Simulate each side of ``sides`` (by key) once over
    ``min(jobs, len(sides))`` spawned workers, submitted in order, and
    call ``arrived(key, run)`` in this process as each run comes back.

    A worker's failure propagates on its side's arrival; sides not yet
    started are then cancelled.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    from repro.core.experiments import run_side

    with spawn_pool(min(jobs, len(sides))) as pool:
        pending = {pool.submit(run_side, side): key for key, side in sides.items()}
        try:
            while pending:
                done, _running = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    arrived(pending.pop(future), future.result())
        finally:
            for future in pending:
                future.cancel()
