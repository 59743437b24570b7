"""Batched execution backend for the shared-memory context.

The fast paths, and the argument that they are bit-identical to the
scalar context, live in :mod:`repro.sim.batch`; this module binds them
to :class:`~repro.sm.api.SmContext`.
"""

from __future__ import annotations

from repro.sim.batch import BatchedContext
from repro.sm.api import SmContext
from repro.stats.categories import SmCat


class BatchedSmContext(BatchedContext, SmContext):
    """Shared-memory context with batched zero-stall fast paths."""

    def __init__(self, machine: "repro.sm.machine.SmMachine", pid: int) -> None:  # noqa: F821
        super().__init__(machine, pid, compute=SmCat.COMPUTE)
