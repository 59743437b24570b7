"""Batched execution backend for the message-passing context.

The fast paths, and the argument that they are bit-identical to the
scalar context, live in :mod:`repro.sim.batch`; this module binds them
to :class:`~repro.mp.api.MpContext`.
"""

from __future__ import annotations

from repro.mp.api import MpContext
from repro.sim.batch import BatchedContext
from repro.stats.categories import MpCat


class BatchedMpContext(BatchedContext, MpContext):
    """Message-passing context with batched zero-stall fast paths."""

    # This machine has no indexed store: reject it exactly as the
    # reference backend does, rather than take the shared fast path.
    write_scatter = MpContext.write_scatter

    def __init__(self, machine: "repro.mp.machine.MpMachine", pid: int) -> None:  # noqa: F821
        super().__init__(machine, pid, compute=MpCat.COMPUTE)
