"""Machine-level semantics of the relaxed memory models.

Litmus shapes pin the cross-processor orderings (tests/check); these
tests pin the mechanics underneath: context selection, read-own-write
forwarding, fence drain, deferred visibility, and the create() release
deferral — on real machines, through the public program surface.
"""

import numpy as np
import pytest

from repro.arch.cache import LineState
from repro.arch.params import MachineParams
from repro.sm.api import SmContext
from repro.sm.batched import BatchedSmContext
from repro.sm.machine import SmMachine
from repro.sm.relaxed import RelaxedSmContext


def _machine(consistency, nprocs=2, backend="batched", seed=1):
    return SmMachine(
        MachineParams.paper(num_processors=nprocs),
        seed=seed,
        backend=backend,
        consistency=consistency,
    )


def test_context_selection_by_model_and_backend():
    """sc keeps the per-backend contexts; relaxed models force the
    scalar relaxed context on *both* backends (batched bulk steps
    assume SC visibility)."""
    assert type(_machine("sc").contexts[0]) is BatchedSmContext
    assert type(_machine("sc", backend="reference").contexts[0]) is SmContext
    for model in ("tso", "pc"):
        for backend in ("batched", "reference"):
            machine = _machine(model, backend=backend)
            assert type(machine.contexts[0]) is RelaxedSmContext


def test_unknown_consistency_rejected():
    with pytest.raises(ValueError, match="unknown consistency"):
        _machine("weak")


def test_read_own_write_forwarding():
    """A processor always sees its own stores, committed or not."""
    machine = _machine("tso")
    seen = {}

    def program(ctx):
        if ctx.pid == 0:
            region = ctx.gmalloc("x", 4)
            yield from ctx.write(region, 0, values=np.array([7.0]))
            # The store is (very likely) still buffered; the load must
            # forward it regardless.
            got = yield from ctx.read(region, 0, 1)
            seen["forwarded"] = float(got[0])
            seen["pending"] = len(ctx.store_buffer)
        else:
            yield from ctx.compute(1)
        yield from ctx.barrier()

    machine.run(program)
    assert seen["forwarded"] == 7.0
    assert seen["pending"] >= 1  # the value came from the buffer


def test_fence_drains_and_commits():
    """fence() returns only once the buffer is dry and memory holds the
    stored values."""
    machine = _machine("tso", nprocs=1)
    seen = {}

    def program(ctx):
        region = ctx.gmalloc("x", 4)
        yield from ctx.write(region, 0, values=np.array([3.0]))
        seen["before"] = float(region.np.reshape(-1)[0])
        yield from ctx.fence()
        seen["after"] = float(region.np.reshape(-1)[0])
        seen["pending"] = len(ctx.store_buffer)

    machine.run(program)
    assert seen["before"] == 0.0  # parked in the buffer, not in memory
    assert seen["after"] == 3.0
    assert seen["pending"] == 0


def test_sc_fence_is_free():
    """Under sc, fence() is a no-op returning without touching the
    engine — the sc path stays bit-identical to the pre-relaxation
    machine."""
    machine = _machine("sc", nprocs=1)
    times = {}

    def program(ctx):
        region = ctx.gmalloc("x", 4)
        yield from ctx.write(region, 0, values=np.array([1.0]))
        t0 = ctx.engine.now
        yield from ctx.fence()
        times["cost"] = ctx.engine.now - t0

    machine.run(program)
    assert times["cost"] == 0


def test_store_counters_and_drain_counts():
    machine = _machine("pc", nprocs=1)

    def program(ctx):
        region = ctx.gmalloc("x", 16)
        for i in range(4):
            yield from ctx.write(region, i, values=np.array([float(i)]))
        yield from ctx.write_scatter(region, [8, 9], 5.0)
        yield from ctx.fence()

    result = machine.run(program)
    board = result.board
    assert board.mean_count("sb_stores") == 5
    assert board.mean_count("sb_drains") == 5
    assert board.mean_count("fences") >= 1


def test_load_behind_own_drain_commit_hits():
    """A load that waits out its own drain's GETX on the block hits the
    line the commit made EXCLUSIVE. Issuing the miss anyway would send
    the directory a GETS from the block's owner, which downgrades the
    entry to SHARED while this cache still holds the line EXCLUSIVE."""
    machine = _machine("tso", nprocs=1)
    seen = {}

    def program(ctx):
        region = ctx.gmalloc("x", 4)
        yield from ctx.write(region, 0, values=np.array([5.0]))
        while ctx.drain.inflight_block is None:
            yield from ctx.compute(1)
        block = ctx.drain.inflight_block
        got = yield from ctx.read(region, 0, 1)
        seen["read"] = float(got[0])
        seen["line"] = ctx.cache.peek(block)
        seen["dir"] = ctx.machine.directories[0].entries[block].describe()
        yield from ctx.fence()

    result = machine.run(program)
    assert seen == {
        "read": 5.0, "line": LineState.EXCLUSIVE, "dir": "EXCLUSIVE@0"
    }
    assert result.board.mean_count("shared_misses_local") == 0


def test_relaxed_runs_are_seed_deterministic():
    """Same seed, same simulation — the pc commit jitter comes from the
    machine's own seeded stream."""

    def program(ctx):
        region = ctx.machine.regions[0] if ctx.machine.regions else None
        if ctx.pid == 0 and region is None:
            region = ctx.gmalloc("x", 32)
        yield from ctx.barrier()
        region = ctx.machine.regions[0]
        for i in range(8):
            yield from ctx.write(
                region, (ctx.pid * 8 + i) % 32, values=np.array([float(i)])
            )
        yield from ctx.barrier()

    totals = []
    for _ in range(2):
        machine = _machine("pc", seed=42)
        result = machine.run(program)
        totals.append(
            (machine.engine.now, result.board.mean_count("sb_drains"))
        )
    assert totals[0] == totals[1]


def test_create_defers_until_init_stores_commit():
    """parmacs create() releases the other processors only once
    processor 0's initialization stores are visible."""
    machine = _machine("tso")
    seen = {}

    def program(ctx):
        if ctx.pid == 0:
            region = ctx.gmalloc("init", 4)
            yield from ctx.write(region, 0, values=np.array([9.0]))
            ctx.create()
            yield from ctx.barrier()
        else:
            yield from ctx.wait_create()
            got = yield from ctx.read(ctx.machine.regions[0], 0, 1)
            seen["read"] = float(got[0])
            yield from ctx.barrier()

    machine.run(program)
    assert seen["read"] == 9.0
