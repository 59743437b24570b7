"""Tests of the MpContext programming surface (compute, memory, barrier)."""

import numpy as np
import pytest

from repro.arch.params import MachineParams
from repro.mp.machine import MpMachine
from repro.stats.categories import MpCat


def run(machine, program, *args):
    return machine.run(program, *args)


def test_compute_charges_and_advances_time(machine2):
    def program(ctx):
        yield from ctx.compute(123)

    result = run(machine2, program)
    assert result.elapsed_cycles == 123
    assert result.board.mean_cycles(MpCat.COMPUTE) == 123


def test_compute_flops_uses_cost_model(machine2):
    def program(ctx):
        yield from ctx.compute_flops(10)

    result = run(machine2, program)
    expected = machine2.costs.flops(10)
    assert result.board.mean_cycles(MpCat.COMPUTE) == expected


def test_read_miss_then_hit(machine2):
    def program(ctx):
        region = ctx.alloc("buf", 8)  # 64 bytes = 2 blocks
        values = yield from ctx.read(region)  # cold: 2 misses (+1 TLB)
        assert values.size == 8
        yield from ctx.read(region)  # warm: hits

    result = run(machine2, program)
    assert result.board.mean_count("local_misses") == 2
    assert result.board.mean_count("tlb_misses") == 1
    common = machine2.params.common
    expected = 2 * common.local_miss_total_cycles + common.tlb_miss_cycles
    assert result.board.mean_cycles(MpCat.LOCAL_MISS) == expected


def test_write_stores_values(machine2):
    seen = {}

    def program(ctx):
        region = ctx.alloc("v", 4)
        yield from ctx.write(region, 0, values=np.arange(4.0))
        seen[ctx.pid] = region.np.copy()

    run(machine2, program)
    assert (seen[0] == [0, 1, 2, 3]).all()


def test_read_gather_touches_unique_blocks(machine2):
    def program(ctx):
        region = ctx.alloc("g", 64)  # 16 blocks of 4 doubles
        values = yield from ctx.read_gather(region, [0, 1, 2, 3, 16])
        assert values.size == 5

    result = run(machine2, program)
    # Elements 0-3 share one block; element 16 is another: 2 misses.
    assert result.board.mean_count("local_misses") == 2


@pytest.mark.parametrize("in_batch", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize("backend", ["batched", "reference"])
def test_write_scatter_rejected_alike_on_both_backends(backend, in_batch):
    """The machine has no indexed store. Both backends reject it with the
    same error, even on a resident EXCLUSIVE region that the batched
    fast path would otherwise accept."""
    machine = MpMachine(MachineParams.paper(num_processors=2), seed=7, backend=backend)

    def program(ctx):
        region = ctx.alloc("buf", 8)
        yield from ctx.write(region, values=np.zeros(8))
        with pytest.raises(TypeError, match="no write_scatter"):
            if in_batch:
                yield from ctx.run_batch(ctx.batch().write_scatter(region, [0, 5], [1.0, 2.0]))
            else:
                yield from ctx.write_scatter(region, [0, 5], [1.0, 2.0])
        assert not region.np.any()

    machine.run(program)


def test_lib_context_remaps_misses(machine2):
    def program(ctx):
        region = ctx.alloc("buf", 8)
        with ctx.stats.context("lib"):
            yield from ctx.read(region)
            yield from ctx.compute(50)

    result = run(machine2, program)
    assert result.board.mean_cycles(MpCat.LIB_COMPUTE) == 50
    assert result.board.mean_cycles(MpCat.LIB_MISS) > 0
    assert result.board.mean_cycles(MpCat.COMPUTE) == 0
    assert result.board.mean_cycles(MpCat.LOCAL_MISS) == 0


def test_barrier_releases_all_after_latency(machine4):
    finish = {}

    def program(ctx):
        yield from ctx.compute(ctx.pid * 10)  # staggered arrivals
        yield from ctx.barrier()
        finish[ctx.pid] = ctx.engine.now

    result = run(machine4, program)
    # Last arrival at 30, release at 130 for everyone.
    assert set(finish.values()) == {130}
    # Earliest arrival waited the longest.
    waits = [p.cycles.get(MpCat.BARRIER, 0) for p in result.board.procs]
    assert waits[0] == 130 and waits[3] == 100


def test_elapsed_is_last_finisher(machine2):
    def program(ctx):
        yield from ctx.compute(100 if ctx.pid == 0 else 500)

    result = run(machine2, program)
    assert result.elapsed_cycles == 500


def test_outputs_collected_per_processor(machine4):
    def program(ctx):
        yield from ctx.compute(1)
        return ctx.pid * 2

    result = run(machine4, program)
    assert result.outputs == [0, 2, 4, 6]
