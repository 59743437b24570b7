"""White-box tests of the batched backend's verdict memoization.

The differential suite proves the backends bit-identical end to end;
these tests pin the memo mechanics — a script's verdicts are stamped
with the TLB/cache versions they were computed at, reused only while
both stand, and never recorded for outcomes that themselves changed
line states — and that scalar ops, which probe afresh, count the
reference context's hits.
Both machines run the one implementation
(:class:`repro.sim.batch.BatchedContext`), so every test runs on each.
"""

import numpy as np
import pytest

from repro.arch.params import MachineParams
from repro.mp.batched import BatchedMpContext
from repro.mp.machine import MpMachine
from repro.sim.batch import BatchScript
from repro.sm.batched import BatchedSmContext
from repro.sm.machine import SmMachine


def machines(**kwargs):
    """A fresh 2-processor machine of each kind (default backend unless
    ``kwargs`` say otherwise), with its batched context class and a
    node-local allocator ``alloc(ctx, n)``."""
    params = MachineParams.paper(num_processors=2)
    yield SmMachine(params, seed=11, **kwargs), BatchedSmContext, (
        lambda ctx, n: ctx.alloc_private("buf", n)
    )
    yield MpMachine(params, seed=11, **kwargs), BatchedMpContext, (
        lambda ctx, n: ctx.alloc("buf", n)
    )


def test_machine_default_backend_is_batched():
    for machine, context_cls, _alloc in machines():

        def program(ctx):
            assert type(ctx) is context_cls
            yield from ctx.compute(1)

        machine.run(program)


def test_repeated_scalar_ops_commit_the_reference_hit_counts():
    """Scalar reads and writes of a resident range, repeated, commit
    exactly the TLB and cache hits the reference context counts."""
    counts = {}
    for backend in ("batched", "reference"):
        for machine, _cls, alloc in machines(backend=backend):

            def program(ctx):
                if ctx.pid == 0:
                    buf = alloc(ctx, 16)
                    for _ in range(3):
                        yield from ctx.read(buf, 0, 16)
                        yield from ctx.write(buf, 4, values=np.arange(8.0))
                        yield from ctx.read(buf, 2, 9)
                yield from ctx.compute(1)

            machine.run(program)
            tlb, cache = machine.nodes[0].tlb, machine.nodes[0].cache
            counts.setdefault(type(machine).__name__, {})[backend] = (
                tlb.hits, tlb.misses, cache.hits, cache.misses,
            )
    for name, by_backend in counts.items():
        assert by_backend["batched"] == by_backend["reference"], name
        assert by_backend["batched"][2] > 0, name


def test_script_memos_filled_on_clean_runs():
    for machine, _cls, alloc in machines():

        def program(ctx):
            if ctx.pid == 0:
                buf = alloc(ctx, 16)
                script = BatchScript().read(buf, 0, 16).compute(5)
                yield from ctx.run_batch(script)  # cold read: no verdict yet
                assert script.memos is not None and len(script.memos) == 2
                assert script.memos[0] is None  # fallback path is never memoized
                assert script.memos[1] == 5  # compute cycles precomputed
                yield from ctx.run_batch(script)  # warm: verdict recorded
                assert script.memos[0] is not None
                first = list(script.memos[0])
                results = yield from ctx.run_batch(script)  # memo hit
                assert script.memos[0] == first
                assert len(results) == 1 and results[0].size == 16
            else:
                yield from ctx.compute(1)

        machine.run(program)


def test_unified_signature_rejects_legacy_kwargs():
    for machine, _cls, alloc in machines():

        def program(ctx):
            if ctx.pid == 0:
                buf = alloc(ctx, 4)
                with pytest.raises(TypeError, match="unexpected keyword argument 'lo'"):
                    yield from ctx.read(buf, lo=0)
            yield from ctx.compute(1)

        machine.run(program)


@pytest.mark.parametrize("backend", ("batched", "reference"))
@pytest.mark.parametrize("in_batch", (False, True), ids=("scalar", "batch"))
@pytest.mark.parametrize("op", ("read", "write"))
@pytest.mark.parametrize("span", ((5, 3), (-1, -1)), ids=("reversed", "negative"))
def test_reversed_and_negative_empty_ranges_raise(backend, in_batch, op, span):
    """Only an in-bounds empty range is a no-op: a reversed or negative
    one raises the reference path's IndexError on both backends, as a
    scalar op and inside a batch alike."""
    start, stop = span
    for machine, _cls, alloc in machines(backend=backend):
        errors = []

        def program(ctx):
            if ctx.pid == 0:
                buf = alloc(ctx, 8)
                try:
                    if in_batch:
                        script = getattr(ctx.batch(), op)(buf, start, stop)
                        yield from ctx.run_batch(script)
                    else:
                        yield from getattr(ctx, op)(buf, start, stop)
                except IndexError as exc:
                    errors.append(str(exc))
            yield from ctx.compute(1)

        machine.run(program)
        name = type(machine).__name__
        assert errors == [f"p0.buf[{start}:{stop}] out of range"], name


def test_in_bounds_empty_ranges_touch_nothing():
    for backend in ("batched", "reference"):
        for machine, _cls, alloc in machines(backend=backend):

            def program(ctx):
                if ctx.pid == 0:
                    buf = alloc(ctx, 8)
                    for start in (0, 4, 8):
                        got = yield from ctx.read(buf, start, start)
                        assert got.size == 0
                        yield from ctx.write(buf, start, start)
                        got = yield from ctx.run_batch(
                            ctx.batch().read(buf, start, start).write(buf, start, start)
                        )
                        assert got[0].size == 0
                yield from ctx.compute(1)

            machine.run(program)
            tlb, cache = machine.nodes[0].tlb, machine.nodes[0].cache
            assert (tlb.hits, tlb.misses, cache.hits, cache.misses) == (0, 0, 0, 0)
