"""White-box tests of the batched backend's verdict memoization.

The differential suite proves the backends bit-identical end to end;
these tests pin the memo mechanics — verdicts are stamped with the
TLB/cache versions they were computed at, reused only while both stand,
and never recorded for outcomes that themselves changed line states.
Both machines run the one implementation
(:class:`repro.sim.batch.BatchedContext`), so every test runs on each.
"""

import pytest

from repro.arch.params import MachineParams
from repro.mp.batched import BatchedMpContext
from repro.mp.machine import MpMachine
from repro.sim.batch import BatchScript
from repro.sm.batched import BatchedSmContext
from repro.sm.machine import SmMachine


def machines():
    """A fresh default-backend 2-processor machine of each kind, with its
    batched context class and a node-local allocator ``alloc(ctx, n)``."""
    params = MachineParams.paper(num_processors=2)
    yield SmMachine(params, seed=11), BatchedSmContext, (
        lambda ctx, n: ctx.alloc_private("buf", n)
    )
    yield MpMachine(params, seed=11), BatchedMpContext, (
        lambda ctx, n: ctx.alloc("buf", n)
    )


def test_machine_default_backend_is_batched():
    for machine, context_cls, _alloc in machines():

        def program(ctx):
            assert type(ctx) is context_cls
            yield from ctx.compute(1)

        machine.run(program)


def test_scalar_memo_populated_by_clean_fast_path():
    for machine, _cls, alloc in machines():
        seen = {}

        def program(ctx):
            if ctx.pid == 0:
                buf = alloc(ctx, 8)
                yield from ctx.read(buf, 0, 8)  # cold: misses, no memo
                assert not ctx._range_memo
                yield from ctx.read(buf, 0, 8)  # warm: clean verdict memoized
                assert (buf, 0, 8, False) in ctx._range_memo
                memo = ctx._range_memo[(buf, 0, 8, False)]
                seen["memo"] = list(memo)
                seen["versions"] = (ctx.tlb.version, ctx.cache.version)
                hits = (ctx.tlb.hits, ctx.cache.hits)
                yield from ctx.read(buf, 0, 8)  # memo hit commits hit counts
                seen["hit_delta"] = (ctx.tlb.hits - hits[0], ctx.cache.hits - hits[1])
            else:
                yield from ctx.compute(1)

        machine.run(program)
        tlb_v, cache_v, npages, nblocks = seen["memo"]
        assert (tlb_v, cache_v) == seen["versions"]
        assert seen["hit_delta"] == (npages, nblocks)


def test_scalar_memo_invalidated_by_version_bump():
    for machine, _cls, alloc in machines():

        def program(ctx):
            if ctx.pid == 0:
                buf = alloc(ctx, 8)
                yield from ctx.read(buf, 0, 8)
                yield from ctx.read(buf, 0, 8)
                memo = ctx._range_memo[(buf, 0, 8, False)]
                assert memo[1] == ctx.cache.version
                # Any line-state change anywhere moves the cache version,
                # making every stored verdict stale.
                ctx.cache.flush()
                assert memo[1] != ctx.cache.version
            yield from ctx.compute(1)

        machine.run(program)


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
                with pytest.raises(TypeError, match="did you mean 'start'"):
                    yield from ctx.read(buf, lo=0)
            yield from ctx.compute(1)

        machine.run(program)
