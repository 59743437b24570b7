"""Declared bulk runs, and the batched fast path both machine contexts share.

A :class:`BatchScript` is a small op table an application inner loop
builds once per logical step and hands to ``ctx.run_batch``. On the
reference backend the script is decomposed into the exact scalar
``read``/``write``/``compute`` calls the program would have made, so a
batch is purely a *declaration* of already-consecutive operations — it
can never reorder them. The batched backend executes the same table as
one step: contiguous cache-block runs are probed in bulk and only the
ops that actually stall fall back to the scalar protocol path, which is
what makes the two backends bit-identical by construction.

Ops are stored as plain tuples keyed by kind; ``values`` for a write or
scatter may be a callable receiving the list of results produced so far
(reads and gathers append to it, in op order). The callable is evaluated
at the op's position, so a read feeding the following write of the same
batch sees exactly the values the scalar program would have computed.

The batched backend
-------------------

Both machines are built on one hardware base (the paper's Table 1: the
same TLB, caches and block size), so an access that hits in the TLB and
the cache is the same zero-stall event on either. :class:`BatchedContext`
executes that common case of every memory op — the whole range
TLB-resident and cache-resident with sufficient permission — as one
batched step: a counter-neutral probe over the run of blocks, then a
single bulk commit of the exact hit counts (and SHARED→EXCLUSIVE
fixups) the scalar loop would have produced. Any page or block that
would stall falls back through ``super()`` to the scalar context's
reference path with nothing committed, so cycle counts, event counts,
stats, and cache state are bit-identical to the scalar context by
construction. Zero-stall ops charge no cycles and yield no events in
the reference semantics, which is precisely why the fast path may skip
the generator protocol entirely.

A script's clean verdicts (all pages and blocks resident, no state
fixups) are *memoized* against the TLB and cache version stamps (see
:class:`~repro.arch.cache.Cache`): neither structure mutates on a hit,
so while both versions are unchanged the memoized verdict — and the
exact hit counts it commits — is still what a fresh probe would
produce. Prebuilt scripts carry their memo table across iterations; a
scalar op outside a script probes afresh each time. A verdict that
required fixups bumps the cache version itself and is never memoized.

``run_batch`` executes a whole script in one generator frame. The
invariant checker, the one tool that rebinds a context's data ops, also
rebinds that context's ``run_batch`` to :func:`run_batch_reference`, so
a checked run observes exactly the scalar op stream.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.cache import LineState
from repro.memory.dataspace import Region, Segment
from repro.sim.process import delay_of

_EXCLUSIVE = LineState.EXCLUSIVE

#: values argument: concrete data, or a callable of the results-so-far list.
BatchValues = Union[Sequence, Callable[[List[Any]], Any]]


class BatchScript:
    """Builder for a declared bulk run; every method returns ``self``."""

    __slots__ = ("ops", "memos")

    def __init__(self) -> None:
        self.ops: List[Tuple] = []
        # Per-op verdict memo, lazily allocated by the batched backend on
        # first execution (None until then). Prebuilt scripts carry their
        # memoized probe verdicts — stamped with the TLB/cache versions
        # they were computed at — across iterations; see BatchedContext.
        self.memos: Optional[List] = None

    def read(self, region, start: int = 0, stop: Optional[int] = None) -> "BatchScript":
        """Read elements [start, stop); appends the view to the results."""
        self.ops.append(("read", region, start, stop))
        return self

    def write(
        self,
        region,
        start: int = 0,
        stop: Optional[int] = None,
        *,
        values: Optional[BatchValues] = None,
    ) -> "BatchScript":
        """Write elements starting at ``start`` (length from values or stop)."""
        self.ops.append(("write", region, start, stop, values))
        return self

    def read_gather(self, region, indices) -> "BatchScript":
        """Indexed read; appends the gathered values to the results."""
        self.ops.append(("read_gather", region, indices))
        return self

    def write_scatter(self, region, indices, values: BatchValues) -> "BatchScript":
        """Indexed write (``values`` may be a results-so-far callable)."""
        self.ops.append(("write_scatter", region, indices, values))
        return self

    def compute(self, cycles: float) -> "BatchScript":
        """Charge computation cycles."""
        self.ops.append(("compute", cycles))
        return self

    def compute_flops(self, count: float) -> "BatchScript":
        """Charge the cycle cost of ``count`` floating-point operations."""
        self.ops.append(("compute_flops", count))
        return self

    def __len__(self) -> int:
        return len(self.ops)


def run_batch_reference(ctx, script: BatchScript):
    """Decompose a script into the context's (possibly wrapped) scalar ops.

    This is the semantic definition of a batch: op-for-op identical to
    the scalar program. Dispatch goes through ``ctx.read`` etc. via
    attribute lookup, so instance-rebound instrumentation (the checker's
    oracle) composes exactly as it does for scalar code.
    """
    results: List[Any] = []
    for op in script.ops:
        kind = op[0]
        if kind == "read":
            results.append((yield from ctx.read(op[1], op[2], op[3])))
        elif kind == "write":
            values = op[4]
            if callable(values):
                values = values(results)
            yield from ctx.write(op[1], op[2], op[3], values=values)
        elif kind == "read_gather":
            results.append((yield from ctx.read_gather(op[1], op[2])))
        elif kind == "write_scatter":
            values = op[3]
            if callable(values):
                values = values(results)
            yield from ctx.write_scatter(op[1], op[2], values)
        elif kind == "compute":
            yield from ctx.compute(op[1])
        elif kind == "compute_flops":
            yield from ctx.compute_flops(op[1])
        else:
            raise ValueError(f"unknown batch op {kind!r}")
    return results


class BatchedContext:
    """Batched zero-stall fast paths for a machine context (module docstring).

    Mix in ahead of the scalar context, ``class C(BatchedContext,
    SmContext)``, so every miss falls back to it through ``super()``;
    the subclass passes the category its batches' compute ops charge.
    The one guard only the shared-memory machine needs — a write to a
    non-EXCLUSIVE line of a plain shared ``dir`` region takes the
    scalar upgrade transaction — never fires on the message-passing
    machine, whose regions are all private.
    """

    def __init__(self, *args: Any, compute: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._compute = compute
        # Probe constants, read once per context.
        self._fast_page_bytes = self.params.common.page_bytes
        self._fast_block_bytes = self.params.common.block_bytes

    def _fast_range(self, region: Region, start: int, stop: int, write: bool):
        """Attempt [start, stop) as one batched step.

        Returns ``(npages, nblocks)`` on a clean (memoizable) success,
        ``False`` on a success that fixed up SHARED lines in place
        (committed, but the fixups bumped the cache version), or ``None``
        on failure with nothing committed — the caller then takes the
        scalar path, which redoes the probes *with* counting (and raises
        the proper IndexError for a reversed or out-of-bounds range).
        Success requires that the reference path would have charged no
        cycles and yielded no events: every page TLB-resident, every
        block cache-resident, and — for writes to plain shared regions —
        already EXCLUSIVE (private and update-protocol writes may fix up
        SHARED lines in place, exactly as the scalar loop does).
        """
        size = region.flat.size
        if stop <= start:
            if start == stop and 0 <= start <= size:
                return (0, 0)  # touches no pages and no blocks on either path
            return None
        if start < 0 or stop > size:
            return None
        itemsize = region.itemsize
        base = region.base + start * itemsize
        last = region.base + stop * itemsize - 1
        tlb = self.tlb
        fifo = tlb._fifo
        page_bytes = self._fast_page_bytes
        first_page = base - base % page_bytes
        last_page = last - last % page_bytes
        if first_page == last_page:
            if first_page not in fifo:
                return None
            npages = 1
        else:
            pages = range(first_page, last_page + 1, page_bytes)
            if not all(map(fifo.__contains__, pages)):
                return None
            npages = len(pages)
        block_bytes = self._fast_block_bytes
        first_block = base - base % block_bytes
        last_block = last - last % block_bytes
        cache = self.cache
        get = cache._lines.get
        fixups = None
        if first_block == last_block:
            nblocks = 1
            state = get(first_block)
            if state is None:
                return None
            if write and state is not _EXCLUSIVE:
                if region.segment is Segment.SHARED and region.protocol != "update":
                    return None  # would take an upgrade transaction
                fixups = (first_block,)
        else:
            blocks = range(first_block, last_block + 1, block_bytes)
            nblocks = len(blocks)
            if write:
                states = list(map(get, blocks))
                if None in states:
                    return None
                if states.count(_EXCLUSIVE) != nblocks:
                    if region.segment is Segment.SHARED and region.protocol != "update":
                        return None  # would take an upgrade transaction
                    fixups = [
                        block
                        for block, state in zip(blocks, states)
                        if state is not _EXCLUSIVE
                    ]
            elif not all(map(get, blocks)):
                return None
        tlb.hits += npages
        cache.hits += nblocks
        if fixups is not None:
            set_state = cache.set_state
            for block in fixups:
                set_state(block, _EXCLUSIVE)
            return False
        return (npages, nblocks)

    def _fast_blocks(self, region: Region, blocks: List[int], write: bool):
        """Gather/scatter twin of :meth:`_fast_range` over explicit blocks.

        ``blocks`` is a list of Python ints. Returns the committed hit
        count ``n >= 0`` on a clean success, ``-1`` on a success with
        fixups, ``None`` on failure. Mirrors the scalar gather loops: the
        TLB is probed once per *block* (no page dedup), then the line.
        """
        tlb = self.tlb
        fifo = tlb._fifo
        mask = tlb._page_mask
        page_bytes = tlb.page_bytes
        get = self.cache._lines.get
        plain_shared = write and (
            region.segment is Segment.SHARED and region.protocol != "update"
        )
        n = 0
        fixups = None
        for block in blocks:
            page = block & mask if mask is not None else block - (block % page_bytes)
            if page not in fifo:
                return None
            state = get(block)
            if state is None:
                return None
            if write and state is not _EXCLUSIVE:
                if plain_shared:
                    return None
                if fixups is None:
                    fixups = [block]
                else:
                    fixups.append(block)
            n += 1
        tlb.hits += n
        self.cache.hits += n
        if fixups is not None:
            set_state = self.cache.set_state
            for block in fixups:
                set_state(block, _EXCLUSIVE)
            return -1
        return n

    # -- scalar ops with batched fast paths ---------------------------------

    def read(
        self, region: Region, start: int = 0, stop: Optional[int] = None
    ) -> Generator:
        if stop is None:
            stop = region.flat.size
        if self._fast_range(region, start, stop, False) is not None:
            return region.flat[start:stop]
        return (yield from super().read(region, start, stop))

    def write(
        self,
        region: Region,
        start: int = 0,
        stop: Optional[int] = None,
        *,
        values: Optional[Sequence] = None,
    ) -> Generator:
        if values is not None:
            values = np.asarray(values)
            stop = start + values.size
        if stop is None:
            raise ValueError("write needs values or stop")
        if self._fast_range(region, start, stop, True) is not None:
            if values is not None:
                region.flat[start:stop] = values.reshape(-1)
            return
        yield from super().write(region, start, stop, values=values)

    def read_gather(self, region: Region, indices: Sequence[int]) -> Generator:
        blocks = region.block_addrs_of_indices(indices).tolist()
        if self._fast_blocks(region, blocks, False) is not None:
            return region.flat[np.asarray(indices, dtype=np.int64)]
        return (yield from super().read_gather(region, indices))

    def write_scatter(self, region: Region, indices: Sequence[int], values) -> Generator:
        blocks = region.block_addrs_of_indices(indices).tolist()
        if self._fast_blocks(region, blocks, True) is not None:
            region.flat[np.asarray(indices, dtype=np.int64)] = values
            return
        yield from super().write_scatter(region, indices, values)

    # -- batch executor ------------------------------------------------------

    def run_batch(self, script: BatchScript) -> Generator:
        """Execute a whole script in one frame (see the module docstring)."""
        ops = script.ops
        memos = script.memos
        if memos is None:
            memos = script.memos = [None] * len(ops)
        results = []
        append = results.append
        stats = self.stats
        engine = self.engine
        tlb = self.tlb
        cache = self.cache
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "read":
                m = memos[i]
                if m is not None and m[0] == tlb.version and m[1] == cache.version:
                    tlb.hits += m[2]
                    cache.hits += m[3]
                    append(op[1].flat[m[4]:m[5]])
                    continue
                region, start, stop = op[1], op[2], op[3]
                if stop is None:
                    stop = region.flat.size
                r = self._fast_range(region, start, stop, False)
                if r is not None:
                    if r is not False:
                        memos[i] = [tlb.version, cache.version, r[0], r[1], start, stop]
                    append(region.flat[start:stop])
                else:
                    append((yield from super().read(region, start, stop)))
            elif kind == "compute" or kind == "compute_flops":
                cycles = memos[i]
                if cycles is None:
                    cycles = memos[i] = int(
                        round(op[1] if kind == "compute" else self.costs.flops(op[1]))
                    )
                if cycles > 0:
                    stats.charge(self._compute, cycles)
                    if not engine.consume_inline_delay(cycles):
                        yield delay_of(cycles)
            elif kind == "write":
                region, start, stop, values = op[1], op[2], op[3], op[4]
                if callable(values):
                    values = values(results)
                if values is not None:
                    values = np.asarray(values)
                    stop = start + values.size
                if stop is None:
                    raise ValueError("write needs values or stop")
                m = memos[i]
                if (
                    m is not None
                    and m[0] == tlb.version
                    and m[1] == cache.version
                    and m[4] == start
                    and m[5] == stop
                ):
                    tlb.hits += m[2]
                    cache.hits += m[3]
                    if values is not None:
                        region.flat[start:stop] = values.reshape(-1)
                    continue
                r = self._fast_range(region, start, stop, True)
                if r is not None:
                    if r is not False:
                        memos[i] = [tlb.version, cache.version, r[0], r[1], start, stop]
                    if values is not None:
                        region.flat[start:stop] = values.reshape(-1)
                else:
                    yield from super().write(region, start, stop, values=values)
            elif kind == "read_gather":
                region = op[1]
                m = memos[i]
                if m is None:
                    indices = op[2]
                    blocks = region.block_addrs_of_indices(indices).tolist()
                    idx = np.asarray(indices, dtype=np.int64)
                    m = memos[i] = [-1, -1, 0, idx, blocks]
                if m[0] == tlb.version and m[1] == cache.version:
                    tlb.hits += m[2]
                    cache.hits += m[2]
                    append(region.flat[m[3]])
                    continue
                r = self._fast_blocks(region, m[4], False)
                if r is not None:
                    m[0] = tlb.version
                    m[1] = cache.version
                    m[2] = r
                    append(region.flat[m[3]])
                else:
                    append((yield from super().read_gather(region, op[2])))
            elif kind == "write_scatter":
                # No program scatters inside a batch: the scalar op (with its
                # own fast path, where the machine has one) serves it.
                values = op[3]
                if callable(values):
                    values = values(results)
                yield from self.write_scatter(op[1], op[2], values)
            else:
                raise ValueError(f"unknown batch op {kind!r}")
        return results
