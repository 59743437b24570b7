"""Randomized stress programs that drive the machines under the checker.

Litmus shapes probe known-dangerous interleavings; the stress programs
probe the interleavings nobody thought of. Each run pre-generates a
deterministic random schedule of operations from a seed (pure Python
``random.Random`` — the simulator's own RNG streams are untouched),
executes it on a real machine with the invariant monitors installed,
and asserts end-to-end properties the schedule makes predictable:

* **Shared memory** (:func:`run_sm_stress`): random reads, range
  writes, gathers, scatters, and compute bubbles over one shared
  region, interleaved with MCS-lock-protected counter increments. The
  data-value oracle cross-checks every load while it runs; afterwards
  the counter must equal the total number of increments (mutual
  exclusion) and the quiescent directory/cache sweep must pass.
* **Message passing** (:func:`run_mp_stress`): a random all-to-all
  burst of sequence-numbered active messages — every receiver asserts
  per-source FIFO order at the application level, on both the polled
  FIFO and the interrupt queue — followed by a synchronous CMMD ring
  exchange whose payloads are verified elementwise. Runs under
  ``strict_quiescence``: these programs drain everything they send.

Property-based tests (Hypothesis) drive the ``ops``/``seed`` parameters
from ``tests/check/test_stress.py``; the ``repro check --stress N`` CLI
runs a fixed seed schedule.
"""

from __future__ import annotations

import random
from typing import Dict

import numpy as np

from repro import check
from repro.arch.params import MachineParams
from repro.check.errors import CheckError
from repro.mp.machine import MpMachine
from repro.sim import installed
from repro.sm.machine import SmMachine

#: Elements in the shared stress region (24 blocks at 4 doubles/block —
#: enough to spread home nodes and force evictions at stress sizes).
_SM_REGION_ELEMS = 96

_STRESS_POLL_TAG = "_stress_seq"
_STRESS_ISR_TAG = "_stress_isr"


def _sm_schedule(ops: int, seed: int, nprocs: int) -> list:
    """Per-processor operation lists totalling ``ops`` operations."""
    rng = random.Random(seed)
    per_proc = [[] for _ in range(nprocs)]
    for i in range(ops):
        pid = i % nprocs
        kind = rng.choice(
            ("read", "read", "write", "write", "gather", "scatter",
             "compute", "lock_inc")
        )
        if kind in ("read", "write"):
            lo = rng.randrange(_SM_REGION_ELEMS)
            hi = min(_SM_REGION_ELEMS, lo + 1 + rng.randrange(12))
            value = float(rng.randrange(1_000_000))
            per_proc[pid].append((kind, lo, hi, value))
        elif kind in ("gather", "scatter"):
            count = 1 + rng.randrange(8)
            indices = tuple(
                rng.randrange(_SM_REGION_ELEMS) for _ in range(count)
            )
            value = float(rng.randrange(1_000_000))
            per_proc[pid].append((kind, indices, value))
        elif kind == "compute":
            per_proc[pid].append((kind, 1 + rng.randrange(150)))
        else:
            per_proc[pid].append((kind,))
    return per_proc


def _sm_stress_program(ctx, schedule, lock, counter, totals):
    for op in schedule[ctx.pid]:
        kind = op[0]
        if kind == "read":
            yield from ctx.read(ctx.machine.regions[0], op[1], op[2])
        elif kind == "write":
            _, lo, hi, value = op
            yield from ctx.write(
                ctx.machine.regions[0],
                lo,
                values=np.full(hi - lo, value),
            )
        elif kind == "gather":
            yield from ctx.read_gather(ctx.machine.regions[0], list(op[1]))
        elif kind == "scatter":
            yield from ctx.write_scatter(
                ctx.machine.regions[0], list(op[1]), op[2]
            )
        elif kind == "compute":
            yield from ctx.compute(op[1])
        elif kind == "lock_inc":
            yield from lock.acquire(ctx)
            current = yield from ctx.read(counter, 0, 1)
            yield from ctx.compute(7)
            yield from ctx.write(
                counter, 0, values=np.array([current[0].item() + 1.0])
            )
            yield from lock.release(ctx)
            totals[ctx.pid] += 1
    yield from ctx.barrier()
    # Every processor re-reads the whole region at quiescence, driving a
    # final full oracle cross-check through live coherence traffic.
    yield from ctx.read(ctx.machine.regions[0], 0, _SM_REGION_ELEMS)


def run_sm_stress(
    ops: int = 500,
    seed: int = 0,
    nprocs: int = 4,
    backend: str = "batched",
    consistency: str = "sc",
) -> Dict[str, int]:
    """Random load/store/lock stress on the SM machine under the checker.

    Under ``consistency="tso"|"pc"`` the same schedules run through the
    store-buffered machine and the monitor's *relaxed* oracle: loads are
    judged against the committed shadow with the loader's own pending
    stores forwarded (per-location coherence — CoRR/CoWW still enforced
    at every drain commit), and end-of-run quiescence additionally
    requires every store buffer to have drained dry. The MCS-protected
    counter must still be exact: lock release fences, so mutual
    exclusion survives relaxation by construction.
    """
    schedule = _sm_schedule(ops, seed, nprocs)
    checker = installed(check.Checker)
    if checker is None:
        with check.checking() as checker:
            return _run_sm_stress(
                schedule, seed, nprocs, checker, backend, consistency
            )
    return _run_sm_stress(schedule, seed, nprocs, checker, backend, consistency)


def _run_sm_stress(
    schedule, seed, nprocs, checker, backend="batched", consistency="sc"
) -> Dict[str, int]:
    machine = SmMachine(
        MachineParams.paper(num_processors=nprocs),
        seed=2718 + seed,
        backend=backend,
        consistency=consistency,
    )
    region = machine.space.alloc_shared(
        "stress.data", owner=0, shape=_SM_REGION_ELEMS, dtype=np.float64
    )
    machine.index_region(region)
    assert machine.regions[0] is region
    counter = machine.space.alloc_shared(
        "stress.counter", owner=0, shape=4, dtype=np.float64
    )
    machine.index_region(counter)
    lock = machine.make_lock("stress.lock")
    totals = [0] * nprocs
    machine.run(_sm_stress_program, schedule, lock, counter, totals)
    increments = sum(totals)
    final = int(counter.np.reshape(-1)[0])
    if final != increments:
        raise CheckError(
            "mutual-exclusion",
            f"{increments} lock-protected increments produced counter "
            f"value {final} (lost updates)",
            block=counter.base,
        )
    report = dict(checker.report())
    report["increments"] = increments
    report["sm_ops"] = sum(len(s) for s in schedule)
    return report


def _mp_schedule(ops: int, seed: int, nprocs: int) -> list:
    """Per-processor send lists: (dest, tag, seq) triples."""
    rng = random.Random(seed)
    next_seq = {}
    per_proc = [[] for _ in range(nprocs)]
    for i in range(ops):
        src = i % nprocs
        dest = rng.randrange(nprocs - 1)
        if dest >= src:
            dest += 1
        tag = _STRESS_ISR_TAG if rng.random() < 0.25 else _STRESS_POLL_TAG
        key = (src, dest, tag)
        seq = next_seq.get(key, 0)
        next_seq[key] = seq + 1
        per_proc[src].append((dest, tag, seq, 1 + rng.randrange(60)))
    return per_proc


def _mp_stress_program(ctx, schedule, expected_counts):
    me, nprocs = ctx.pid, ctx.nprocs
    next_seq: Dict[tuple, int] = {}
    received = [0]

    def on_seq(handler_tag):
        def handler(hctx, packet):
            (seq,) = packet.payload
            key = (packet.src, handler_tag)
            want = next_seq.get(key, 0)
            if seq != want:
                raise CheckError(
                    "fifo",
                    f"handler {handler_tag!r} saw seq {seq} from node "
                    f"{packet.src}, expected {want}",
                    node=hctx.pid,
                )
            next_seq[key] = want + 1
            received[0] += 1
            return
            yield  # pragma: no cover - makes this a generator

        return handler

    ctx.am.register(_STRESS_POLL_TAG, on_seq(_STRESS_POLL_TAG))
    ctx.am.register(_STRESS_ISR_TAG, on_seq(_STRESS_ISR_TAG))
    ctx.enable_interrupts(_STRESS_ISR_TAG)

    for dest, tag, seq, gap in schedule[me]:
        yield from ctx.compute(gap)
        yield from ctx.am.send(dest, tag, seq, data_bytes=8)
    yield from ctx.poll_wait(lambda: received[0] >= expected_counts[me])
    yield from ctx.barrier()
    ctx.disable_interrupts(_STRESS_ISR_TAG)

    # Synchronous CMMD ring: even nodes send first, odd receive first.
    mine = ctx.alloc("ring_out", 32, fill=0.0)
    theirs = ctx.alloc("ring_in", 32, fill=-1.0)
    yield from ctx.write(
        mine, 0, values=np.arange(32, dtype=np.float64) + 1000.0 * me
    )
    right = (me + 1) % nprocs
    left = (me - 1) % nprocs
    if me % 2 == 0:
        yield from ctx.cmmd.send_block(right, mine)
        yield from ctx.cmmd.receive_block(left, theirs)
    else:
        yield from ctx.cmmd.receive_block(left, theirs)
        yield from ctx.cmmd.send_block(right, mine)
    got = yield from ctx.read(theirs)
    want = np.arange(32, dtype=np.float64) + 1000.0 * left
    if not np.array_equal(np.asarray(got), want):
        raise CheckError(
            "mp-data",
            f"ring payload from node {left} corrupted "
            f"(first bad element "
            f"{int(np.flatnonzero(np.asarray(got) != want)[0])})",
            node=me,
        )
    yield from ctx.barrier()
    return received[0]


def run_mp_stress(
    ops: int = 200,
    seed: int = 0,
    nprocs: int = 4,
    backend: str = "batched",
) -> Dict[str, int]:
    """Random sequenced-message stress on the MP machine under the checker.

    Requires an even ``nprocs`` (the ring exchange pairs even/odd ranks).
    """
    if nprocs % 2:
        raise ValueError("run_mp_stress needs an even number of processors")
    schedule = _mp_schedule(ops, seed, nprocs)
    expected = [0] * nprocs
    for src, sends in enumerate(schedule):
        for dest, _tag, _seq, _gap in sends:
            expected[dest] += 1
    checker = installed(check.Checker)
    if checker is None:
        with check.checking(check.Checker(strict_quiescence=True)) as checker:
            return _run_mp_stress(schedule, expected, seed, nprocs, checker, backend)
    return _run_mp_stress(schedule, expected, seed, nprocs, checker, backend)


def _run_mp_stress(
    schedule, expected, seed, nprocs, checker, backend="batched"
) -> Dict[str, int]:
    machine = MpMachine(
        MachineParams.paper(num_processors=nprocs),
        seed=3141 + seed,
        backend=backend,
    )
    result = machine.run(_mp_stress_program, schedule, expected)
    delivered = sum(result.outputs)
    sent = sum(len(s) for s in schedule)
    if delivered != sent:
        raise CheckError(
            "conservation",
            f"programs sent {sent} sequenced messages but handlers "
            f"ran {delivered} times",
        )
    report = dict(checker.report())
    report["mp_messages"] = sent
    return report
