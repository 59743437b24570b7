"""Directory-protocol behavior: contention, fetches, evictions."""

import numpy as np
import pytest

from repro.arch.params import MachineParams
from repro.memory.dataspace import HomePolicy
from repro.sim.events import SimEvent
from repro.sm.machine import DeadlockError, SmMachine
from repro.sm.protocol import DirEntry, DirState, Msg, MsgType, TransactionInfo
from repro.stats.categories import SmCat


def test_dirty_fetch_on_remote_read(machine2):
    """Reading a block another processor holds dirty triggers a fetch."""

    def program(ctx):
        if ctx.pid == 0:
            region = ctx.gmalloc("g", 4, policy=HomePolicy.LOCAL)
            yield from ctx.write(region, 0, values=[5.0])  # dirty at p0
        yield from ctx.barrier()
        if ctx.pid == 1:
            region = ctx.machine.regions[0]
            values = yield from ctx.read(region, 0, 1)
            assert values[0] == 5.0

    result = machine2.run(program)
    assert machine2.cache_ctrls[0].fetches_serviced == 1
    p1 = result.board.procs[1]
    # The fetch adds two more message legs: miss costs well over idle.
    assert p1.cycles[SmCat.SHARED_MISS] > 300


def test_getx_invalidates_all_sharers(machine4):
    def program(ctx):
        if ctx.pid == 0:
            region = ctx.gmalloc("g", 4, policy=HomePolicy.LOCAL)
        yield from ctx.barrier()
        region = ctx.machine.regions[0]
        yield from ctx.read(region, 0, 1)  # everyone shares
        yield from ctx.barrier()
        if ctx.pid == 3:
            yield from ctx.write(region, 0, values=[1.0])
        yield from ctx.barrier()

    result = machine4.run(program)
    total_invals = sum(
        p.counts.get("invalidations_received", 0) for p in result.board.procs
    )
    assert total_invals == 3  # everyone but the writer
    writer = result.board.procs[3]
    assert writer.counts["write_faults"] == 1
    # Writer's control bytes include 3 INV + 3 ACK round trips.
    assert writer.counts["control_bytes"] >= 3 * 80


def test_directory_serializes_conflicting_writers(machine4):
    """Concurrent writers to one block are serialized; all updates land."""
    def program(ctx):
        if ctx.pid == 0:
            ctx.gmalloc("g", 4, policy=HomePolicy.LOCAL)
        yield from ctx.barrier()
        region = ctx.machine.regions[0]
        for _ in range(3):
            values = yield from ctx.read(region, 0, 1)
            yield from ctx.write(region, 0, values=[float(values[0]) + 1.0])

    machine4.run(program)
    region = machine4.regions[0]
    # Races may lose read-modify-write increments (no lock), but the
    # protocol itself must keep a coherent final state in [4, 12].
    assert 1.0 <= region.np[0] <= 12.0
    entry_states = [
        e.state for d in machine4.directories for e in d.entries.values()
    ]
    assert all(not d.entries[b].busy for d in machine4.directories for b in d.entries)
    assert DirState.EXCLUSIVE in entry_states or DirState.SHARED in entry_states


def test_directory_contention_measured(machine8):
    """Eight readers of one home node's data queue at its directory."""

    def program(ctx):
        if ctx.pid == 0:
            ctx.gmalloc("g", 64, policy=HomePolicy.LOCAL)  # 16 blocks at home 0
        yield from ctx.barrier()
        region = ctx.machine.regions[0]
        yield from ctx.read(region)

    machine8.run(program)
    assert machine8.directory_contention() > 0
    directory = machine8.directories[0]
    assert directory.requests_served >= 8 * 16
    assert directory.mean_queue_delay() > 0


def test_capacity_eviction_writes_back_dirty_shared():
    """Dirty shared lines displaced by capacity pressure write back."""
    params = MachineParams.paper(num_processors=2).with_cache_bytes(1024)
    machine = SmMachine(params, seed=5)

    def program(ctx):
        if ctx.pid == 0:
            region = ctx.gmalloc("g", 1024, policy=HomePolicy.LOCAL)  # 8 KB
            yield from ctx.write(region, 0, values=np.ones(1024))
            # Re-walk to force more evictions.
            yield from ctx.read(region)
        else:
            yield from ctx.compute(1)

    result = machine.run(program)
    p0 = result.board.procs[0]
    assert p0.counts.get("writebacks", 0) > 0


def test_stale_sharer_invalidation_is_harmless():
    """A silently evicted sharer still gets (and acks) stale INVs."""
    params = MachineParams.paper(num_processors=2).with_cache_bytes(1024)
    machine = SmMachine(params, seed=5)

    def program(ctx):
        if ctx.pid == 0:
            ctx.gmalloc("g", 4, policy=HomePolicy.LOCAL)
            ctx.gmalloc("filler", 2048, policy=HomePolicy.LOCAL)
        yield from ctx.barrier()
        target, filler = ctx.machine.regions[0], ctx.machine.regions[1]
        if ctx.pid == 1:
            yield from ctx.read(target, 0, 1)  # become a sharer
            yield from ctx.read(filler)  # churn the tiny cache: evict it
        yield from ctx.barrier()
        if ctx.pid == 0:
            yield from ctx.write(target, 0, values=[1.0])  # INV to stale sharer
        yield from ctx.barrier()

    machine.run(program)  # must not raise


def test_deadlock_detection(machine2):
    def program(ctx):
        if ctx.pid == 0:
            yield from ctx.wait_create()  # never created

    with pytest.raises(DeadlockError):
        machine2.run(program)


def test_spin_until_wakes_on_invalidation(machine2):
    log = []

    def program(ctx):
        if ctx.pid == 0:
            region = ctx.gmalloc("flag", 4, policy=HomePolicy.LOCAL)
        yield from ctx.barrier()
        region = ctx.machine.regions[0]
        if ctx.pid == 1:
            value = yield from ctx.spin_until(region, 0, lambda v: v == 42.0)
            log.append((value, ctx.engine.now))
        else:
            yield from ctx.compute(5000)
            yield from ctx.write(region, 0, values=[42.0])

    machine2.run(program)
    assert log and log[0][0] == 42.0
    assert log[0][1] >= 5000


def test_dir_entry_is_slotted_with_no_queue_until_a_request_parks(machine2):
    """A directory keeps one entry per block it has served, so an entry
    carries no ``__dict__`` and no parked-request queue of its own until
    a request for its busy block arrives."""
    fresh = DirEntry()
    assert not hasattr(fresh, "__dict__")
    assert fresh.pending is None
    with pytest.raises(AttributeError):
        fresh.extra = 1

    directory = machine2.directories[0]
    block = 0
    entry = directory.entries[block]
    entry.busy = True  # a transaction on this block is in progress
    request = Msg(MsgType.GETX, block, src=0, requester=0, done=SimEvent())
    parked = Msg(MsgType.GETS, block, src=1, requester=1, done=SimEvent())
    directory.post(parked)
    machine2.engine.run()
    assert list(entry.pending) == [parked]
    assert not parked.done.fired

    # Completing the transaction re-serves the parked request and drops
    # the queue again.
    directory._finish_transaction(entry, request, TransactionInfo(with_data=True))
    machine2.engine.run()
    assert entry.pending is None
    assert request.done.fired and parked.done.fired
    assert entry.state is DirState.SHARED and entry.sharers == {1}


# -- the full-map bit vector ---------------------------------------------------


def _serve(machine, *messages):
    """Post each ``(type, src[, requester])`` message for block 0 to node
    0's directory, in turn, and return the block's entry."""
    directory = machine.directories[0]
    for msg_type, src, *requester in messages:
        requester = requester[0] if requester else src
        directory.post(Msg(msg_type, 0, src=src, requester=requester, done=SimEvent()))
        machine.engine.run()
    return directory.entries[0]


@pytest.fixture
def sent(machine4, monkeypatch):
    """The directory's messages to cache controllers, captured instead of
    delivered, as ``(destination, message)`` pairs."""
    sent = []
    monkeypatch.setattr(
        machine4, "send_to_cache_ctrl", lambda src, dest, msg: sent.append((dest, msg))
    )
    return sent


def test_sharers_are_a_full_map_bit_vector(machine4, sent):
    entry = _serve(machine4, *[(MsgType.GETS, node) for node in (3, 1, 2)])
    assert entry.state is DirState.SHARED
    assert entry.sharer_bits == 0b1110
    assert entry.sharers == {1, 2, 3}
    assert entry.describe() == "SHARED[1, 2, 3]"
    with pytest.raises(AttributeError):
        entry.sharers = {0}  # a read-only view of the bits


def test_getx_invalidates_sharers_in_node_order(machine4, sent):
    """A GETX from node 0 sends INVs to 1, 2 and 3 in that order,
    whatever order their copies were granted in."""
    entry = _serve(machine4, *[(MsgType.GETS, node) for node in (3, 1, 2)], (MsgType.GETX, 0))
    assert [(dest, msg.type) for dest, msg in sent] == [
        (1, MsgType.INV), (2, MsgType.INV), (3, MsgType.INV),
    ]
    assert entry.busy and entry.acks_needed == 3
    assert entry.txn_info.invalidations == 3 and entry.txn_info.with_data


def test_upgrade_leaves_the_requesting_sharer_out(machine4, sent):
    entry = _serve(machine4, *[(MsgType.GETS, node) for node in (1, 2, 3)], (MsgType.UPGRADE, 2))
    assert [dest for dest, _msg in sent] == [1, 3]
    assert entry.txn_info.invalidations == 2
    assert not entry.txn_info.with_data  # node 2 already holds the data


def test_fetch_reply_to_a_gets_leaves_requester_and_old_owner(machine4, sent):
    entry = _serve(machine4, (MsgType.GETX, 1), (MsgType.GETS, 3))
    assert [(dest, msg.type) for dest, msg in sent] == [(1, MsgType.FETCH)]
    assert entry.busy and entry.describe() == "EXCLUSIVE@1"
    entry = _serve(machine4, (MsgType.FETCH_REPLY, 1, 3))
    assert not entry.busy
    assert entry.sharers == {1, 3} and entry.describe() == "SHARED[1, 3]"


def test_flush_clears_its_bit_and_the_last_one_unowns(machine4, sent):
    entry = _serve(machine4, (MsgType.GETS, 1), (MsgType.GETS, 2), (MsgType.FLUSH, 1))
    assert entry.state is DirState.SHARED and entry.sharers == {2}
    entry = _serve(machine4, (MsgType.FLUSH, 2))
    assert entry.state is DirState.UNOWNED and entry.sharer_bits == 0
    assert entry.describe() == "UNOWNED"


# -- controller wake-ups -------------------------------------------------------
#
# A coherence controller serves its inbox in one loop and, once the inbox
# is empty, waits on one re-armed wake event. A post to an idle controller
# queues exactly one wake in the engine's due lane however many messages
# follow in the same cycle; a post to a busy controller queues none.


def _idle(machine):
    """Run until every process has started and the controllers idle."""
    machine.engine.run()
    assert not machine.engine._due


def _in_order(done_log, name):
    event = SimEvent()
    event.add_callback(lambda _info: done_log.append(name))
    return event


def test_idle_directory_wakes_once_for_a_same_cycle_burst(machine2):
    engine = machine2.engine
    directory = machine2.directories[0]
    _idle(machine2)
    served = []
    first = Msg(MsgType.GETS, 0, src=0, requester=0, done=_in_order(served, "first"))
    second = Msg(MsgType.GETS, 32, src=0, requester=0, done=_in_order(served, "second"))
    directory.post(first)
    directory.post(second)
    assert list(engine._due) == [directory.process._deliver]
    engine.run()
    assert directory.requests_served == 2
    assert served == ["first", "second"]
    # Idle again: the next post wakes the loop once more.
    directory.post(Msg(MsgType.GETS, 64, src=1, requester=1, done=SimEvent()))
    assert list(engine._due) == [directory.process._deliver]
    engine.run()
    assert directory.requests_served == 3


def test_post_to_a_busy_directory_queues_no_wake(machine2):
    engine = machine2.engine
    directory = machine2.directories[0]
    _idle(machine2)
    served = []
    busy = []

    def post_second():  # one cycle into the first message's occupancy
        busy.append((directory.requests_served, bool(engine._due)))
        directory.post(Msg(MsgType.GETS, 32, src=0, requester=0, done=_in_order(served, "second")))
        busy.append((directory.requests_served, bool(engine._due)))

    directory.post(Msg(MsgType.GETS, 0, src=0, requester=0, done=_in_order(served, "first")))
    engine.schedule(1, post_second)
    engine.run()
    assert busy == [(1, False), (1, False)]
    assert directory.requests_served == 2
    assert served == ["first", "second"]


def test_cache_ctrl_wakes_once_and_never_while_busy(machine2, monkeypatch):
    engine = machine2.engine
    ctrl = machine2.cache_ctrls[1]
    acks = []
    monkeypatch.setattr(
        machine2, "send_to_directory", lambda src, block, msg: acks.append(msg.block)
    )
    _idle(machine2)
    ctrl.post(Msg(MsgType.INV, 0, src=0, requester=0))
    ctrl.post(Msg(MsgType.INV, 32, src=0, requester=0))
    assert list(engine._due) == [ctrl.process._deliver]
    engine.run()
    assert ctrl.invalidations_serviced == 2 and acks == [0, 32]

    busy = []

    def post_second():  # one cycle into the first INV's occupancy
        busy.append((ctrl.invalidations_serviced, bool(engine._due)))
        ctrl.post(Msg(MsgType.INV, 96, src=0, requester=0))
        busy.append((ctrl.invalidations_serviced, bool(engine._due)))

    ctrl.post(Msg(MsgType.INV, 64, src=0, requester=0))
    engine.schedule(1, post_second)
    engine.run()
    assert busy == [(2, False), (2, False)]
    assert ctrl.invalidations_serviced == 4 and acks == [0, 32, 64, 96]
