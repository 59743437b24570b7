"""Edge cases of the message-passing machine surface."""

import numpy as np
import pytest

from repro.sim.process import ProcessCrash
from repro.stats.categories import MpCat


def test_zero_compute_is_free(machine2):
    def program(ctx):
        yield from ctx.compute(0)
        yield from ctx.compute(-3)  # rounds to nothing

    result = machine2.run(program)
    assert result.elapsed_cycles == 0


def test_empty_read_range(machine2):
    def program(ctx):
        region = ctx.alloc("r", 8)
        values = yield from ctx.read(region, 3, 3)
        assert values.size == 0

    result = machine2.run(program)
    assert result.board.mean_count("local_misses") == 0


def test_write_with_stop_only_touches_without_values(machine2):
    def program(ctx):
        region = ctx.alloc("r", 8, fill=5.0)
        yield from ctx.write(region, 0, 8)
        assert (region.np == 5.0).all()  # touch-only write keeps data

    result = machine2.run(program)
    assert result.board.mean_count("local_misses") > 0


def test_legacy_keyword_rejected_with_hint(machine2):
    """The pre-redesign ``hi=`` keyword is Python's own TypeError, naming
    the keyword; the process layer wraps it like any crash."""
    def program(ctx):
        region = ctx.alloc("r", 8)
        yield from ctx.write(region, 0, hi=8)

    with pytest.raises(ProcessCrash) as excinfo:
        machine2.run(program)
    assert isinstance(excinfo.value.original, TypeError)
    assert "unexpected keyword argument 'hi'" in str(excinfo.value)


def test_write_without_values_or_hi_rejected(machine2):
    def program(ctx):
        region = ctx.alloc("r", 8)
        yield from ctx.write(region, 0)

    with pytest.raises(Exception):
        machine2.run(program)


def test_packets_for_boundaries(machine2):
    ctx = machine2.contexts[0]
    assert ctx.packets_for(0) == 1
    assert ctx.packets_for(1) == 1
    assert ctx.packets_for(16) == 1
    assert ctx.packets_for(17) == 2
    assert ctx.packets_for(160) == 10


def test_poll_on_empty_fifo_returns_false(machine2):
    outcome = {}

    def program(ctx):
        if ctx.pid == 0:
            outcome["polled"] = yield from ctx.poll()

    machine2.run(program)
    assert outcome["polled"] is False


def test_default_control_bytes_cover_unused_payload(machine2):
    def on_h(ctx, packet):
        return
        yield

    def program(ctx):
        ctx.am.register("h", on_h)
        yield from ctx.barrier()
        if ctx.pid == 0:
            # 3 packets, 40 data bytes: control = 3*20 - 40 = 20.
            yield from ctx.inject(1, "h", None, npackets=3, data_bytes=40)
        else:
            yield from ctx.poll_wait(lambda: ctx.ni.packets_dequeued >= 3)

    result = machine2.run(program)
    sender = result.board.procs[0]
    assert sender.counts["messages_sent"] == 3
    assert sender.counts["data_bytes"] == 40
    assert sender.counts["control_bytes"] == 20


def test_train_receive_cost_scales_with_count(machine2):
    def on_h(ctx, packet):
        return
        yield

    def program(ctx):
        ctx.am.register("h", on_h)
        yield from ctx.barrier()
        if ctx.pid == 0:
            yield from ctx.inject(1, "h", None, npackets=10, data_bytes=160)
        else:
            yield from ctx.poll_wait(lambda: ctx.ni.packets_dequeued >= 10)

    result = machine2.run(program)
    receiver = result.board.procs[1]
    mp = machine2.params.mp
    assert receiver.cycles[MpCat.NETWORK_ACCESS] >= 10 * mp.recv_packet_cycles


def test_am_send_train_counts_one_active_message(machine2):
    def on_h(ctx, packet):
        return
        yield

    def program(ctx):
        ctx.am.register("h", on_h)
        yield from ctx.barrier()
        if ctx.pid == 0:
            yield from ctx.am.send_train(1, "h", ("x",), nbytes=100)
        else:
            yield from ctx.poll_wait(lambda: ctx.ni.packets_dequeued >= 7)

    result = machine2.run(program)
    sender = result.board.procs[0]
    assert sender.counts["active_messages"] == 1
    assert sender.counts["messages_sent"] == 7  # ceil(100 / 16)


def test_drain_polls_handles_everything_queued(machine2):
    hits = []

    def on_h(ctx, packet):
        hits.append(packet.payload)
        return
        yield

    def program(ctx):
        ctx.am.register("h", on_h)
        yield from ctx.barrier()
        if ctx.pid == 0:
            for i in range(4):
                yield from ctx.am.send(1, "h", i)
            yield from ctx.barrier()
        else:
            yield from ctx.poll_wait(lambda: ctx.ni.packets_enqueued >= 4)
            yield from ctx.drain_polls()
            assert not ctx.ni.status()
            yield from ctx.barrier()

    machine2.run(program)
    assert sorted(hits) == [(0,), (1,), (2,), (3,)]


def test_bad_destination_rejected(machine2):
    def program(ctx):
        if ctx.pid == 0:
            yield from ctx.inject(99, "x", None)

    with pytest.raises(Exception):
        machine2.run(program)


def test_region_names_are_per_node(machine4):
    """Each node can allocate the same logical name."""

    def program(ctx):
        region = ctx.alloc("same_name", 4)
        yield from ctx.write(region, 0, values=[float(ctx.pid)] * 4)
        return float(region.np[0])

    result = machine4.run(program)
    assert result.outputs == [0.0, 1.0, 2.0, 3.0]
