"""Shared-memory invariant monitors: installation, counting, detection.

Positive tests run real programs and assert the monitors counted work
without complaining; negative tests corrupt machine state behind the
protocol's back and assert the corresponding invariant trips.
"""

import numpy as np
import pytest

from repro import check
from repro.arch.cache import LineState
from repro.arch.params import MachineParams
from repro.check import CheckError
from repro.sim import installed
from repro.sm.machine import SmMachine

PARAMS = MachineParams.paper(num_processors=2)


def _make_machine(seed=11):
    machine = SmMachine(PARAMS, seed=seed)
    region = machine.space.alloc_shared(
        "t.data", owner=0, shape=8, dtype=np.float64, fill=0.0
    )
    machine.index_region(region)
    return machine, region


def _program(ctx, region, out):
    lo = ctx.pid * 4
    yield from ctx.write(
        region, lo, values=np.arange(4, dtype=np.float64) + 10.0 * ctx.pid
    )
    yield from ctx.barrier()
    values = yield from ctx.read(region, 0, 8)
    out[ctx.pid] = np.array(values)


def test_null_checker_is_default():
    assert installed(check.Checker) is None


def test_install_uninstall_roundtrip():
    checker = check.Checker()
    with check.checking(checker) as active:
        assert active is checker
        assert installed(check.Checker) is checker
    assert installed(check.Checker) is None


def test_double_install_raises():
    with check.checking() as checker:
        with pytest.raises(RuntimeError, match="already installed"):
            with check.checking():
                pass
        assert installed(check.Checker) is checker


def test_checking_context_uninstalls_on_error():
    with pytest.raises(ValueError):
        with check.checking() as checker:
            assert installed(check.Checker) is checker
            raise ValueError("boom")
    assert installed(check.Checker) is None


def test_checked_run_counts_invariants():
    with check.checking() as checker:
        machine, region = _make_machine()
        out = {}
        machine.run(_program, region, out)
    report = checker.report()
    assert report["swmr"] > 0
    assert report["data-value"] > 0
    assert report["dir-agreement"] > 0
    assert report["oracle-final"] == 1
    assert list(report) == sorted(report)


def test_checking_perturbs_nothing():
    """Same seed, same program: results and cycle counts are identical
    with the checker on and off (the zero-overhead-when-off contract's
    stronger sibling: zero *perturbation* when on)."""
    out_plain = {}
    machine, region = _make_machine()
    plain = machine.run(_program, region, out_plain)
    out_checked = {}
    with check.checking():
        machine, region = _make_machine()
        checked = machine.run(_program, region, out_checked)
    assert checked.elapsed_cycles == plain.elapsed_cycles
    for pid in out_plain:
        assert np.array_equal(out_plain[pid], out_checked[pid])


def test_forced_second_writer_trips_swmr():
    with check.checking():
        machine, region = _make_machine()
        out = {}
        machine.run(_program, region, out)
        # Both caches hold the first block SHARED after the final reads;
        # promoting one to EXCLUSIVE behind the protocol's back is the
        # classic SWMR violation.
        block_bytes = machine.params.common.block_bytes
        block = region.addr_of(0) - region.addr_of(0) % block_bytes
        with pytest.raises(CheckError) as exc:
            machine.nodes[1].cache.set_state(block, LineState.EXCLUSIVE)
        assert exc.value.invariant == "swmr"
        assert exc.value.node == 1
        assert exc.value.block == block


def test_untracked_cache_line_trips_dir_agreement():
    with check.checking() as checker:
        machine, region = _make_machine()
        # A shared block the directory has never heard of appears in a
        # cache: the quiescent sweep must notice the disagreement.
        block_bytes = machine.params.common.block_bytes
        block = region.addr_of(4) - region.addr_of(4) % block_bytes
        machine.nodes[0].cache.insert(block, LineState.SHARED)
        with pytest.raises(CheckError) as exc:
            checker.verify_quiescent()
        assert exc.value.invariant == "dir-agreement"
        assert exc.value.block == block


def test_busy_entry_with_nothing_parked_trips_dir_agreement():
    """A transaction left open at quiescence is a typed dir-agreement
    failure even when no request ever parked behind it (the entry's
    parked-request queue is then ``None``)."""
    with check.checking() as checker:
        machine, region = _make_machine()
        out = {}
        machine.run(_program, region, out)
        block_bytes = machine.params.common.block_bytes
        block = region.addr_of(0) - region.addr_of(0) % block_bytes
        entry = machine.directories[machine.home_of(block)].entries[block]
        assert entry.pending is None
        entry.busy = True
        with pytest.raises(CheckError) as exc:
            checker.verify_quiescent()
        assert exc.value.invariant == "dir-agreement"
        assert exc.value.block == block
        assert "0 parked requests" in exc.value.detail


def test_memory_corruption_trips_oracle():
    with check.checking() as checker:
        machine, region = _make_machine()
        out = {}
        machine.run(_program, region, out)
        region.np.reshape(-1)[3] += 1.0  # a store that bypassed the protocol
        with pytest.raises(CheckError) as exc:
            checker.verify_quiescent()
        assert exc.value.invariant == "data-value"
        assert "oracle" in exc.value.detail


def test_machines_built_after_uninstall_are_not_monitored():
    with check.checking() as checker:
        pass
    machine, region = _make_machine()
    out = {}
    machine.run(_program, region, out)
    assert not checker.checks
