"""The seam both machines share: the observer registry and DeadlockError."""

import pytest

from repro import sim
from repro.arch.params import MachineParams
from repro.mp.machine import MpMachine
from repro.sim.events import SimEvent
from repro.sim.process import DeadlockError, Wait
from repro.sm.machine import SmMachine

PARAMS = MachineParams.paper(num_processors=2)


class StubObserver:
    """Records every machine it is handed."""

    def __init__(self):
        self.attached = []

    def attach(self, machine):
        self.attached.append(machine)


def test_an_observer_attaches_once_to_each_machine_built_in_the_block():
    stub = StubObserver()
    with sim.observing(stub) as active:
        assert active is stub
        assert sim.installed(StubObserver) is stub
        mp = MpMachine(PARAMS)
        sm = SmMachine(PARAMS)
    assert stub.attached == [mp, sm]
    assert [m.kind for m in stub.attached] == ["mp", "sm"]
    MpMachine(PARAMS)
    SmMachine(PARAMS)
    assert stub.attached == [mp, sm]
    assert sim.installed(StubObserver) is None


def test_an_observer_is_removed_when_the_block_raises():
    stub = StubObserver()
    with pytest.raises(ValueError):
        with sim.observing(stub):
            raise ValueError("boom")
    assert sim.installed(StubObserver) is None
    MpMachine(PARAMS)
    assert stub.attached == []


def test_with_nothing_installed_no_instance_is_rebound():
    """Zero cost when nothing is attached: every hot path stays the
    class's own method, and the engine keeps its fast loop."""
    for machine in (MpMachine(PARAMS), SmMachine(PARAMS)):
        assert machine.engine.dispatch_hook is None
        assert not vars(machine).keys() & {"run", "deliver", "send_to_directory_from"}
        for node in machine.nodes:
            assert not vars(node.stats).keys() & {"charge", "count"}
            assert not vars(node.cache).keys() & {"insert", "set_state", "invalidate"}
        for ctx in machine.contexts:
            assert not vars(ctx).keys() & {"read", "write", "run_batch"}


def test_one_observer_of_a_type_at_a_time():
    first = StubObserver()
    with sim.observing(first):
        with pytest.raises(RuntimeError, match="already installed"):
            with sim.observing(StubObserver()):
                pass
        assert sim.installed(StubObserver) is first
    assert sim.installed(StubObserver) is None


def _stuck(ctx):
    yield Wait(SimEvent("never"))


def test_one_except_clause_catches_a_deadlock_on_either_machine():
    caught = []
    for machine in (MpMachine(PARAMS), SmMachine(PARAMS)):
        try:
            machine.run(_stuck)
        except DeadlockError:
            caught.append(machine.kind)
    assert caught == ["mp", "sm"]
    # The machine modules' names are the one class, not copies of it.
    from repro.mp.machine import DeadlockError as MpDeadlockError
    from repro.sm.machine import DeadlockError as SmDeadlockError

    assert MpDeadlockError is SmDeadlockError is DeadlockError
