"""Property-based tests for the discrete-event engine and processes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.process import Delay, Process


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=100))
@settings(max_examples=100, deadline=None)
def test_events_observed_in_nondecreasing_time_order(delays):
    engine = Engine()
    observed = []
    for delay in delays:
        engine.schedule(delay, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)
    assert sorted(observed) == sorted(delays)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_process_time_is_sum_of_delays(delays):
    engine = Engine()

    def body():
        for delay in delays:
            yield Delay(delay)

    proc = Process(engine, body())
    engine.run()
    assert proc.finished
    assert engine.now == sum(delays)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=10),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60, deadline=None)
def test_concurrent_processes_all_finish_at_max(process_delays):
    engine = Engine()

    def body(delays):
        for delay in delays:
            yield Delay(delay)
        return sum(delays)

    procs = [Process(engine, body(d)) for d in process_delays]
    engine.run()
    assert all(p.finished for p in procs)
    assert engine.now == max(sum(d) for d in process_delays)
    for proc, delays in zip(procs, process_delays):
        assert proc.result() == sum(delays)
