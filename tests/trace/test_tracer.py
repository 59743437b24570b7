"""Tracer core: install semantics, invariants, golden non-interference.

The two load-bearing guarantees:

* per-processor per-category interval sums equal the aggregate
  ``ProcStats`` tables exactly (the tracer never invents or loses a
  cycle), and
* running *under* the tracer leaves every golden cycle/event count
  bit-identical — observation must not perturb the simulation.
"""

import hashlib
import json

import pytest

from repro import trace
from repro.core.experiments import EXPERIMENTS
from repro.sim import installed
from repro.trace.tracer import COUNTER_INTERVAL

MSE_SMALL = {"procs": 4, "app": {"bodies": 16, "elements_per_body": 4, "iterations": 3}}

MSE_GOLDEN = {
    "mp_total": 116528.0,
    "sm_total": 146983.0,
    "mp_elapsed": 116528,
    "sm_elapsed": 146983,
    "mp_events": 1390,
    "sm_events": 1916,
}


def _run_mse_traced(**tracer_kwargs):
    spec = EXPERIMENTS["mse"]
    tracer = trace.Tracer(**tracer_kwargs)
    with trace.tracing(tracer):
        pair = spec.runner(spec.config.with_overrides(MSE_SMALL))
    return tracer, pair


def _label(category):
    return getattr(category, "value", None) or str(category)


def test_install_uninstall_lifecycle():
    assert installed(trace.Tracer) is None
    tracer = trace.Tracer()
    with trace.tracing(tracer) as active:
        assert active is tracer
        assert installed(trace.Tracer) is tracer
        with pytest.raises(RuntimeError, match="already installed"):
            with trace.tracing():
                pass
        assert installed(trace.Tracer) is tracer
    assert installed(trace.Tracer) is None


def test_tracing_context_manager_uninstalls_on_error():
    with pytest.raises(ValueError):
        with trace.tracing():
            raise ValueError("boom")
    assert installed(trace.Tracer) is None


def test_interval_sums_equal_aggregate_totals():
    tracer, pair = _run_mse_traced()
    kinds = [m["kind"] for m in tracer.machines]
    assert "mp" in kinds and "sm" in kinds
    for mi, machine in enumerate(tracer.machines):
        result = pair.mp_result if machine["kind"] == "mp" else pair.sm_result
        totals = tracer.interval_totals(mi)
        for pid, proc in enumerate(result.board.procs):
            aggregate = {_label(cat): cycles for cat, cycles in proc.cycles.items()}
            assert totals.get(pid, {}) == aggregate, (machine["kind"], pid)


def test_tracing_does_not_perturb_golden_counts():
    _tracer, pair = _run_mse_traced()
    observed = {
        "mp_total": pair.mp_result.board.mean_total(),
        "sm_total": pair.sm_result.board.mean_total(),
        "mp_elapsed": pair.mp_result.elapsed_cycles,
        "sm_elapsed": pair.sm_result.elapsed_cycles,
        "mp_events": pair.mp_result.events_executed,
        "sm_events": pair.sm_result.events_executed,
    }
    assert observed == MSE_GOLDEN


def test_mp_flows_and_sm_protocol_recorded():
    tracer, _pair = _run_mse_traced()
    by_kind = {m["kind"]: mi for mi, m in enumerate(tracer.machines)}
    mp_flows = [f for f in tracer.flows if f[0] == by_kind["mp"]]
    sm_flows = [f for f in tracer.flows if f[0] == by_kind["sm"]]
    assert mp_flows and sm_flows
    # MP flows land after the network latency.
    for _mi, _name, _src, _dst, t0, t1, args in mp_flows:
        assert t1 > t0
        assert args["packets"] >= 1
    # Directory arrivals were observed as instants on the SM machine.
    assert any(inst[0] == by_kind["sm"] for inst in tracer.instants)


def test_mp_flows_follow_the_two_level_topology():
    """Under the cluster preset an MP flow lasts the latency the machine
    charges for that pair: on-node or across the network."""
    overrides = {
        "preset": "cluster",
        "procs": 16,
        "app": {"bodies": 16, "elements_per_body": 4, "iterations": 2},
    }
    spec = EXPERIMENTS["mse"]
    config = spec.config.with_overrides(overrides)
    latency = config.machine_params().common.message_latency
    with trace.tracing() as tracer:
        spec.runner(config)
    (mp,) = [mi for mi, m in enumerate(tracer.machines) if m["kind"] == "mp"]
    flows = [f for f in tracer.flows if f[0] == mp]
    durations = set()
    for _mi, _name, _src, _dst, t0, t1, args in flows:
        assert t1 - t0 == latency(args["src"], args["dest"])
        durations.add(t1 - t0)
    assert len(durations) == 2


def test_intervals_are_gap_free_per_processor():
    """The cursor anchoring yields a contiguous per-proc timeline."""
    tracer, _pair = _run_mse_traced()
    for mi in range(len(tracer.machines)):
        spans = {}
        for rec_mi, pid, _label_, _phase, start, dur in tracer.intervals:
            if rec_mi == mi:
                spans.setdefault(pid, []).append((start, start + dur))
        for pid, intervals in spans.items():
            covered = 0
            cursor = 0
            for start, end in sorted(intervals):
                covered += end - max(start, cursor) if end > cursor else 0
                cursor = max(cursor, end)
            # Covered timeline == sum of durations: no overlaps escaped
            # past the cursor, so the lanes tile without double-counting.
            total = sum(end - start for start, end in intervals)
            assert covered <= total
            assert cursor <= tracer.machines[mi]["engine"].now


def test_procs_filter_restricts_records():
    tracer, _pair = _run_mse_traced(procs=[0])
    assert {rec[1] for rec in tracer.intervals} == {0}
    for mi, tid, _name, _ph, _ts in tracer.marks:
        assert tid % 1000 == 0  # only p0 tracks


def test_max_events_caps_and_counts_drops():
    tracer, _pair = _run_mse_traced(max_events=100)
    stored = (
        len(tracer.intervals)
        + len(tracer.flows)
        + len(tracer.instants)
        + len(tracer.counters)
    )
    assert stored == 100
    assert tracer.dropped > 0
    # Begin/end marks are exempt so spans always balance.
    assert len(tracer.marks) > 0


def test_engine_pending_counter_sampled():
    """Each machine samples its pending-event depth once per
    COUNTER_INTERVAL dispatches (inline steps are not dispatches)."""
    tracer, pair = _run_mse_traced()
    events = {"mp": pair.mp_result.events_executed, "sm": pair.sm_result.events_executed}
    for mi, machine in enumerate(tracer.machines):
        pending = [c for c in tracer.counters if c[0] == mi and c[2] == "engine.pending"]
        assert 1 <= len(pending) <= events[machine["kind"]] // COUNTER_INTERVAL
        for _mi, _ts, _name, _series, value in pending:
            assert value >= 0


def test_api_trace_for_returns_validated_document():
    from repro import api

    traced = api.trace_for("validation")
    assert traced.exp_id == "validation"
    assert traced.errors == []
    assert traced.document["traceEvents"]
    assert traced.config.exp_id == "validation"
    assert traced.elapsed_seconds > 0
    kinds = {m["kind"] for m in traced.document["otherData"]["machines"]}
    assert {"mp", "sm"} <= kinds


#: Trace documents pinned byte for byte: (app, overrides, trace events,
#: engine.pending samples, mp/sm events executed, sha256 of the document
#: as canonical JSON). The documents hold only ints and strings, so the
#: digest does not depend on the Python version.
TRACE_PINS = [
    ("mse", MSE_SMALL, 6999, 2, {"mp": 1390, "sm": 1916},
     "9d4d2801ab6620c3a726014e120f8fce0a9813f475d74b837bdeb2cbcc709ba9"),
    ("gauss", {"procs": 4, "app": {"n": 32}}, 34057, 12, {"mp": 3960, "sm": 14535},
     "036ab7ae94d41e3569f9332a3956e1e54d89e2af492c535e26de76f31afe3bef"),
    ("em3d", {"procs": 4, "app": {"nodes_per_proc": 20, "degree": 3, "iterations": 2}},
     31113, 14, {"mp": 1879, "sm": 15996},
     "754083922f81926cb82a393e34b84ac194951686cf58eb943f3a25f753708a9d"),
]


@pytest.mark.parametrize(
    "app, overrides, events, samples, executed, digest",
    TRACE_PINS,
    ids=[pin[0] for pin in TRACE_PINS],
)
def test_trace_document_is_pinned_byte_for_byte(app, overrides, events, samples, executed, digest):
    """Pin the counts first, so a failure says what moved, then the bytes."""
    from repro import api

    document = api.trace_for(app, overrides=overrides).document
    trace_events = document["traceEvents"]
    got = {
        "events": len(trace_events),
        "engine.pending samples": sum(
            1 for event in trace_events if event.get("name") == "engine.pending"
        ),
        "events_executed": {
            m["kind"]: m["events_executed"] for m in document["otherData"]["machines"]
        },
    }
    assert got == {
        "events": events,
        "engine.pending samples": samples,
        "events_executed": executed,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == digest
