"""The last stdout line holds ``correct`` as a JSON boolean and every
metric ``BENCHMARK.json`` names for the mode, in its unit."""

import json

import pytest

from benchmarks.e2e.__main__ import result_line

BENCH = {
    "end_to_end": [{"name": "wall_s", "unit": "s"}],
    "per_layer": [{"name": "sim.engine.calls", "unit": "count"}],
}


def _doc(trace, correct=True):
    return {
        "trace": trace, "correct": correct, "attempted": 3, "failed": 0,
        "metrics": {"wall_s": {"value": 9.5, "unit": "s", "n": 2}},
        "per_layer": {"sim.engine.calls": {"value": 0, "unit": "count", "n": 1}},
    }


@pytest.mark.parametrize("trace, name", [(0, "wall_s"), (1, "sim.engine.calls")])
def test_line_has_a_boolean_verdict_and_the_mode_metrics(trace, name):
    line = json.loads(result_line(_doc(trace), BENCH))
    assert line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [name]


@pytest.mark.parametrize("trace", [0, 1])
def test_a_failed_check_or_missing_metric_reads_false(trace):
    assert json.loads(result_line(_doc(trace, correct=False), BENCH))["correct"] is False
    doc = _doc(trace)
    doc["metrics"], doc["per_layer"] = {}, {}
    assert json.loads(result_line(doc, BENCH))["correct"] is False
