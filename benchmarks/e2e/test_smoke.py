"""``python -m benchmarks.e2e --smoke`` runs every code path and passes."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / ".e2e" / "results"


def _doc(workload):
    return json.loads((RESULTS / f"smoke-{workload}-seed0-trace1.json").read_text())


def test_smoke_run_checks_outputs_and_fills_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "benchmarks.e2e", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert elapsed < 30, f"smoke took {elapsed:.1f}s"

    batched, reference = _doc("pairs-batched"), _doc("pairs-reference")
    for doc in (batched, reference, _doc("cli-run-all"), _doc("serve-mixed")):
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
        assert set(doc["metrics"]) == {m["name"] for m in bench["end_to_end"]}
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        assert set(doc["per_layer"]) == {m["name"] for m in bench["per_layer"]}

    # Both backends simulate the same counts (each was checked against expected.json).
    counters = [name for name, m in batched["extra"].items() if m["unit"] == "count"]
    assert counters and all(
        batched["extra"][name]["value"] == reference["extra"][name]["value"] for name in counters
    )
    # The reference backend never enters the batched contexts.
    layers = reference["profile"]["layers"]
    assert layers["sm.batched"]["calls"] == 0 and layers["mp.batched"]["calls"] == 0
    assert batched["profile"]["layers"]["sm.batched"]["calls"] > 0
    # The traced CLI session profiled its spawned processes through the hook.
    assert _doc("cli-run-all")["profile"]["processes"] > 1
    # A traced round's layer self times account for its traced time.
    for doc in (batched, reference):
        profile = doc["profile"]
        assert abs(profile["profiled_s"] / profile["traced_s"] - 1.0) < 0.10
