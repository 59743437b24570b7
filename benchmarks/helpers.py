"""Shared plumbing for the per-table benchmarks.

Each benchmark regenerates one table (or figure) of the paper's
evaluation: it runs the registered experiment through the harness's
in-process path (:func:`repro.runner.api.run_raw` — results are
memoized per configuration, so tables that share a simulation — e.g.
a breakdown table and its event counts — run it once), prints the
paper-style table, records headline metrics in the benchmark's
``extra_info``, and asserts the experiment's shape checks (who wins,
by roughly what factor — not absolute cycles).

The benchmarks deliberately bypass the on-disk result cache: they
exist to *time* the simulations, so serving a stored record would
defeat them.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
rendered tables.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.experiments import EXPERIMENTS
from repro.runner.api import baselines, run_raw
from repro.runner.cache import cache_key


def run_and_check(benchmark, exp_id: str, extra: Dict[str, Any] = None) -> Any:
    """Run an experiment under the benchmark fixture; assert its shape."""
    spec = EXPERIMENTS[exp_id]
    result = benchmark.pedantic(
        lambda: run_raw(exp_id), rounds=1, iterations=1
    )
    benchmark.extra_info["experiment"] = exp_id
    benchmark.extra_info["paper_tables"] = spec.paper_tables
    benchmark.extra_info["cache_key"] = cache_key(spec.config)[:16]
    for key, value in (extra or {}).items():
        benchmark.extra_info[key] = value
    checks = spec.shape(result, *baselines(exp_id, spec.config))
    for name, ok, detail in checks:
        benchmark.extra_info[f"check:{name}"] = detail
    failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    assert not failures, (
        f"{exp_id} shape checks failed:\n  " + "\n  ".join(failures)
    )
    return result


def banner(title: str) -> str:
    bar = "=" * max(len(title), 60)
    return f"\n{bar}\n{title}\n{bar}"
