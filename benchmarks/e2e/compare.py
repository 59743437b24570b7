"""``python -m benchmarks.e2e compare A B``: judge B's runs against A's.

``A`` and ``B`` are result documents, JSON lists of them, or directories
of them (every ``*.json`` inside). Untraced documents are grouped by
workload; for every metric with a bound (the end-to-end metrics of
``BENCHMARK.json``, plus the workload-specific ones each document
declares) one row is printed:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better than A's by more than the bound;
* ``unchanged`` — within the bound either way;
* ``unresolved`` — either side's run-to-run spread (quartile distance
  over the median) exceeds the bound, unless every run of B reads
  better (or worse) than every run of A.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.summary import spread

SCHEMA = "repro-e2e/1"


def load(path: str) -> List[dict]:
    """Untraced result documents found at ``path``."""
    source = Path(path)
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    docs: List[dict] = []
    for file in files:
        data = json.loads(file.read_text(encoding="utf-8"))
        docs.extend(data if isinstance(data, list) else [data])
    return [d for d in docs if isinstance(d, dict) and d.get("schema") == SCHEMA
            and not d.get("trace")]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, relative change)``; a positive change is a worsening."""
    median_a, spread_a = spread(a)
    median_b, spread_b = spread(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if spread_a > bound or spread_b > bound:
        if all(sign * (vb - va) < 0 for va in a for vb in b):
            return "improved", change
        if all(sign * (vb - va) > 0 for va in a for vb in b):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def _bounds(bench: dict, docs: List[dict]) -> Dict[str, Tuple[str, str, float]]:
    """metric -> (unit, better, bound) for every bounded metric."""
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    for doc in docs:
        for name, m in doc.get("extra", {}).items():
            if m.get("bound") is not None and name not in bounds:
                bounds[name] = (m["unit"], m["better"], m["bound"])
    return bounds


def _value(doc: dict, name: str) -> Optional[float]:
    metric = doc.get("metrics", {}).get(name) or doc.get("extra", {}).get(name)
    return None if metric is None else metric.get("value")


def compare(a_docs: List[dict], b_docs: List[dict], bench: dict) -> List[dict]:
    rows = []
    bounds = _bounds(bench, a_docs + b_docs)
    workloads = sorted({d["workload"] for d in a_docs} & {d["workload"] for d in b_docs})
    for workload in workloads:
        side_a = [d for d in a_docs if d["workload"] == workload]
        side_b = [d for d in b_docs if d["workload"] == workload]
        for name, (unit, better, bound) in bounds.items():
            a = [v for v in (_value(d, name) for d in side_a) if v is not None]
            b = [v for v in (_value(d, name) for d in side_b) if v is not None]
            if not a or not b:
                continue
            result, change = verdict(a, b, better, bound)
            rows.append({
                "workload": workload, "metric": name, "unit": unit, "bound": bound,
                "a": spread(a), "b": spread(b), "n": (len(a), len(b)),
                "change": change, "verdict": result,
            })
    return rows


def main(argv: List[str], bench_path: Path) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare A B", flush=True)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    rows = compare(load(argv[0]), load(argv[1]), bench)
    print(f"{'workload':<16} {'metric':<24} {'A median (spread, n)':>26} "
          f"{'B median (spread, n)':>26} {'change':>8} {'bound':>6}  verdict")
    for row in rows:
        (ma, sa), (mb, sb), (na, nb) = row["a"], row["b"], row["n"]
        print(f"{row['workload']:<16} {row['metric']:<24} "
              f"{ma:>12.4g} {row['unit']:<3}({sa:5.1%},{na:>3}) "
              f"{mb:>12.4g} {row['unit']:<3}({sb:5.1%},{nb:>3}) "
              f"{row['change']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
