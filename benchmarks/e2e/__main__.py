"""Command line of the end-to-end benchmark (run from the checkout root).

    python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.e2e trace W [--seed N] [--seconds S]
    python -m benchmarks.e2e --smoke
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e capture

A run measures set-up time in fresh interpreters, then runs the workload
in a fresh child process (:mod:`benchmarks.e2e.workloads`), checks its
outputs, writes one JSON document under ``.e2e/results/`` and prints, as
the last line of standard output, ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``. The exit
code is 0 only when every output check passed; 2 when the checkout has
no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e.workloads import WORKLOADS, run_child

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = ROOT / ".e2e" / "results"
SCRATCH = ROOT / ".e2e" / "tmp"

#: A run must end within this many seconds (the harness enforces it).
TIME_LIMIT_S = 170.0
SETUP_LAUNCHES = 5

SETUP_CODE = (
    "from repro import api\n"
    "from repro.core.experiments import EXPERIMENTS\n"
    "api.specs()\n"
)
SERVE_SETUP_CODE = SETUP_CODE + "import sys\napi.serve(port=int(sys.argv[1]), jobs=1, quiet=True)\n"


def _bench() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def _env(scratch: Path) -> Dict[str, str]:
    """Child environment: this checkout's sources; caches and temporary
    files under the scratch directory."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        REPRO_CACHE_DIR=str(scratch / "default-cache"),
        TMPDIR=str(scratch),
        PYTHONHASHSEED="0",
    )
    return env


def _run_workload(argv: List[str], env: Dict[str, str], timeout: float) -> int:
    """Run the workload process in its own session; on timeout kill the
    session, so no CLI or worker process it started outlives the run."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def setup_times(env: Dict[str, str], serve: bool, launches: int) -> List[float]:
    """Seconds from launching a fresh interpreter until it has imported
    ``repro.api`` and loaded the registry and YAML specs (for the service:
    until ``/healthz`` answers)."""
    times = []
    for _ in range(launches):
        if not serve:
            start = time.perf_counter()
            proc = run_child([sys.executable, "-c", SETUP_CODE], 60, cwd=ROOT, env=env,
                             stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
            continue
        port = _free_port()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SERVE_SETUP_CODE, str(port)],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        try:
            while not _healthy(port):
                if proc.poll() is not None or time.perf_counter() - start > 60:
                    raise RuntimeError(f"server set-up failed (exit {proc.returncode})")
                time.sleep(0.002)
            times.append(time.perf_counter() - start)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
    return times


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _metric(value: Any, unit: str, n: int = 1) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


def per_layer(profile: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The traced run's per-layer metrics, in ``BENCHMARK.json`` order."""
    from benchmarks.e2e.layers import LAYERS

    total = profile["profiled_s"] or 1.0
    out = {}
    for layer in LAYERS:
        row = profile["layers"][layer]
        out[f"{layer}.share_pct"] = _metric(100.0 * row["self_s"] / total, "%")
        out[f"{layer}.calls"] = _metric(row["calls"], "count")
    out["trace.overhead_x"] = _metric(profile["overhead_x"], "x")
    out["trace.traced_s"] = _metric(profile["traced_s"], "s")
    out["trace.profiled_s"] = _metric(profile["profiled_s"], "s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """One run of one workload: the full result document."""
    started = time.time()
    deadline = started + TIME_LIMIT_S
    scratch = SCRATCH / f"{os.getpid()}-{workload}-{int(trace)}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = _env(scratch)
    doc: Dict[str, Any] = {
        "schema": "repro-e2e/1",
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "provenance": {
            "git_sha": _git_sha(), "python": platform.python_version(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        },
    }
    try:
        setup = setup_times(env, workload == "serve-mixed", 1 if smoke else SETUP_LAUNCHES)
        spec = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "root": str(ROOT), "tmp": str(scratch), "deadline": deadline,
        }
        out_path = scratch / "result.json"
        returncode = _run_workload(
            [sys.executable, "-m", "benchmarks.e2e.workloads", json.dumps(spec), str(out_path)],
            env, max(1.0, deadline - time.time()),
        )
        result = json.loads(out_path.read_text()) if returncode == 0 else None
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        result, setup = None, []
        doc["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if result is None:
        doc.update(correct=False, attempted=1, failed=1, metrics={}, extra={})
        doc.setdefault("error", "the workload process failed")
        return doc
    doc["provenance"].update(rounds=result["rounds"], rates=result.get("rates"),
                             duration_s=time.time() - started)
    doc.update(
        correct=result["failed"] == 0,
        attempted=result["attempted"],
        failed=result["failed"],
        failures=result["failures"],
        metrics={
            "setup_s": _metric(statistics.median(setup), "s", len(setup)),
            "wall_s": _metric(result["wall_s"], "s", result["wall_n"]),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        },
        extra=result["extra"],
        setup_samples=setup,
        detail={k: v for k, v in result.items()
                if k not in ("extra", "profile", "spans", "failures")},
        spans=result["spans"],
    )
    if "profile" in result:
        doc["profile"] = result["profile"]
        doc["per_layer"] = per_layer(result["profile"])
    return doc


def save(doc: Dict[str, Any], out: Optional[str] = None) -> Path:
    path = Path(out) if out else RESULTS / (
        f"{'smoke-' if doc['smoke'] else ''}{doc['workload']}"
        f"-seed{doc['seed']}-trace{doc['trace']}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path


def result_line(doc: Dict[str, Any], bench: Dict[str, Any]) -> str:
    """The last stdout line: the metrics named in BENCHMARK.json for this mode."""
    names = [m["name"] for m in bench["per_layer" if doc["trace"] else "end_to_end"]]
    source = doc.get("per_layer", {}) if doc["trace"] else doc["metrics"]
    metrics = {
        name: {"value": source[name]["value"], "unit": source[name]["unit"]}
        for name in names
        if name in source and isinstance(source[name]["value"], (int, float))
    }
    complete = len(metrics) == len(names) and (
        doc["trace"] or all(m["value"] > 0 for m in metrics.values())
    )
    return json.dumps({
        # A JSON boolean: ``doc["trace"]`` is the int 1 in a traced run.
        "correct": bool(doc["correct"] and complete),
        "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics,
    })


def report(doc: Dict[str, Any], path: Path) -> None:
    """A short human summary on stderr."""
    lines = [f"{doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
             f"{'ok' if doc['correct'] else 'FAILED'} "
             f"({doc['attempted']} ops, {doc['failed']} failed) -> {path}"]
    for name, m in list(doc["metrics"].items()) + list(doc.get("extra", {}).items()):
        if isinstance(m.get("value"), (int, float)):
            lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    profile = doc.get("profile")
    if profile:
        lines.append(f"  traced {profile['traced_s']:.2f}s, profiled {profile['profiled_s']:.2f}s "
                     f"over {profile['processes']} process(es), "
                     f"overhead {profile['overhead_x']:.2f}x")
        ranked = sorted(profile["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for layer, row in ranked[:12]:
            lines.append(f"  {layer:<20} {row['self_s']:9.3f}s {row['calls']:>11} calls")
    for failure in doc.get("failures", [])[:10]:
        lines.append(f"  FAIL {failure}")
    if doc.get("error"):
        lines.append(f"  ERROR {doc['error']}")
    print("\n".join(lines), file=sys.stderr, flush=True)


def smoke() -> int:
    """Every code path on the small configs: one traced run of each
    workload (which runs it untraced first), with one round, one CLI
    repeat and a 3 s service step."""
    # Two workloads at a time (a smoke run checks paths, not timings).
    with ThreadPoolExecutor(max_workers=2) as pool:
        docs = list(pool.map(lambda workload: measure(workload, 0, 3.0, True, smoke=True),
                             WORKLOADS))
    for doc in docs:
        report(doc, save(doc))
    ok = all(doc["correct"] for doc in docs)
    print(f"smoke {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if ok else 1


def capture() -> int:
    """Rewrite ``expected.json`` from the current simulator (after a model change)."""
    from benchmarks.e2e import workloads

    path = HERE / "expected.json"
    path.write_text(json.dumps(workloads.capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:], BENCHMARK)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if argv[:1] == ["capture"]:
        sys.path.insert(0, str(ROOT / "src"))
        return capture()
    if argv[:1] == ["trace"] and len(argv) >= 2:
        argv = ["--workload", argv[1], "--trace", "1", *argv[2:]]

    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every code path on small configs in under 30 s")
    parser.add_argument("--out", help="where to write the result document")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")

    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    report(doc, save(doc, args.out))
    line = result_line(doc, bench)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
