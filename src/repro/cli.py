"""Command-line interface: run the paper's experiments from a shell.

Commands:

* ``python -m repro list`` — every registered experiment and the paper
  tables it regenerates;
* ``python -m repro run <id> [...]`` — run experiments through the
  harness (parallel workers, on-disk result cache), print the
  paper-style tables and the shape checks;
* ``python -m repro run --all --jobs 4 --json out.json`` — the full
  evaluation section, fanned out over 4 worker processes, records
  exported as JSON;
* ``python -m repro bench --json BENCH_kernel.json`` — the kernel
  benchmark suite, with an optional ``--baseline`` regression gate;
* ``python -m repro trace <id> [--out trace.json] [--procs 0-7]
  [--max-events N]`` — run one experiment with the timeline tracer
  installed and print the ASCII timeline; the full Chrome Trace Event
  JSON (Perfetto-loadable) is stored with the cached record, so later
  invocations re-render it without re-simulating; ``--out`` writes a
  copy, and a ``--procs``/``--max-events`` slice is never stored;
* ``python -m repro check [--litmus] [--stress N] [--seed S]`` — the
  coherence/consistency litmus suite and the randomized stress
  programs, executed under the invariant checker (``repro.check``);
* ``python -m repro run --check ...`` — run experiments with the
  invariant checker installed (in-process, cache bypassed), proving a
  record was produced by a violation-free simulation;
* ``python -m repro sweep <spec> [--axis k=v1,v2,... --jobs N --json
  PATH --csv PATH --force]`` — a declarative sensitivity
  sweep (``repro.sweep``): grid expansion, cache-aware sharded
  execution, ASCII curve plots, crossover detection, and the spec's
  machine-checked shape assertions;
* ``python -m repro sweep --glob "specs/sweeps/em3d-*.yaml"`` — batch
  run every matching YAML sweep spec (``repro.specs``): sweep names
  resolve YAML-first (the spec search path), deprecated Python
  registrations second;
* ``python -m repro cache ls`` / ``python -m repro cache clear`` —
  inspect (per-entry byte sizes with traces, totals, salt freshness)
  or drop the on-disk result cache;
* ``python -m repro lake ingest`` / ``python -m repro lake stats`` —
  backfill the append-only sqlite run lake from the warm cache (also
  fed opt-in by ``run/sweep --lake``), or print its row counts;
* ``python -m repro query [--app --backend --consistency --preset
  --salt --all-salts --metrics --pivot --json --csv]`` — answer
  cross-preset/cross-version cycle-breakdown questions purely from
  lake rows, zero re-simulation; stale-salt rows are hidden unless
  ``--all-salts`` names them explicitly;
* ``python -m repro fidelity [--json PATH]`` — the paper-vs-run
  scorecard;
* ``python -m repro serve [--host --port --jobs --cache-bytes]`` — the
  harness as a long-running HTTP service: ``POST /v1/runs`` and
  ``POST /v1/sweeps`` submissions, content-hash job IDs, request
  coalescing, millisecond warm-cache responses, byte-budget cache
  eviction, and ``GET /healthz`` (see docs/serve.md).

The shared flags (``--jobs/--json/--force/--no-cache``) are defined
once (:func:`flags_parent`) and hoisted into each subcommand, so they
spell and behave identically everywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.experiments import EXPERIMENTS, get_experiment
from repro.runner.api import execute, resolve_config
from repro.runner.cache import CacheDirectoryError, ResultCache
from repro.runner.record import RunRecord

# ---------------------------------------------------------------------------
# Shared flags: one definition each, hoisted into argparse parent parsers
# so `run`, `trace`, `sweep`, and `fidelity` spell them identically.
# ---------------------------------------------------------------------------

_FLAG_DEFS = {
    "jobs": (("--jobs", "-j"), dict(type=int, default=None, metavar="N",
             help="worker processes (default: cpu count)")),
    "json": (("--json",), dict(metavar="PATH",
             help="export results as JSON")),
    "csv": (("--csv",), dict(metavar="PATH",
            help="export results as CSV")),
    "force": (("--force",), dict(action="store_true",
              help="re-simulate even on a cache hit")),
    "no-cache": (("--no-cache",), dict(action="store_true",
                 help="bypass the on-disk result cache entirely")),
    "lake": (("--lake",), dict(action="store_true",
             help="also ingest results into the run lake "
                  "(append-only sqlite; see `repro query`)")),
    "lake-path": (("--lake-path",), dict(metavar="PATH", default=None,
                  help="lake sqlite location (default: "
                       "$REPRO_LAKE_PATH, else lake.sqlite beside "
                       "the result cache)")),
}


def flags_parent(*names: str) -> argparse.ArgumentParser:
    """A parent parser carrying the named shared flags."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        flags, options = _FLAG_DEFS[name]
        parent.add_argument(*flags, **options)
    return parent


def _print_record(record: RunRecord) -> bool:
    """Print one record the way the paper's tables read; True if all checks pass."""
    spec = get_experiment(record.exp_id)
    print("=" * 72)
    print(f"{spec.title}")
    print(f"(regenerates: {spec.paper_tables})")
    print("=" * 72)
    if record.rendered:
        print(record.rendered)
    print()
    print("shape checks (paper's qualitative results):")
    all_ok = True
    for name, ok, detail in record.checks:
        mark = "PASS" if ok else "FAIL"
        all_ok &= bool(ok)
        print(f"  [{mark}] {name}: {detail}")
    if record.notes:
        print(f"\nnote: {record.notes}")
    source = "cache hit" if record.cached else f"ran in {record.elapsed_seconds:.1f}s"
    print(f"\n({source})\n")
    return all_ok


def _emit_text(path: str, text: str, prog: str, label: str) -> int:
    """Write an export to a file, or to stdout when the path is '-'."""
    if path == "-":
        print(text)
        return 0
    try:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        print(f"{prog}: error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {label} to {path}", file=sys.stderr)
    return 0


def _ingest(lake_path: Optional[str], records: List[RunRecord], what: str) -> None:
    """Add records to the run lake (``--lake``) and say how many were new."""
    from repro.lake import RunLake

    with RunLake(lake_path) as lake:
        added = sum(bool(lake.ingest_record(record)) for record in records)
        print(f"lake {lake.path}: {added} new of {len(records)} {what} ingested",
              file=sys.stderr)


def cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(exp_id) for exp_id in EXPERIMENTS)
    for exp_id, spec in EXPERIMENTS.items():
        print(f"{exp_id:<{width + 2}}{spec.paper_tables}")
        print(f"{'':<{width + 2}}{spec.description}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    exp_ids: List[str] = list(EXPERIMENTS) if args.all else args.experiments
    if not exp_ids:
        print("nothing to run: name experiments or pass --all", file=sys.stderr)
        return 2
    # --backend/--consistency/--preset flow through the standard
    # override channel, so cached records stay keyed (and honest) per
    # backend, memory model, and machine table.
    common = {
        key: value
        for key, value in (
            ("backend", args.backend),
            ("consistency", args.consistency),
            ("preset", args.preset),
        )
        if value
    }
    try:
        for exp_id in exp_ids:  # fail fast on typos before any long run
            resolve_config(exp_id, common or None)
    except (KeyError, ValueError) as exc:
        print(f"repro run: error: {exc.args[0]}", file=sys.stderr)
        return 2
    overrides = {exp_id: dict(common) for exp_id in exp_ids} if common else None
    if args.check:
        # The checker instruments machine instances, so checked runs must
        # execute in this process and cannot reuse cached (unchecked)
        # records.
        print(
            "running with the invariant checker installed "
            "(in-process, cache bypassed)",
            file=sys.stderr,
        )

    done = []

    def progress(record: RunRecord) -> None:
        done.append(record)
        source = "cached" if record.cached else f"{record.elapsed_seconds:.1f}s"
        print(
            f"[{len(done)}/{len(exp_ids)}] {record.exp_id} ({source})",
            file=sys.stderr,
            flush=True,
        )

    if args.check:
        from repro import check

        with check.checking() as checker:
            records = execute(
                exp_ids,
                jobs=1,
                use_cache=False,
                force=True,
                progress=progress,
                overrides=overrides,
            )
        totals = checker.report()
        print(
            "invariant checker: zero violations "
            f"({sum(totals.values())} checks: {totals})",
            file=sys.stderr,
        )
    else:
        records = execute(
            exp_ids,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            force=args.force,
            progress=progress,
            overrides=overrides,
        )

    failed: List[str] = []
    for exp_id, record in records.items():
        if not _print_record(record):
            failed.append(exp_id)

    if args.lake:
        _ingest(args.lake_path, list(records.values()), "record(s)")

    if args.json:
        payload = [record.to_jsonable() for record in records.values()]
        if _emit_text(args.json, json.dumps(payload, indent=1, sort_keys=True),
                      "repro run", f"{len(payload)} records"):
            return 2

    if failed:
        print(
            f"shape checks failed: {', '.join(failed)}", file=sys.stderr
        )
        return 1
    return 0


def cmd_fidelity(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.core.fidelity import assess_all, render_scorecard

    print("running the five pair experiments (cached if already run)...")
    rows = assess_all()
    print()
    print(render_scorecard(rows))
    if args.json:
        payload = [
            dict(asdict(row), abs_error=round(row.abs_error, 3))
            for row in rows
        ]
        return _emit_text(args.json, json.dumps(payload, indent=1),
                          "repro fidelity", f"{len(payload)} fidelity rows")
    return 0


def _suffixed_path(path: str, name: str, multi: bool) -> str:
    """Insert the spec name before the extension for multi-spec exports."""
    if not multi:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{name}{p.suffix}"))


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.specs import expand_glob, load_sweep
    from repro.sweep import get_sweep, parse_axis_flag

    # One spec by name/path, or a batch via --glob — never both.
    if bool(args.spec) == bool(args.glob):
        print(
            "repro sweep: error: name one spec (or a YAML path) or pass "
            '--glob "specs/sweeps/em3d-*.yaml", not both',
            file=sys.stderr,
        )
        return 2

    # Resolve every grid point of every spec, with the --axis values,
    # before the first one runs: a bad spec, axis or value in a batch
    # is a usage error, never a failure after the others simulated.
    try:
        axes = dict(parse_axis_flag(flag) for flag in args.axis or [])
        if args.glob:
            paths = expand_glob(args.glob)
            if not paths:
                raise ValueError(f"--glob {args.glob!r} matched no spec files")
            specs = [load_sweep(str(path)) for path in paths]
        else:
            specs = [get_sweep(args.spec)]
        for spec in specs:
            spec.with_axes(axes).grid()
    except (KeyError, ValueError, TypeError) as exc:
        print(f"repro sweep: error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2

    worst = 0
    for spec in specs:
        code = _run_one_sweep(spec, axes, args, multi=len(specs) > 1)
        worst = max(worst, code)
        if code == 2:
            return 2  # usage errors stop the batch immediately
    return worst


def _run_one_sweep(spec, axes, args: argparse.Namespace, multi: bool = False) -> int:
    from repro.sweep import render_plots, run_sweep

    delivered = {}  # the point records, for --lake

    def progress(done, total, point, record, simulated):
        delivered[record.cache_key] = record
        source = f"{record.elapsed_seconds:.1f}s" if simulated else "cached"
        print(f"[{done}/{total}] {spec.exp_id}({point.label()}) ({source})",
              file=sys.stderr, flush=True)

    try:
        result = run_sweep(
            spec,
            axes=axes or None,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            force=args.force,
            progress=progress,
        )
    except ValueError as exc:
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        return 2

    print("=" * 72)
    print(f"sweep {result.spec_name}: {result.exp_id} over "
          + " x ".join(f"{a}={list(v)}" for a, v in result.axes))
    print("=" * 72)
    print(result.render_table())
    print()
    print(render_plots(result))
    if result.crossovers or result.checks:
        print()
    for probe in result.crossovers:
        mark = "x" if probe["crossed"] else "-"
        print(f"  [{mark}] crossover {probe['name']}: {probe['detail']}")
    all_ok = True
    for name, ok, detail in result.checks:
        mark = "PASS" if ok else "FAIL"
        all_ok &= bool(ok)
        print(f"  [{mark}] {name}: {detail}")
    meta = result.meta
    print(f"\n({meta['points']} points: {meta['simulated']} simulated, "
          f"{meta['cached']} cached, {meta['elapsed_seconds']:.1f}s)")

    if args.lake:
        _ingest(args.lake_path, list(delivered.values()), "point record(s)")

    for attr, label, text in (
        ("json", "sweep JSON", json.dumps(result.to_jsonable(), indent=1,
                                          sort_keys=True)),
        ("csv", "sweep CSV", result.to_csv()),
    ):
        path = getattr(args, attr)
        if path and _emit_text(_suffixed_path(path, result.spec_name, multi),
                               text, "repro sweep", label):
            return 2

    if not all_ok:
        print("sweep shape checks failed", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.runner import bench

    print("running kernel benchmarks...", file=sys.stderr, flush=True)
    document = bench.run_benchmarks(
        quick=args.quick, apps=not args.no_apps, backend=args.backend
    )
    rate = document["kernel"]["events_per_sec"]
    print(f"kernel aggregate: {rate} events/sec")

    if args.json and _emit_text(
        args.json, json.dumps(document, indent=1, sort_keys=True),
        "repro bench", "benchmark results",
    ):
        return 2

    if args.baseline:
        baseline = bench.load_baseline(args.baseline)
        if baseline is None:
            print(f"no baseline at {args.baseline}; skipping regression gate")
            return 0
        ok, message = bench.compare(document, baseline, threshold=args.threshold)
        print(message)
        if not ok:
            print("benchmark regression gate FAILED", file=sys.stderr)
            return 1
        print("benchmark regression gate passed")
    return 0


def _parse_procs(text: str) -> List[int]:
    """Parse a processor set: ``0-7``, ``0,2,5-6`` — for ``--procs``."""
    procs: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            procs.extend(range(int(lo), int(hi) + 1))
        else:
            procs.append(int(part))
    if not procs:
        raise ValueError(f"empty processor set {text!r}")
    return procs


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import api
    from repro.runner.api import baselines
    from repro.runner.cache import cache_key
    from repro.runner.record import build_record
    from repro.trace.timeline import render_timeline

    try:
        config = resolve_config(args.experiment)
    except (KeyError, ValueError) as exc:
        print(f"repro trace: error: {exc.args[0]}", file=sys.stderr)
        return 2
    key = cache_key(config)
    cache = ResultCache()

    # A full trace is stored with its record and re-rendered from there
    # (unless --force); a --procs/--max-events slice or a --no-cache
    # trace never enters the cache.
    full = args.procs is None and args.max_events is None and not args.no_cache
    if full:
        cache.check_directory()
    doc = cache.load_trace(config.exp_id, key) if full and not args.force else None
    if doc is not None:
        where = f"{cache.trace_path(config.exp_id, key)} (cached; --force re-simulates)"
    else:
        traced = api.trace_for(
            args.experiment, procs=args.procs, max_events=args.max_events
        )
        doc = traced.document
        if traced.errors:
            for error in traced.errors:
                print(f"repro trace: schema error: {error}", file=sys.stderr)
            return 1
        dropped = f", {traced.dropped} dropped" if traced.dropped else ""
        ran = (f"{len(doc['traceEvents'])} events{dropped}, "
               f"ran in {traced.elapsed_seconds:.1f}s")
        if full:
            record = build_record(
                get_experiment(args.experiment), config, traced.result,
                traced.elapsed_seconds, baselines(args.experiment, config), key=key,
            )
            cache.store(record, trace=doc)
            where = f"{record.trace_path} ({ran})"
        else:
            where = f"not stored ({ran}; slices and --no-cache traces are never cached)"

    print(render_timeline(doc))
    if args.out and _emit_text(args.out, json.dumps(doc), "repro trace", "trace JSON"):
        return 2
    print(f"\ntrace: {where}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.arch.params import MEMORY_MODELS
    from repro.check.errors import CheckError
    from repro.check.litmus import LITMUS_TESTS, run_matrix, run_suite
    from repro.check.stress import run_mp_stress, run_sm_stress
    from repro.runner.config import unknown

    # Refuse a typo, or a budget that checks nothing, before running.
    error = None
    if args.consistency not in (None,) + MEMORY_MODELS:
        error = unknown("consistency", args.consistency, MEMORY_MODELS).args[0]
    elif args.litmus_seeds < 1:
        error = f"--litmus-seeds must be >= 1, got {args.litmus_seeds}"
    elif args.stress is not None and args.stress < 1:
        error = f"--stress must be >= 1, got {args.stress}"
    elif args.nprocs < 2 or args.nprocs % 2:
        error = f"--nprocs must be even and >= 2, got {args.nprocs}"
    if error is not None:
        print(f"repro check: error: {error}", file=sys.stderr)
        return 2
    consistency = args.consistency or "sc"
    # Default: everything. `--litmus`, `--matrix`, or `--stress N`
    # narrows the run.
    do_matrix = args.matrix
    do_litmus = not do_matrix and (args.litmus or args.stress is None)
    do_stress = not do_matrix and ((args.stress is not None) or not args.litmus)
    ops = args.stress if args.stress is not None else 500
    failures = 0

    if do_matrix:
        seeds = tuple(range(args.seed, args.seed + args.litmus_seeds))
        try:
            rows = run_matrix(seeds=seeds, backend=args.backend)
        except CheckError as exc:
            print(f"  [FAIL] litmus matrix: {exc}")
            failures += 1
        else:
            width = max(len(row["test"]) for row in rows)
            for row in rows:
                seen = (
                    f"relaxed outcome observed {row['relaxed_observed']}x"
                    if row["relaxed_observed"]
                    else "relaxed outcome never observed"
                )
                print(
                    f"  [PASS] {row['model']:<4} {row['test']:<{width}} "
                    f"{row['expected']:<10} {row['runs']:>3} runs, {seen}"
                )
            print(
                f"  litmus matrix: {len(rows)} cells "
                f"({args.backend} backend), every verdict held"
            )

    if do_litmus:
        seeds = tuple(range(args.seed, args.seed + args.litmus_seeds))
        for test in LITMUS_TESTS:
            try:
                observed = run_suite(
                    [test],
                    seeds=seeds,
                    backend=args.backend,
                    consistency=consistency,
                )[test.name]
            except CheckError as exc:
                print(f"  [FAIL] litmus {test.name}: {exc}")
                failures += 1
                continue
            verdict = (
                "relaxed outcome observed (permitted)"
                if consistency in test.permitted_under
                else "forbidden outcome never observed"
            )
            print(
                f"  [PASS] litmus {test.name}: {len(observed)} distinct "
                f"outcome(s) over {sum(observed.values())} runs "
                f"(consistency={consistency}), {verdict}"
            )

    if do_stress:
        try:
            report = run_sm_stress(
                ops=ops,
                seed=args.seed,
                nprocs=args.nprocs,
                backend=args.backend,
                consistency=consistency,
            )
        except CheckError as exc:
            print(f"  [FAIL] sm stress: {exc}")
            failures += 1
        else:
            print(
                f"  [PASS] sm stress: {report['sm_ops']} ops, "
                f"{report['increments']} locked increments, "
                f"{report.get('data-value', 0)} oracle checks, "
                f"{report.get('swmr', 0)} SWMR checks"
            )
        try:
            report = run_mp_stress(
                ops=max(1, ops // 2),
                seed=args.seed,
                nprocs=args.nprocs,
                backend=args.backend,
            )
        except CheckError as exc:
            print(f"  [FAIL] mp stress: {exc}")
            failures += 1
        else:
            print(
                f"  [PASS] mp stress: {report['mp_messages']} sequenced "
                f"messages, {report.get('fifo', 0)} FIFO checks, "
                f"{report.get('conservation', 0)} conservation checks, "
                f"strict quiescence"
            )

    if failures:
        print(f"repro check: {failures} violation(s)", file=sys.stderr)
        return 1
    print("repro check: all invariants held")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache()
    if args.cache_command == "ls":
        index = cache.index()  # one scan for the lines and their totals
        if not index:
            print(f"cache empty ({cache.directory})")
        else:
            stats = cache.stats(index)
            stale = (
                f", {stats['stale_records']} stale-salt"
                if stats["stale_records"]
                else ""
            )
            print(
                f"cache {cache.directory}: {stats['records']} records, "
                f"{stats['bytes']} bytes total{stale}"
            )
            for line in cache.ls(index):
                print(f"  {line}")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} records from {cache.directory}")
        return 0
    print("unknown cache command", file=sys.stderr)
    return 2


def cmd_lake(args: argparse.Namespace) -> int:
    from repro.lake import RunLake, default_lake_path

    if args.lake_command == "ingest":
        cache = ResultCache()
        with RunLake(args.lake_path) as lake:
            added, seen = lake.ingest_cache(cache)
            print(
                f"lake {lake.path}: ingested {added} new of {seen} cached "
                f"record(s) from {cache.directory}"
            )
        return 0
    if args.lake_command == "stats":
        path = Path(args.lake_path) if args.lake_path else default_lake_path()
        if not path.exists():
            print(
                f"repro lake: error: no lake at {path} (run with --lake or "
                "`repro lake ingest` first)",
                file=sys.stderr,
            )
            return 1
        with RunLake(path) as lake:
            stats = lake.stats()
        if args.json:
            return _emit_text(
                args.json, json.dumps(stats, indent=1, sort_keys=True),
                "repro lake", "lake stats JSON",
            )
        for key, value in stats.items():
            print(f"{key:>14}: {value}")
        return 0
    print("unknown lake command", file=sys.stderr)
    return 2


def cmd_query(args: argparse.Namespace) -> int:
    from repro.lake import (
        QueryFilters,
        RunLake,
        default_lake_path,
        pivot,
        query_runs,
        render_rows,
        rows_to_csv,
    )

    metrics = tuple(
        name.strip() for name in (args.metrics or "").split(",") if name.strip()
    )
    try:
        filters = QueryFilters(
            app=args.app,
            backend=args.backend,
            consistency=args.consistency,
            preset=args.preset,
            salt=args.salt,
            all_salts=args.all_salts,
            **({"metrics": metrics} if metrics else {}),
        )
    except ValueError as exc:
        print(f"repro query: error: {exc}", file=sys.stderr)
        return 2

    path = Path(args.lake_path) if args.lake_path else default_lake_path()
    if not path.exists():
        print(
            f"repro query: error: no lake at {path} (run with --lake or "
            "`repro lake ingest` first)",
            file=sys.stderr,
        )
        return 1

    try:
        with RunLake(path) as lake:
            rows = query_runs(lake, filters)
        if args.pivot:
            rows = pivot(rows, args.pivot, filters.metrics[0])
    except ValueError as exc:
        print(f"repro query: error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        return _emit_text(
            args.json, json.dumps(rows, indent=1, sort_keys=True),
            "repro query", f"{len(rows)} query rows as JSON",
        )
    if args.csv:
        return _emit_text(
            args.csv, rows_to_csv(rows), "repro query",
            f"{len(rows)} query rows as CSV",
        )
    print(render_rows(rows))
    print(
        f"\n({len(rows)} row(s) from {path}"
        + ("" if args.all_salts else "; stale-salt rows hidden, "
           "--all-salts shows them")
        + ")"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import api
    from repro.serve.eviction import parse_bytes

    try:
        cache_bytes = parse_bytes(args.cache_bytes)
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2
    try:
        api.serve(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_bytes=cache_bytes,
            max_pending=args.max_pending,
            retention_seconds=args.job_ttl,
        )
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(
            f"repro serve: error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Where is Time Spent in "
                    "Message-Passing and Shared-Memory Programs?' "
                    "(ASPLOS 1994)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(handler=cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run experiments",
        parents=[flags_parent("jobs", "json", "force", "no-cache",
                              "lake", "lake-path")],
    )
    run_parser.add_argument("experiments", nargs="*", metavar="ID",
                            help="experiment ids (see `list`)")
    run_parser.add_argument("--all", action="store_true",
                            help="run the whole evaluation section")
    run_parser.add_argument("--check", action="store_true",
                            help="simulate with the invariant checker "
                                 "installed (forces --jobs 1, no cache)")
    run_parser.add_argument("--backend", choices=("batched", "reference"),
                            default=None,
                            help="execution backend override for every "
                                 "requested experiment (default: each "
                                 "config's own, normally batched)")
    run_parser.add_argument("--consistency", metavar="MODEL", default=None,
                            help="memory-model override for every requested "
                                 "experiment: sc (default, the paper's "
                                 "machine), tso, or pc")
    run_parser.add_argument("--preset", metavar="TABLE", default=None,
                            help="machine-table override for every requested "
                                 "experiment: paper (default), multicore, "
                                 "or cluster")
    run_parser.set_defaults(handler=cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a declarative sensitivity sweep (grid over one or two "
             "axes, cache-aware, with machine-checked curve shapes)",
        parents=[flags_parent("jobs", "json", "csv", "force", "no-cache",
                              "lake", "lake-path")],
    )
    sweep_parser.add_argument("spec", metavar="SPEC", nargs="?",
                              help="sweep spec: a YAML id (em3d-latency, "
                                   "em3d-cache, gauss-speedup, em3d-modern; "
                                   "see specs/sweeps/), a YAML file path, or "
                                   "a name registered in the deprecated "
                                   "Python registry")
    sweep_parser.add_argument("--glob", metavar="PATTERN",
                              help="run every sweep spec file matching a "
                                   "glob, e.g. --glob "
                                   '"specs/sweeps/em3d-*.yaml"; --json/--csv '
                                   "paths get the spec name suffixed")
    sweep_parser.add_argument("--axis", action="append", metavar="K=V1,V2,...",
                              help="replace (or add) an axis value list, "
                                   "e.g. --axis net_latency=0,50,100; "
                                   "repeatable")
    sweep_parser.set_defaults(handler=cmd_sweep)

    bench_parser = subparsers.add_parser(
        "bench", help="kernel/microbenchmark suite with regression gate"
    )
    bench_parser.add_argument("--json", metavar="PATH",
                              help="write results (BENCH_kernel.json format)")
    bench_parser.add_argument("--baseline", metavar="PATH",
                              help="compare against a committed baseline; "
                                   "missing file skips the gate")
    bench_parser.add_argument("--threshold", type=float, default=0.75,
                              metavar="RATIO",
                              help="fail below RATIO x baseline events/sec "
                                   "(default: 0.75)")
    bench_parser.add_argument("--quick", action="store_true",
                              help="smaller iteration counts (CI smoke)")
    bench_parser.add_argument("--no-apps", action="store_true",
                              help="skip the end-to-end app timings")
    bench_parser.add_argument("--backend", choices=("batched", "reference"),
                              default="batched",
                              help="execution backend for the app timings "
                                   "(default: batched)")
    bench_parser.set_defaults(handler=cmd_bench)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one experiment with the timeline tracer; "
             "emit Chrome Trace JSON + ASCII timeline",
        parents=[flags_parent("force", "no-cache")],
    )
    trace_parser.add_argument("experiment", metavar="ID",
                              help="experiment id (see `list`)")
    trace_parser.add_argument("--out", metavar="PATH",
                              help="also write the trace JSON to PATH "
                                   "('-' for stdout); the cache keeps "
                                   "full traces itself, slices never")
    trace_parser.add_argument("--procs", type=_parse_procs, default=None,
                              metavar="SET",
                              help="restrict per-processor records, "
                                   "e.g. 0-7 or 0,2,5-6 (default: all)")
    trace_parser.add_argument("--max-events", type=int, default=None,
                              metavar="N",
                              help="cap on stored trace records "
                                   "(default: 250000)")
    trace_parser.set_defaults(handler=cmd_trace)

    check_parser = subparsers.add_parser(
        "check",
        help="coherence/consistency litmus suite + randomized stress "
             "under the invariant checker",
    )
    check_parser.add_argument("--litmus", action="store_true",
                              help="run only the litmus suite")
    check_parser.add_argument("--stress", type=int, default=None,
                              metavar="N",
                              help="run only the stress programs, with N "
                                   "shared-memory operations (default when "
                                   "neither flag is given: both, N=500)")
    check_parser.add_argument("--seed", type=int, default=0, metavar="S",
                              help="base seed for schedules and jitter "
                                   "(default: 0)")
    check_parser.add_argument("--nprocs", type=int, default=4, metavar="P",
                              help="simulated processors for stress runs "
                                   "(default: 4, must be even)")
    check_parser.add_argument("--litmus-seeds", type=int, default=6,
                              metavar="K",
                              help="jitter seeds per litmus shape "
                                   "(default: 6)")
    check_parser.add_argument("--consistency", metavar="MODEL", default=None,
                              help="memory model for litmus/SM-stress runs: "
                                   "sc (default), tso, or pc; unknown names "
                                   "are a usage error, never a skip")
    check_parser.add_argument("--matrix", action="store_true",
                              help="run the full model x shape litmus "
                                   "verdict matrix (every model, both "
                                   "verdict directions)")
    check_parser.add_argument("--backend", choices=("batched", "reference"),
                              default="batched",
                              help="execution backend for litmus/stress "
                                   "machines (default: batched)")
    check_parser.set_defaults(handler=cmd_check)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_parser.add_argument("cache_command", choices=["ls", "clear"],
                              help="ls: list records; clear: delete them")
    cache_parser.set_defaults(handler=cmd_cache)

    lake_parser = subparsers.add_parser(
        "lake",
        help="the run lake: backfill-ingest cached records into the "
             "append-only sqlite store, or print its stats",
        parents=[flags_parent("json", "lake-path")],
    )
    lake_parser.add_argument("lake_command", choices=["ingest", "stats"],
                             help="ingest: backfill every cached record; "
                                  "stats: row counts and freshness")
    lake_parser.set_defaults(handler=cmd_lake)

    query_parser = subparsers.add_parser(
        "query",
        help="query the run lake: filter runs by app/backend/consistency/"
             "preset/salt, project cycle-breakdown metric columns, pivot "
             "for cross-preset or cross-version comparison — zero "
             "re-simulation ('-' as a --json/--csv path prints to stdout)",
        parents=[flags_parent("json", "csv", "lake-path")],
    )
    query_parser.add_argument("--app", metavar="ID", default=None,
                              help="filter to one experiment id (see `list`)")
    query_parser.add_argument("--backend", choices=("batched", "reference"),
                              default=None, help="filter by execution backend")
    query_parser.add_argument("--consistency", metavar="MODEL", default=None,
                              help="filter by memory model: sc, tso, or pc")
    query_parser.add_argument("--preset", metavar="TABLE", default=None,
                              help="filter by machine preset (paper, "
                                   "multicore, cluster; lake rows may also "
                                   "carry 'custom' for perturbed machines)")
    query_parser.add_argument("--salt", metavar="SALT", default=None,
                              help="filter by the code-salt provenance "
                                   "column (implies cross-version intent; "
                                   "combine with --all-salts)")
    query_parser.add_argument("--all-salts", action="store_true",
                              help="include stale-salt rows (hidden by "
                                   "default so versions never mix silently)")
    query_parser.add_argument("--metrics", metavar="M1,M2,...", default=None,
                              help="metric columns (default: "
                                   "mp_total,sm_total,sm_over_mp); any "
                                   "registry metric or ingested breakdown "
                                   "component (mp_computation, "
                                   "sm_data_access, ...)")
    query_parser.add_argument("--pivot", metavar="COLUMN", default=None,
                              help="spread the first metric across one "
                                   "column's values (preset, salt, backend, "
                                   "consistency, procs), one row per app")
    query_parser.set_defaults(handler=cmd_query)

    serve_parser = subparsers.add_parser(
        "serve",
        help="long-running HTTP service over the harness: POST runs and "
             "sweeps, poll content-hash job IDs, warm requests served "
             "from the result cache in milliseconds",
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8737,
                              help="bind port (default: 8737; 0 picks an "
                                   "ephemeral port)")
    serve_parser.add_argument("--jobs", "-j", type=int, default=2,
                              metavar="N",
                              help="simulation worker threads, each "
                                   "driving one spawned worker process "
                                   "(default: 2)")
    serve_parser.add_argument("--cache-bytes", metavar="BYTES", default=None,
                              help="byte budget for .repro_cache/ — LRU "
                                   "eviction, stale-salt records first; "
                                   "accepts suffixes (64M, 1G); default: "
                                   "unbounded")
    serve_parser.add_argument("--max-pending", type=int, default=64,
                              metavar="N",
                              help="cold jobs allowed to wait for a "
                                   "worker before submissions get 429 + "
                                   "Retry-After (default: 64)")
    serve_parser.add_argument("--job-ttl", type=float, default=3600.0,
                              metavar="S",
                              help="seconds a finished job stays pollable "
                                   "before the registry prunes it "
                                   "(default: 3600; in-flight jobs are "
                                   "never pruned)")
    serve_parser.set_defaults(handler=cmd_serve)

    fidelity_parser = subparsers.add_parser(
        "fidelity",
        help="scorecard: category shares, paper vs. the scaled runs",
        parents=[flags_parent("json")],
    )
    fidelity_parser.set_defaults(handler=cmd_fidelity)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CacheDirectoryError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
