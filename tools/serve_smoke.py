#!/usr/bin/env python3
"""End-to-end smoke test for a running ``repro serve`` instance.

Drives the full job lifecycle against a live server (CI boots one in
the background; locally: ``python -m repro serve --port 8737 &``):

1. wait for ``GET /healthz`` to answer;
2. ``POST /v1/runs`` for the target experiment (cold) and poll
   ``GET /v1/jobs/<id>`` until it finishes — the first submission must
   simulate (``simulated: true``) unless the server's cache was warm;
3. re-submit the identical request and require it served from the
   content-addressed cache: ``state: "done"`` in the *submission*
   response, ``simulated: false``, and a sub-second round trip;
4. require the warm record to be identical to the cold one
   (same cache key, same summary) and the health document sane;
5. long-poll ``GET /v1/jobs/<id>?wait=...`` and require a terminal
   state from a single request (no client-side poll loop);
6. issue a mixed keep-alive sequence (valid POST, unknown path,
   malformed JSON, health GET) over ONE persistent connection and
   require every response to match its request — guards against
   HTTP/1.1 request desync from undrained bodies;
7. send back-to-back warm reads over one persistent connection and
   require their median under a budget — guards against the ~40 ms
   per-request stall of a server that leaves Nagle's algorithm on;
8. run ``repro cache clear`` in a second process against the cache
   directory ``/healthz`` reports, and require the identical request to
   simulate again (``202``, then ``done`` with ``simulated: true``) —
   a finished envelope never answers for a record the cache lost;
9. re-run the request with ``force: true`` and require the next warm
   read to carry the forced run's ``elapsed_seconds`` — a replaced
   record is never served from the server's memory;
10. submit a sweep with an impossible axis value and a run with no
    processors, and require a ``400`` for each with no new job in
    ``GET /v1/jobs`` — bad input is refused before anything is queued;
11. force a two-point ``jobs: 1`` sweep, whose points fit one batch,
    and require it to finish ``done`` with ``meta.simulated == 2``.

Exit code 0 on success, 1 on any violated expectation (with a message
on stderr). Stdlib only — usable from CI, cron, or a shell.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request


def get(url: str, path: str):
    with urllib.request.urlopen(url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(url: str, path: str, body: dict):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def wait_healthy(url: str, timeout: float) -> dict:
    deadline = time.time() + timeout
    last_error = "no attempt made"
    while time.time() < deadline:
        try:
            status, health = get(url, "/healthz")
            if status == 200 and health.get("status") == "ok":
                return health
            last_error = f"status={status} body={health}"
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            last_error = str(exc)
        time.sleep(0.25)
    raise SystemExit(f"server never became healthy at {url}: {last_error}")


def poll_job(url: str, job_id: str, timeout: float) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, job = get(url, f"/v1/jobs/{job_id}")
        if status != 200:
            raise SystemExit(f"poll failed: status={status} body={job}")
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.5)
    raise SystemExit(f"job {job_id} did not finish within {timeout}s")


def check_long_poll(url: str, job_id: str) -> list:
    """One GET with ``wait=`` must return a terminal state by itself."""
    started = time.time()
    status, job = get(url, f"/v1/jobs/{job_id}?wait=30")
    elapsed = time.time() - started
    print(f"long-poll: HTTP {status}, state={job['state']} "
          f"after {elapsed*1000:.0f}ms")
    failures = []
    if status != 200:
        failures.append(f"long-poll answered HTTP {status}")
    elif job["state"] not in ("done", "failed"):
        failures.append(f"long-poll returned non-terminal state "
                        f"{job['state']!r} despite wait=30")
    if elapsed > 10.0:
        failures.append(f"long-poll on a finished job took {elapsed:.1f}s")
    return failures


def check_keepalive(url: str, body: dict) -> list:
    """Mixed POSTs + GET on one persistent connection stay in sync."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(
        parts.hostname, parts.port or 80, timeout=30
    )
    sequence = [
        ("POST", "/v1/runs", json.dumps(body).encode(), (200, 202)),
        ("POST", "/v1/nowhere", json.dumps(body).encode(), (404,)),
        ("POST", "/v1/runs", b"{definitely not json", (400,)),
        ("GET", "/healthz", None, (200,)),
    ]
    failures = []
    try:
        sockets = set()
        for method, path, payload, expected in sequence:
            headers = ({"Content-Type": "application/json"}
                       if payload else {})
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            answer = json.loads(response.read())
            if response.status not in expected:
                failures.append(
                    f"keep-alive {method} {path}: HTTP {response.status} "
                    f"(expected {expected}) body={answer}"
                )
            sockets.add(id(conn.sock))
        if len(sockets) != 1:
            failures.append(
                "keep-alive connection was re-established mid-sequence"
            )
    except (http.client.HTTPException, OSError, json.JSONDecodeError) as exc:
        failures.append(f"keep-alive sequence desynced: {exc!r}")
    finally:
        conn.close()
    if not failures:
        print(f"keep-alive: {len(sequence)} mixed requests on one "
              "connection, all in sync")
    return failures


#: Back-to-back warm reads on one connection, and the median they must
#: stay under (a server that leaves Nagle's algorithm on takes ~40 ms).
KEEPALIVE_READS = 20
KEEPALIVE_BUDGET_S = 0.02


def check_warm_keepalive(url: str, body: dict) -> list:
    """Back-to-back warm reads on one persistent connection stay fast."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(
        parts.hostname, parts.port or 80, timeout=30
    )
    payload = json.dumps(body).encode()
    times = []
    try:
        for _ in range(KEEPALIVE_READS):
            started = time.perf_counter()
            conn.request("POST", "/v1/runs", body=payload,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            answer = json.loads(response.read())
            times.append(time.perf_counter() - started)
            if response.status != 200 or answer.get("simulated") is not False:
                return [f"warm keep-alive read: HTTP {response.status}, "
                        f"simulated={answer.get('simulated')}"]
    except (http.client.HTTPException, OSError, json.JSONDecodeError) as exc:
        return [f"warm keep-alive reads failed: {exc!r}"]
    finally:
        conn.close()
    median = statistics.median(times)
    print(f"warm keep-alive: {KEEPALIVE_READS} reads on one connection, "
          f"median {median*1000:.1f}ms")
    if median > KEEPALIVE_BUDGET_S:
        return [f"warm keep-alive median {median*1000:.1f}ms over "
                f"{KEEPALIVE_BUDGET_S*1000:.0f}ms (a delayed-ACK stall?)"]
    return []


def check_cold_after_cache_clear(url: str, body: dict, timeout: float) -> list:
    """After ``repro cache clear`` in another process, the identical
    request simulates again instead of answering from its old job."""
    _status, health = get(url, "/healthz")
    directory = health["cache"]["directory"]
    cleared = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "clear"],
        env=dict(os.environ, REPRO_CACHE_DIR=directory),
        capture_output=True, text=True, timeout=60,
    )
    if cleared.returncode != 0:
        return [f"repro cache clear of {directory} failed: {cleared.stderr}"]
    status, job = post(url, "/v1/runs", body)
    if status != 202:
        return [f"request after cache clear: HTTP {status}, "
                f"state={job['state']}, simulated={job['simulated']} "
                "(expected 202: the record is gone)"]
    job = poll_job(url, job["job_id"], timeout)
    if job["state"] != "done" or job["simulated"] is not True:
        return [f"request after cache clear: state={job['state']}, "
                f"simulated={job['simulated']} (expected done, simulated)"]
    print(f"cache clear: {cleared.stdout.strip()}; the identical request "
          "simulated again")
    return []


def check_warm_after_force(url: str, body: dict, timeout: float) -> list:
    """A warm read after a force re-run carries the re-run's record."""
    status, job = post(url, "/v1/runs", dict(body, force=True))
    job = poll_job(url, job["job_id"], timeout)
    if job["state"] != "done" or job["simulated"] is not True:
        return [f"force re-run: HTTP {status}, state={job['state']}, "
                f"simulated={job['simulated']}"]
    forced = job["result"]["elapsed_seconds"]
    status, warm = post(url, "/v1/runs", body)
    if status != 200 or warm["simulated"] is not False:
        return [f"warm read after force: HTTP {status}, "
                f"simulated={warm['simulated']}"]
    if warm["result"]["elapsed_seconds"] != forced:
        return [f"warm read after force carries elapsed_seconds "
                f"{warm['result']['elapsed_seconds']}, the forced run "
                f"stored {forced}"]
    print(f"force: the next warm read carries the re-run's record "
          f"(elapsed_seconds {forced})")
    return []


#: Requests that cannot become a runnable config: each must be refused
#: at submit (``400``) and queue nothing.
UNRUNNABLE = (
    ("/v1/sweeps", {"spec": "em3d-latency", "axes": {"net_latency": [-50]}}),
    ("/v1/runs", {"experiment": "validation", "overrides": {"procs": 0}}),
)


def check_refused_before_queueing(url: str) -> list:
    """Unrunnable requests get a 400 and leave the job list unchanged."""
    failures = []
    _status, before = get(url, "/v1/jobs")
    for path, body in UNRUNNABLE:
        try:
            status, answer = post(url, path, body)
        except urllib.error.HTTPError as error:
            status, answer = error.code, json.loads(error.read())
        if status != 400:
            failures.append(f"unrunnable {path} {body}: HTTP {status} "
                            f"(expected 400) body={answer}")
    _status, after = get(url, "/v1/jobs")
    new = {job["job_id"] for job in after["jobs"]} - {
        job["job_id"] for job in before["jobs"]
    }
    if new:
        failures.append(f"unrunnable requests queued jobs: {sorted(new)}")
    if not failures:
        print(f"refused: {len(UNRUNNABLE)} unrunnable requests got 400, "
              "no job queued")
    return failures


#: A sweep whose two points fit one batch of one worker; forced, so
#: both points simulate even on a warm cache.
ONE_BATCH_SWEEP = {
    "spec": "em3d-latency", "axes": {"net_latency": [0, 25]}, "jobs": 1,
    "force": True,
}


def check_one_batch_sweep(url: str, timeout: float) -> list:
    """A forced one-batch sweep finishes with both points simulated."""
    status, job = post(url, "/v1/sweeps", ONE_BATCH_SWEEP)
    if status != 202:
        return [f"forced sweep: HTTP {status}, state={job['state']} "
                "(expected 202)"]
    job = poll_job(url, job["job_id"], timeout)
    simulated = (job.get("result") or {}).get("meta", {}).get("simulated")
    if job["state"] != "done" or simulated != 2:
        return [f"forced sweep: state={job['state']}, "
                f"meta.simulated={simulated} (expected done, 2); "
                f"error={job['error']!r}"]
    print("one-batch sweep: a forced jobs: 1 sweep simulated 2 points, done")
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8737",
                        help="server base URL (default: %(default)s)")
    parser.add_argument("--experiment", default="validation",
                        help="experiment to submit (default: %(default)s)")
    parser.add_argument("--boot-timeout", type=float, default=60.0,
                        help="seconds to wait for /healthz (default: 60)")
    parser.add_argument("--job-timeout", type=float, default=600.0,
                        help="seconds to wait for the cold job (default: 600)")
    parser.add_argument("--warm-budget", type=float, default=1.0,
                        help="max seconds for the warm round trip "
                             "(default: 1.0)")
    args = parser.parse_args(argv)
    url = args.url.rstrip("/")
    body = {"experiment": args.experiment}

    health = wait_healthy(url, args.boot_timeout)
    print(f"healthy: uptime {health['uptime_seconds']}s, "
          f"cache {health['cache']['records']} records "
          f"({health['cache']['bytes']} bytes)")

    status, job = post(url, "/v1/runs", body)
    print(f"cold submit: HTTP {status}, state={job['state']}, "
          f"job {job['job_id'][:16]}")
    job = poll_job(url, job["job_id"], args.job_timeout)
    if job["state"] != "done":
        print(f"cold job failed: {job['error']}", file=sys.stderr)
        return 1
    print(f"cold done: simulated={job['simulated']} "
          f"in {job['elapsed_seconds']:.1f}s")
    cold_result = job["result"]

    started = time.time()
    status, warm = post(url, "/v1/runs", body)
    round_trip = time.time() - started
    print(f"warm submit: HTTP {status}, state={warm['state']}, "
          f"simulated={warm['simulated']}, round trip {round_trip*1000:.0f}ms")
    failures = []
    if status != 200 or warm["state"] != "done":
        failures.append(f"warm request not served complete: {warm['state']}")
    if warm["simulated"] is not False:
        failures.append("warm request was re-simulated (expected cache hit)")
    if round_trip > args.warm_budget:
        failures.append(
            f"warm round trip {round_trip:.2f}s over {args.warm_budget}s budget"
        )
    if warm["result"]["cache_key"] != cold_result["cache_key"]:
        failures.append("warm record's cache key diverged from cold run")
    if warm["result"]["summary"] != cold_result["summary"]:
        failures.append("warm record's summary diverged from cold run")

    failures.extend(check_long_poll(url, job["job_id"]))
    failures.extend(check_keepalive(url, body))
    failures.extend(check_warm_keepalive(url, body))
    failures.extend(check_cold_after_cache_clear(url, body, args.job_timeout))
    failures.extend(check_warm_after_force(url, body, args.job_timeout))
    failures.extend(check_refused_before_queueing(url))
    failures.extend(check_one_batch_sweep(url, args.job_timeout))

    status, health = get(url, "/healthz")
    if health["queue"]["jobs"]["failed"]:
        failures.append(f"failed jobs on server: {health['queue']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
