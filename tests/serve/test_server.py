"""End-to-end HTTP tests: real sockets, real validation experiment.

The server under test binds an ephemeral port on localhost and runs
each job's library call in this process (``run_job`` as its executor;
the default spawned executor is exercised by ``tests/serve/test_jobqueue.py``
and by the CI ``serve-smoke`` job against a real ``repro serve`` process,
through ``tools/serve_smoke.py``).
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.runner.cache import ResultCache
from repro.serve.jobqueue import run_job


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("serve") / "cache")
    instance = api.serve(
        port=0,
        block=False,
        jobs=1,
        cache=cache,
        executor=run_job,
        quiet=True,
    )
    yield instance
    instance.stop()


def get(server, path):
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(server, path, body):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def poll(server, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, job = get(server, f"/v1/jobs/{job_id}")
        assert status == 200
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestHealthz:
    def test_health_document(self, server):
        status, health = get(server, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["heartbeat"] >= health["started_at"]
        assert set(health["queue"]["jobs"]) == {
            "pending", "running", "done", "failed",
        }
        assert "bytes" in health["cache"]
        assert "records" in health["cache"]

    def test_health_reports_admission_and_retention(self, server):
        status, health = get(server, "/healthz")
        assert status == 200
        assert set(health["admission"]) == {"max_pending"}
        assert "retention" in health["queue"]
        assert health["queue"]["retention"]["max_terminal"] is not None
        assert health["replica"]["pid"] > 0

    def test_experiments_listing(self, server):
        status, listing = get(server, "/v1/experiments")
        assert status == 200
        ids = [entry["id"] for entry in listing["experiments"]]
        assert "validation" in ids and "em3d" in ids

    def test_specs_listing(self, server):
        status, listing = get(server, "/v1/specs")
        assert status == 200
        by_id = {entry["id"]: entry for entry in listing["specs"]}
        assert "em3d-latency" in by_id
        assert by_id["em3d-latency"]["kind"] == "sweep"
        assert by_id["em3d-latency"]["experiment"] == "em3d"
        assert "em3d-multicore" in by_id
        assert by_id["em3d-multicore"]["kind"] == "experiment"


class TestRunLifecycle:
    def test_cold_then_warm_roundtrip(self, server):
        body = {"experiment": "validation"}
        status, submitted = post(server, "/v1/runs", body)
        assert status in (200, 202)
        job = poll(server, submitted["job_id"])
        assert job["state"] == "done", job["error"]
        assert job["result"]["exp_id"] == "validation"
        assert all(ok for _n, ok, _d in job["result"]["checks"])

        # The stored record is exactly what `repro run` would serve
        # from its cache for the same configuration.
        record = api.record_for("validation", cache=server.cache)
        assert record.cached is True
        assert record.cache_key == job["result"]["cache_key"]
        assert record.summary == job["result"]["summary"]
        assert record.rendered == job["result"]["rendered"]

        # Identical resubmission: answered complete at submission time,
        # from the cache, with zero simulation, in under 250ms.
        started = time.perf_counter()
        status, warm = post(server, "/v1/runs", body)
        round_trip = time.perf_counter() - started
        assert status == 200
        assert warm["state"] == "done"
        assert warm["simulated"] is False
        assert round_trip < 0.25, f"warm round trip {round_trip:.3f}s"
        assert warm["result"]["summary"] == job["result"]["summary"]

    def test_submission_response_carries_job_envelope(self, server):
        status, job = post(
            server, "/v1/runs",
            {"experiment": "validation", "overrides": {"seed": 77}},
        )
        assert status in (200, 202)
        for field in ("job_id", "kind", "state", "params", "submitted_at"):
            assert field in job
        assert job["kind"] == "run"
        done = poll(server, job["job_id"])
        assert done["state"] == "done"

    def test_consistency_and_preset_overrides_accepted(self, server):
        """The memory-model and machine-table channels ride the same
        overrides surface as backend; a typo gets the config layer's
        did-you-mean as a 400."""
        status, job = post(
            server, "/v1/runs",
            {"experiment": "validation",
             "overrides": {"consistency": "tso", "preset": "multicore"}},
        )
        assert status in (200, 202)
        done = poll(server, job["job_id"])
        assert done["state"] == "done"
        assert done["params"]["overrides"]["consistency"] == "tso"
        status, body = post(
            server, "/v1/runs",
            {"experiment": "validation", "overrides": {"consistency": "tsso"}},
        )
        assert status == 400
        assert "did you mean 'tso'" in body["error"]

    def test_jobs_listing(self, server):
        post(server, "/v1/runs", {"experiment": "validation"})
        status, listing = get(server, "/v1/jobs")
        assert status == 200
        assert listing["jobs"], "jobs listing should not be empty"
        assert all("result" not in job for job in listing["jobs"])


class TestCorruptRecord:
    def test_a_record_file_that_is_not_an_object_is_simulated_again(self, server):
        """A record file whose JSON is not an object is a miss: the
        request is accepted (202) and simulated again, not a dropped
        connection."""
        body = {"experiment": "validation", "overrides": {"seed": 31}}
        status, submitted = post(server, "/v1/runs", body)
        first = poll(server, submitted["job_id"])
        assert first["state"] == "done", first["error"]
        [path] = [entry.path for entry in server.cache.index()
                  if entry.cache_key == first["job_id"]]
        path.write_text("[1, 2]")

        status, again = post(server, "/v1/runs", body)
        assert status == 202
        done = poll(server, again["job_id"])
        assert done["state"] == "done", done["error"]
        assert done["simulated"] is True
        assert done["result"]["summary"] == first["result"]["summary"]
        status, warm = post(server, "/v1/runs", body)
        assert status == 200 and warm["simulated"] is False


class TestErrors:
    def test_unknown_job_404(self, server):
        status, body = get(server, "/v1/jobs/doesnotexist")
        assert status == 404
        assert "unknown job" in body["error"]

    def test_unknown_path_404(self, server):
        status, body = get(server, "/v1/nope")
        assert status == 404

    def test_unknown_experiment_400(self, server):
        status, body = post(server, "/v1/runs", {"experiment": "nope"})
        assert status == 400
        assert "unknown experiment" in body["error"]

    def test_bad_override_400_with_suggestion(self, server):
        status, body = post(
            server, "/v1/runs",
            {"experiment": "validation", "overrides": {"sed": 1}},
        )
        assert status == 400
        assert "did you mean" in body["error"]

    @pytest.mark.parametrize(
        "machine, message",
        [
            ({"block_bytes": 48}, "cache size must be a multiple of assoc * block"),
            ({"network_latency": -50}, "network_latency must be >= 0, got -50"),
            ({"cache_assoc": 0}, "cache_assoc must be >= 1, got 0"),
        ],
        ids=["block_bytes", "network_latency", "cache_assoc"],
    )
    def test_impossible_machine_400(self, server, machine, message):
        """An impossible machine is a usage error, answered before any
        job is queued."""
        status, body = post(
            server, "/v1/runs",
            {"experiment": "validation", "overrides": {"machine": machine}},
        )
        assert status == 400
        assert message in body["error"]

    @pytest.mark.parametrize(
        "path, body, message",
        [
            ("/v1/sweeps", {"spec": "em3d-latency", "axes": {"net_latncy": [0]}},
             "unknown sweep axis 'net_latncy' for em3d "
             "(did you mean 'net_latency'?)"),
            ("/v1/sweeps", {"spec": "em3d-latency", "axes": {"net_latency": [-50]}},
             "network_latency must be >= 0, got -50"),
            ("/v1/sweeps", {"spec": "em3d-latency", "axes": {"procs": [0]}},
             "num_processors must be >= 1, got 0"),
            ("/v1/sweeps",
             {"spec": "em3d-latency", "axes": {"net_latency": [0], "procs": [2]}},
             "sweep 'em3d-latency' has checks, which need a one-axis sweep"),
            ("/v1/runs", {"experiment": "validation", "overrides": {"procs": 0}},
             "num_processors must be >= 1, got 0"),
            ("/v1/runs", {"experiment": "validation", "overrides": {"procs": "x"}},
             "num_processors must be >= 1, got 'x'"),
            ("/v1/runs", {"experiment": "validation", "overrides": {"cache_bytes": 0}},
             "cache_bytes must be >= 1, got 0"),
            ("/v1/runs", {"experiment": "em3"}, "(did you mean 'em3d'?)"),
            ("/v1/runs",
             {"experiment": "alcp", "overrides": {"options": {"asynchronus": False}}},
             "unknown alcp option 'asynchronus' (did you mean 'asynchronous'?)"),
            ("/v1/runs", {"experiment": "validation", "overrides": {"procs": 1}},
             "validation needs at least 2 processors, got 1"),
            ("/v1/runs", {"experiment": "gauss", "overrides": {"procs": 8, "app": {"n": 4}}},
             "need at least one row per processor: n=4, 8 processors"),
            ("/v1/runs", {"experiment": "em3d", "overrides": {"procs": 1}},
             "remote edges require at least two processors"),
            ("/v1/runs", {"experiment": "lcp", "overrides": {"procs": 6}},
             "the processor count must be a power of two, got 6"),
            ("/v1/sweeps", {"spec": "gauss-speedup", "axes": {"procs": [1, 2, 128]}},
             "need at least one row per processor: n=64, 128 processors"),
        ],
        ids=["sweep-axis-typo", "sweep-negative-latency", "sweep-zero-procs",
             "sweep-second-axis", "run-zero-procs", "run-string-procs", "run-zero-cache",
             "run-experiment-typo", "run-option-typo", "run-validation-one-proc",
             "run-gauss-fewer-rows", "run-em3d-one-proc", "run-lcp-sync-six-procs",
             "sweep-gauss-fewer-rows"],
    )
    def test_unrunnable_request_400_and_nothing_queued(
        self, server, path, body, message
    ):
        """A request that cannot become a runnable config — at any sweep
        point — is refused at submit; no job is queued."""
        _status, before = get(server, "/v1/jobs")
        status, answer = post(server, path, body)
        assert status == 400
        assert message in answer["error"]
        _status, after = get(server, "/v1/jobs")
        assert after["jobs"] == before["jobs"]

    def test_malformed_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/runs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_empty_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/runs", data=b"",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestServeCli:
    def test_bad_cache_bytes_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["serve", "--cache-bytes", "lots"]) == 2
        assert "byte budget" in capsys.readouterr().err


class TestKeepAliveDesync:
    """HTTP/1.1 keep-alive: every early-exit path must drain the
    request body, or the unread body is parsed as the next request on
    the same connection (request desync)."""

    def _request_bytes(self, path, body: bytes, host: str) -> bytes:
        return (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("ascii") + body

    @staticmethod
    def _parse_statuses(raw: bytes):
        """Frame HTTP/1.1 responses by Content-Length; a framing error
        here IS the desync the regression guards against."""
        statuses = []
        while raw:
            head, sep, rest = raw.partition(b"\r\n\r\n")
            assert sep, f"truncated response head: {raw[:80]!r}"
            status_line = head.split(b"\r\n", 1)[0]
            assert status_line.startswith(b"HTTP/1.1 "), status_line
            statuses.append(int(status_line.split(b" ")[1]))
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value.strip())
            assert len(rest) >= length, "truncated response body"
            raw = rest[length:]
        return statuses

    def test_pipelined_posts_on_one_connection(self, server):
        """Valid, unknown-path, oversized, and malformed-JSON POSTs
        pipelined on one persistent connection all get the answer that
        belongs to them."""
        import socket

        from repro.serve.server import MAX_BODY_BYTES

        host, port = server.address
        requests = [
            # (path, body, expected_status)
            ("/v1/runs", json.dumps({"experiment": "validation"}).encode(),
             (200, 202)),
            ("/v1/nope", json.dumps({"experiment": "validation"}).encode(),
             (404,)),
            ("/v1/runs", b"x" * (MAX_BODY_BYTES + 1), (400,)),
            ("/v1/runs", b"{not json", (400,)),
            ("/v1/runs", json.dumps({"experiment": "validation"}).encode(),
             (200, 202)),
        ]
        payload = b"".join(
            self._request_bytes(path, body, host)
            for path, body, _ in requests
        )
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk

        statuses = self._parse_statuses(raw)
        assert len(statuses) == len(requests), (
            f"expected {len(requests)} responses, got {len(statuses)}: "
            f"{statuses} (desync?)"
        )
        for (path, _body, expected), status in zip(requests, statuses):
            assert status in expected, (
                f"{path}: expected {expected}, got {status}"
            )

    def test_sequential_keepalive_after_errors(self, server):
        """http.client on one persistent connection: the socket stays
        usable across 404/400 answers."""
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            cases = [
                ("POST", "/v1/nope", b'{"experiment": "validation"}', 404),
                ("POST", "/v1/runs", b"{broken", 400),
                ("POST", "/v1/runs", b'{"experiment": "validation"}', None),
                ("GET", "/healthz", None, 200),
            ]
            sock_ids = []
            for method, path, body, expected in cases:
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = json.loads(response.read())
                if expected is not None:
                    assert response.status == expected, (path, payload)
                sock_ids.append(id(conn.sock))
            assert len(set(sock_ids)) == 1, "connection was not reused"
        finally:
            conn.close()

    def test_get_with_body_stays_in_sync(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz", body=b'{"stray": "body"}',
                         headers={"Content-Type": "application/json"})
            first = conn.getresponse()
            assert first.status == 200
            json.loads(first.read())
            conn.request("GET", "/v1/experiments")
            second = conn.getresponse()
            assert second.status == 200
            assert "experiments" in json.loads(second.read())
        finally:
            conn.close()


class TestKeepAliveLatency:
    """Back-to-back warm reads on one persistent connection. Without
    TCP_NODELAY on the server each waits out the client's delayed ACK
    (~40 ms on Linux) behind Nagle's algorithm; with it each takes a
    millisecond or two, so a 20 ms median separates the two widely."""

    def test_warm_posts_on_one_connection_do_not_stall(self, server):
        import http.client
        import statistics

        body = {"experiment": "validation"}
        status, submitted = post(server, "/v1/runs", body)
        assert poll(server, submitted["job_id"])["state"] == "done"

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        payload = json.dumps(body).encode("utf-8")
        times, sockets = [], set()
        try:
            for _ in range(20):
                started = time.perf_counter()
                conn.request("POST", "/v1/runs", body=payload,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                envelope = json.loads(response.read())
                times.append(time.perf_counter() - started)
                assert response.status == 200
                assert envelope["simulated"] is False
                sockets.add(id(conn.sock))
        finally:
            conn.close()
        assert len(sockets) == 1, "connection was not reused"
        median = statistics.median(times)
        assert median < 0.02, f"warm keep-alive median {median * 1e3:.1f} ms"


class TestClientHangUp:
    def test_client_reset_prints_no_traceback(self, server, capfd):
        """A keep-alive client that resets its idle connection is a log
        line (silent here: the server is quiet), not a stderr traceback."""
        import socket
        import struct

        host, port = server.address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(
            f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        assert sock.recv(65536).startswith(b"HTTP/1.1 200")
        # Linger 0: close() sends RST while the handler awaits a request.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        time.sleep(0.5)
        assert "Traceback" not in capfd.readouterr().err


class TestLongPoll:
    def test_wait_returns_immediately_for_done_job(self, server):
        status, job = post(server, "/v1/runs", {"experiment": "validation"})
        job = poll(server, job["job_id"])
        started = time.perf_counter()
        status, again = get(server, f"/v1/jobs/{job['job_id']}?wait=10")
        elapsed = time.perf_counter() - started
        assert status == 200
        assert again["state"] == "done"
        assert elapsed < 2.0, "long-poll on a finished job must not block"

    def test_wait_blocks_until_completion(self, server):
        body = {"experiment": "validation", "overrides": {"seed": 4242}}
        status, submitted = post(server, "/v1/runs", body)
        assert status in (200, 202)
        status, job = get(
            server, f"/v1/jobs/{submitted['job_id']}?wait=30"
        )
        assert status == 200
        assert job["state"] in ("done", "failed")
        assert job["state"] == "done", job["error"]

    def test_bad_wait_is_a_400(self, server):
        status, job = post(server, "/v1/runs", {"experiment": "validation"})
        status, body = get(server, f"/v1/jobs/{job['job_id']}?wait=soon")
        assert status == 400
        assert "wait=" in body["error"]
