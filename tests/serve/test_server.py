"""End-to-end HTTP tests: real sockets, real validation experiment.

The server under test binds an ephemeral port on localhost and runs
with the in-process run executor (the spawn executor is exercised by
the CI ``serve-smoke`` job against a real ``repro serve`` process, and
by ``tools/serve_smoke.py`` locally).
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.runner.cache import ResultCache
from repro.serve import inprocess_run_executor


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("serve") / "cache")
    instance = api.serve(
        port=0,
        block=False,
        jobs=1,
        cache=cache,
        run_executor=inprocess_run_executor,
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


class TestStatusPage:
    def test_status_page_renders(self, server):
        post(server, "/v1/runs", {"experiment": "validation"})
        import urllib.request

        with urllib.request.urlopen(server.url + "/status", timeout=10) as r:
            assert r.status == 200
            assert "text/html" in r.headers["Content-Type"]
            page = r.read().decode("utf-8")
        assert "repro serve" in page
        assert "cache records" in page
        assert "validation" in page or "job" in page

    def test_health_reports_admission_and_retention(self, server):
        status, health = get(server, "/healthz")
        assert status == 200
        assert "max_pending" in health["admission"]
        assert "retention" in health["queue"]
        assert health["queue"]["retention"]["max_terminal"] is not None
        assert health["cache"]["store"] == "local"
        assert health["replica"]["pid"] > 0
